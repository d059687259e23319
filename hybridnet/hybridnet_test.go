package hybridnet_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/hybridnet"
)

func newNet(t *testing.T, g *hybridnet.Graph) *hybridnet.Network {
	t.Helper()
	net, err := hybridnet.NewNetwork(g, hybridnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestPublicGenerators(t *testing.T) {
	cases := []struct {
		name string
		g    *hybridnet.Graph
		n    int
	}{
		{"path", hybridnet.Path(10), 10},
		{"cycle", hybridnet.Cycle(10), 10},
		{"grid2d", hybridnet.Grid2D(4), 16},
		{"grid", hybridnet.Grid(3, 3), 27},
		{"torus", hybridnet.Torus(4, 2), 16},
		{"complete", hybridnet.Complete(6), 6},
		{"star", hybridnet.Star(7), 7},
		{"tree", hybridnet.BinaryTree(15), 15},
		{"ringofcliques", hybridnet.RingOfCliques(4, 4), 16},
		{"lollipop", hybridnet.Lollipop(4, 8), 12},
	}
	for _, c := range cases {
		if c.g.N() != c.n {
			t.Errorf("%s: n=%d, want %d", c.name, c.g.N(), c.n)
		}
		if !c.g.Connected() {
			t.Errorf("%s: not connected", c.name)
		}
	}
	rng := rand.New(rand.NewSource(1))
	if g := hybridnet.RandomGraph(30, 0.1, rng); !g.Connected() {
		t.Error("random graph disconnected")
	}
	if g := hybridnet.RandomWeights(hybridnet.Path(5), 9, rng); !g.IsWeighted() {
		t.Error("random weights produced unweighted graph")
	}
}

func TestNQFacade(t *testing.T) {
	g := hybridnet.Path(100)
	q, err := hybridnet.NQ(g, 100)
	if err != nil {
		t.Fatal(err)
	}
	if q != 10 { // Θ(√k) on the path: exactly ceil over t·|B_t|≥k
		t.Fatalf("NQ=%d", q)
	}
	per, max, err := hybridnet.NQPerNode(g, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 100 || max != q {
		t.Fatal("NQPerNode inconsistent with NQ")
	}
}

func TestNetworkBasicsAndAudit(t *testing.T) {
	net := newNet(t, hybridnet.Grid2D(8))
	if net.N() != 64 || net.Cap() != 6 || net.Rounds() != 0 {
		t.Fatalf("n=%d cap=%d rounds=%d", net.N(), net.Cap(), net.Rounds())
	}
	if _, err := net.SSSP(0, 0.5); err != nil {
		t.Fatal(err)
	}
	if net.Rounds() == 0 {
		t.Fatal("no rounds recorded")
	}
	if !strings.Contains(net.Audit(), "TOTAL") {
		t.Fatal("audit missing total")
	}
	net.ResetRounds()
	if net.Rounds() != 0 {
		t.Fatal("reset failed")
	}
	if net.Raw() == nil {
		t.Fatal("Raw returned nil")
	}
}

func TestEndToEndPipeline(t *testing.T) {
	// One network, several algorithms in sequence — the memoized
	// clustering makes later phases cheaper, mirroring a real deployment
	// that sets up its infrastructure once.
	g := hybridnet.Grid2D(10)
	net := newNet(t, g)
	rng := rand.New(rand.NewSource(3))
	n := net.N()

	tokens := make([]int, n)
	for i := range tokens {
		tokens[i] = 1
	}
	dres, err := net.Disseminate(tokens)
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := net.Rounds()

	// Second broadcast on the same net: clustering is already in place,
	// so it must cost less.
	if _, err := net.Disseminate(tokens); err != nil {
		t.Fatal(err)
	}
	if second := net.Rounds() - afterFirst; second >= dres.Rounds {
		t.Fatalf("second broadcast (%d) not cheaper than first (%d) despite standing clustering", second, dres.Rounds)
	}

	// Routing and shortest paths on the same infrastructure.
	targets := hybridnet.SampleNodes(n, 3.0/float64(n), rng)
	if len(targets) == 0 {
		targets = []int{n - 1}
	}
	sources := make([]int, n/4)
	for i := range sources {
		sources[i] = i
	}
	rres, err := net.Route(hybridnet.RoutingSpec{
		Case:    hybridnet.ArbitrarySourcesRandomTargets,
		Sources: sources, Targets: targets, K: len(sources), L: 3,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if rres.Pairs != int64(len(sources)*len(targets)) {
		t.Fatal("pairs mismatch")
	}

	dist, kres, err := net.KSSP(sources[:4], 0.5, false, rng, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) != 4 {
		t.Fatal("kssp rows")
	}
	exact := g.Dijkstra(sources[0])
	for v := range exact {
		if dist[0][v] < exact[v] || float64(dist[0][v]) > kres.Stretch*float64(exact[v])+1e-6 {
			t.Fatalf("kssp stretch violated at %d", v)
		}
	}
}

func TestAggregateFacade(t *testing.T) {
	net := newNet(t, hybridnet.Cycle(40))
	values := make([][]int64, 40)
	for v := range values {
		values[v] = []int64{int64(v)}
	}
	sum := func(a, b int64) int64 { return a + b }
	got, _, err := net.Aggregate(1, values, sum)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 780 {
		t.Fatalf("sum=%d, want 780", got[0])
	}
}

func TestDisseminateVerifiedFacade(t *testing.T) {
	net := newNet(t, hybridnet.Grid2D(10))
	tokens := make([]int, net.N())
	tokens[0] = net.N()
	res, err := net.DisseminateVerified(tokens)
	if err != nil {
		t.Fatal(err)
	}
	for v, got := range res.PerNodeTokens {
		if got != net.N() {
			t.Fatalf("node %d got %d/%d tokens", v, got, net.N())
		}
	}
}

func TestBCCRoundFacade(t *testing.T) {
	net := newNet(t, hybridnet.Grid2D(8))
	res, err := net.BCCRound()
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 64 {
		t.Fatalf("BCC K=%d", res.K)
	}
}

func TestAPSPFacades(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := hybridnet.RandomWeights(hybridnet.Grid2D(7), 9, rng)
	for name, run := range map[string]func(*hybridnet.Network) error{
		"unweighted": func(n *hybridnet.Network) error { _, _, err := n.UnweightedAPSP(0.5, false); return err },
		"sparse":     func(n *hybridnet.Network) error { _, _, err := n.SparseAPSP(false); return err },
		"spanner":    func(n *hybridnet.Network) error { _, _, err := n.SpannerAPSP(0.5, false); return err },
		"skeleton":   func(n *hybridnet.Network) error { _, _, err := n.SkeletonAPSP(1, rng, false); return err },
	} {
		net := newNet(t, g)
		if err := run(net); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if net.Rounds() == 0 {
			t.Fatalf("%s: no rounds", name)
		}
	}
}

func TestKLSPFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := hybridnet.Path(80)
	net := newNet(t, g)
	dist, res, err := net.KLSP([]int{0, 1, 2, 3}, []int{79}, 0.5, hybridnet.KLSPArbitrarySources, rng, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) != 1 || len(dist[0]) != 4 {
		t.Fatal("dist shape")
	}
	if res.Stretch != 1.5 {
		t.Fatalf("stretch=%v", res.Stretch)
	}
}

func TestApproxCutsFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := newNet(t, hybridnet.Grid2D(8))
	sp, res, err := net.ApproxCuts(0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.SparsifierEdges != len(sp.Edges) {
		t.Fatal("edges mismatch")
	}
}

func TestLowerBoundFacades(t *testing.T) {
	g := hybridnet.Path(400)
	d, err := hybridnet.DisseminationLowerBound(g, 400, 9, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	s, err := hybridnet.ShortestPathsLowerBound(g, 400, 9, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if d.Rounds <= 0 || s.Rounds <= 0 {
		t.Fatalf("bounds d=%v s=%v", d.Rounds, s.Rounds)
	}
	if s.Rounds < d.Rounds {
		t.Fatal("SP bound weaker than dissemination bound")
	}
}

func TestHybrid0VariantThroughFacade(t *testing.T) {
	net, err := hybridnet.NewNetwork(hybridnet.Grid2D(8), hybridnet.Config{
		Variant:        hybridnet.HYBRID0,
		TrackKnowledge: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 1 must run under enforced HYBRID₀ addressing.
	tokens := make([]int, net.N())
	tokens[0] = net.N()
	if _, err := net.Disseminate(tokens); err != nil {
		t.Fatalf("HYBRID0 dissemination with knowledge enforcement: %v", err)
	}
}
