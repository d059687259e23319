package apsp

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/sssp"
	"repro/internal/unicast"
)

func newNet(t *testing.T, g *graph.Graph) *hybrid.Net {
	t.Helper()
	net, err := hybrid.New(g, hybrid.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func envelope(net *hybrid.Net, q int, scale int) int {
	p := net.PLog()
	return 64 * scale * (q + 1) * p * p * p
}

// verifyMatrixStretch checks exact ≤ est ≤ stretch·exact for all pairs.
func verifyMatrixStretch(t *testing.T, g *graph.Graph, est [][]int64, stretch float64) {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		if err := sssp.VerifyStretch(g.Dijkstra(v), est[v], stretch); err != nil {
			t.Fatalf("row %d: %v", v, err)
		}
	}
}

func TestUnweightedValidation(t *testing.T) {
	net := newNet(t, graph.Path(8))
	if _, _, err := Unweighted(net, 0, false); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, _, err := Unweighted(net, 1.5, false); err == nil {
		t.Fatal("eps>1 accepted")
	}
}

func TestUnweightedTheorem6(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(9, 2)},
		{"path", graph.Path(90)},
		{"cycle", graph.Cycle(80)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := newNet(t, tc.g)
			dist, res, err := Unweighted(net, 0.5, true)
			if err != nil {
				t.Fatal(err)
			}
			verifyMatrixStretch(t, tc.g.Unweighted(), dist, res.Stretch)
			if res.Rounds > envelope(net, res.NQ, 8) {
				t.Fatalf("rounds=%d exceed eÕ(NQ_n/ε²) envelope %d", res.Rounds, envelope(net, res.NQ, 8))
			}
		})
	}
}

func TestSparseExactCorollary22(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := graph.RandomWeights(graph.Grid(8, 2), 20, rng)
	net := newNet(t, g)
	dist, res, err := SparseExact(net, true)
	if err != nil {
		t.Fatal(err)
	}
	verifyMatrixStretch(t, g, dist, 1.0)
	if res.PayloadTokens != g.M() {
		t.Fatalf("payload=%d, want m=%d", res.PayloadTokens, g.M())
	}
	if res.Rounds > envelope(net, res.NQ, 4) {
		t.Fatalf("rounds=%d exceed envelope", res.Rounds)
	}
}

func TestSpannerBroadcastTheorem7(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	g := graph.RandomWeights(graph.RandomConnected(80, 0.1, rng), 9, rng)
	net := newNet(t, g)
	dist, res, err := SpannerBroadcast(net, 0.7, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stretch < 1 {
		t.Fatalf("stretch=%v", res.Stretch)
	}
	verifyMatrixStretch(t, g, dist, res.Stretch)
	if _, _, err := SpannerBroadcast(net, 0, false); err == nil {
		t.Fatal("eps=0 accepted")
	}
}

func TestLogOverLogLogCorollary23(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := graph.RandomWeights(graph.Grid(7, 2), 15, rng)
	net := newNet(t, g)
	dist, res, err := LogOverLogLog(net, true)
	if err != nil {
		t.Fatal(err)
	}
	verifyMatrixStretch(t, g, dist, res.Stretch)
	// Stretch must be O(log n / log log n)·const — concretely below 2·log n.
	if res.Stretch > float64(2*net.PLog()) {
		t.Fatalf("stretch=%v too large", res.Stretch)
	}
}

func TestSkeletonTheorem8(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	// A long weighted path: large diameter, so the skeleton hop bound
	// h < D and the skeleton path is genuinely exercised.
	g := graph.RandomWeights(graph.Path(180), 7, rng)
	net := newNet(t, g)
	dist, res, err := SkeletonWithT(net, 1, 4, rng, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stretch != 3 { // 4α-1 with α=1
		t.Fatalf("stretch=%v", res.Stretch)
	}
	verifyMatrixStretch(t, g, dist, res.Stretch)
}

func TestSkeletonDefaultT(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g := graph.RandomWeights(graph.Grid(7, 2), 5, rng)
	net := newNet(t, g)
	dist, res, err := Skeleton(net, 1, rng, true)
	if err != nil {
		t.Fatal(err)
	}
	verifyMatrixStretch(t, g, dist, res.Stretch)
	if res.Rounds <= 0 {
		t.Fatal("no rounds recorded")
	}
}

func TestSkeletonValidation(t *testing.T) {
	net := newNet(t, graph.Path(8))
	rng := rand.New(rand.NewSource(1))
	if _, _, err := Skeleton(net, 0, rng, false); err == nil {
		t.Fatal("alpha=0 accepted")
	}
	if _, _, err := SkeletonWithT(net, 1, 0, rng, false); err == nil {
		t.Fatal("t=0 accepted")
	}
}

func TestKLSPValidation(t *testing.T) {
	net := newNet(t, graph.Path(16))
	rng := rand.New(rand.NewSource(1))
	if _, _, err := KLSP(net, nil, []int{1}, 0.5, KLSPArbitrarySources, rng, false); err == nil {
		t.Fatal("empty sources accepted")
	}
	if _, _, err := KLSP(net, []int{0}, []int{1}, 0, KLSPArbitrarySources, rng, false); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, _, err := KLSP(net, []int{0}, []int{1}, 0.5, KLSPCase(7), rng, false); err == nil {
		t.Fatal("bad case accepted")
	}
}

func TestKLSPTheorem5Case1(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := graph.RandomWeights(graph.Grid(12, 2), 6, rng)
	net := newNet(t, g)
	n := g.N()
	k := n / 2
	sources := make([]int, k)
	for i := range sources {
		sources[i] = i
	}
	targets := unicast.SampleNodes(n, 3.0/float64(n), rng)
	if len(targets) == 0 {
		targets = []int{n - 1}
	}
	dist, res, err := KLSP(net, sources, targets, 0.25, KLSPArbitrarySources, rng, true)
	if err != nil {
		t.Fatal(err)
	}
	for ti, tnode := range targets {
		exact := g.Dijkstra(tnode)
		for si, s := range sources {
			d, e := exact[s], dist[ti][si]
			if e < d || float64(e) > res.Stretch*float64(d)+1e-6 {
				t.Fatalf("(s=%d,t=%d): est %d vs exact %d (stretch %v)", s, tnode, e, d, res.Stretch)
			}
		}
	}
	if res.Rounds > envelope(net, res.NQ, 16) {
		t.Fatalf("rounds=%d exceed envelope", res.Rounds)
	}
}

func TestKLSPTheorem5Case2(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	g := graph.Path(200)
	net := newNet(t, g)
	n := g.N()
	sources := unicast.SampleNodes(n, 30.0/float64(n), rng)
	targets := unicast.SampleNodes(n, 4.0/float64(n), rng)
	if len(sources) == 0 || len(targets) == 0 {
		t.Skip("empty sample")
	}
	dist, res, err := KLSP(net, sources, targets, 0.5, KLSPRandomBoth, rng, true)
	if err != nil {
		t.Fatal(err)
	}
	for ti, tnode := range targets {
		exact := g.Dijkstra(tnode)
		for si, s := range sources {
			d, e := exact[s], dist[ti][si]
			if e < d || float64(e) > res.Stretch*float64(d)+1e-6 {
				t.Fatalf("(s=%d,t=%d): est %d vs exact %d", s, tnode, e, d)
			}
		}
	}
}

// TestAddEdgeTokensMatchesEdges: counting tokens from the rows gives
// each endpoint what counting g.Edges() gives, on every family and on
// random multigraphs with parallel edges, with and without a node map.
func TestAddEdgeTokensMatchesEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var graphs []*graph.Graph
	for _, f := range graph.Families() {
		g, err := graph.Build(f, 64, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for range 20 {
		n := 2 + rng.Intn(20)
		b := graph.NewBuilder(n)
		for range 3 * n {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			for range 1 + rng.Intn(3) { // parallel copies
				if err := b.AddEdge(u, v, 1+rng.Int63n(9)); err != nil {
					t.Fatal(err)
				}
			}
		}
		graphs = append(graphs, b.Build())
	}
	for i, g := range graphs {
		nodes := rng.Perm(g.N() + 5)[:g.N()]
		want, wantMapped := make([]int, g.N()), make([]int, g.N()+5)
		for _, e := range g.Edges() {
			want[e.U]++
			wantMapped[nodes[e.U]]++
		}
		got, gotMapped := make([]int, g.N()), make([]int, g.N()+5)
		addEdgeTokens(got, g, nil)
		addEdgeTokens(gotMapped, g, nodes)
		if !slices.Equal(got, want) || !slices.Equal(gotMapped, wantMapped) {
			t.Fatalf("graph %d: row counts %v / %v, Edges() counts %v / %v", i, got, gotMapped, want, wantMapped)
		}
	}
}
