package unicast

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/hybrid"
)

func newNet(t *testing.T, g *graph.Graph) *hybrid.Net {
	t.Helper()
	net, err := hybrid.New(g, hybrid.Config{Variant: hybrid.VariantHybrid})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func envelope(net *hybrid.Net, q int) int {
	p := net.PLog()
	return 96 * (q + 1) * p * p * p
}

func TestHashRangeAndDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h, err := NewHash(100, 16, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.coeff) != 16 {
		t.Fatalf("seed words=%d", len(h.coeff))
	}
	for i := int64(0); i < 50; i++ {
		for j := int64(0); j < 50; j += 7 {
			v := h.eval(i, j)
			if v < 0 || v >= 100 {
				t.Fatalf("h(%d,%d)=%d out of range", i, j, v)
			}
			if v != h.eval(i, j) {
				t.Fatal("hash not deterministic")
			}
		}
	}
	if _, err := NewHash(0, 4, rng); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestHashSpreadsLoad(t *testing.T) {
	// Property (1) of Lemma 5.3, statistically: hashing n pairs onto n
	// bins leaves no bin with more than O(log n) pairs.
	rng := rand.New(rand.NewSource(2))
	n := 1024
	h, err := NewHash(n, 64, rng)
	if err != nil {
		t.Fatal(err)
	}
	load := make([]int, n)
	for i := 0; i < n; i++ {
		load[h.eval(int64(i), int64(i*31+7))]++
	}
	for b, l := range load {
		if l > 12 { // ~log n + slack
			t.Fatalf("bin %d has load %d", b, l)
		}
	}
}

// helperLoadStats summarizes a helper-set family:
// the smallest set size and the maximum number of sets any node serves in.
func helperLoadStats(n int, sets map[int][]int) (minSize, maxMembership int) {
	minSize = -1
	member := make([]int, n)
	for _, hw := range sets {
		if minSize < 0 || len(hw) < minSize {
			minSize = len(hw)
		}
		for _, v := range hw {
			member[v]++
		}
	}
	for _, m := range member {
		if m > maxMembership {
			maxMembership = m
		}
	}
	return minSize, maxMembership
}

func TestHelperSetsProperties(t *testing.T) {
	g := graph.Grid(16, 2)
	net := newNet(t, g)
	rng := rand.New(rand.NewSource(3))
	k := g.N()
	cl, err := cluster.Build(net, k)
	if err != nil {
		t.Fatal(err)
	}
	// W sampled with probability NQ_k/k as Lemma 5.2 requires.
	w := SampleNodes(g.N(), float64(cl.NQ)/float64(k), rng)
	if len(w) == 0 {
		w = []int{0}
	}
	hs, err := HelperSets(net, cl, w, k, rng)
	if err != nil {
		t.Fatal(err)
	}
	minSize, maxMember := helperLoadStats(g.N(), hs)
	// Property (1): |H_w| ≥ k/NQ_k (clusters may cap it at their size).
	wantMin := k / cl.NQ
	if minSize < wantMin/2 {
		t.Fatalf("min helper set size %d < (k/NQ_k)/2 = %d", minSize, wantMin/2)
	}
	// Property (2): helpers within the cluster's weak diameter.
	for owner, set := range hs {
		d := g.BFS(owner)
		for _, v := range set {
			if d[v] > int64(4*cl.NQ*net.PLog()) {
				t.Fatalf("helper %d at distance %d from owner %d", v, d[v], owner)
			}
		}
	}
	// Property (3): eÕ(1) memberships per node.
	if maxMember > 8*net.PLog() {
		t.Fatalf("node serves in %d helper sets", maxMember)
	}
}

func TestHelperSetsValidation(t *testing.T) {
	net := newNet(t, graph.Path(16))
	rng := rand.New(rand.NewSource(1))
	cl, err := cluster.Build(net, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := HelperSets(net, cl, []int{0}, 0, rng); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := HelperSets(net, cl, []int{-1}, 4, rng); err == nil {
		t.Fatal("out-of-range owner accepted")
	}
}

func TestRouteValidation(t *testing.T) {
	net := newNet(t, graph.Path(8))
	rng := rand.New(rand.NewSource(1))
	if _, err := Route(net, Spec{Case: ArbitrarySourcesRandomTargets}, rng); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, err := Route(net, Spec{Case: ArbitrarySourcesRandomTargets, Sources: []int{99}, Targets: []int{0}}, rng); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, err := Route(net, Spec{Case: Case(9), Sources: []int{0}, Targets: []int{1}}, rng); err == nil {
		t.Fatal("unknown case accepted")
	}
}

func TestRouteCase1(t *testing.T) {
	g := graph.Grid(16, 2) // n=256
	net := newNet(t, g)
	rng := rand.New(rand.NewSource(7))
	n := g.N()
	k := n / 2
	// Arbitrary sources: the k lowest-index nodes (adversarially packed).
	sources := make([]int, k)
	for i := range sources {
		sources[i] = i
	}
	// Random targets, expected size ℓ ≤ NQ_k.
	targets := SampleNodes(n, 4.0/float64(n), rng)
	if len(targets) == 0 {
		targets = []int{n - 1}
	}
	res, err := Route(net, Spec{Case: ArbitrarySourcesRandomTargets, Sources: sources, Targets: targets, K: k, L: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != int64(k*len(targets)) {
		t.Fatalf("delivered %d pairs, want %d", res.Pairs, k*len(targets))
	}
	if !res.ConditionsMet {
		t.Fatalf("case 1 conditions should hold: l=%d NQ=%d", res.L, res.NQ)
	}
	if res.Rounds > envelope(net, res.NQ) {
		t.Fatalf("rounds=%d exceed eÕ(NQ_k)=%d", res.Rounds, envelope(net, res.NQ))
	}
}

func TestRouteCase2Reverses(t *testing.T) {
	g := graph.Grid(12, 2)
	net := newNet(t, g)
	rng := rand.New(rand.NewSource(11))
	n := g.N()
	l := n / 2
	targets := make([]int, l)
	for i := range targets {
		targets[i] = i
	}
	sources := SampleNodes(n, 3.0/float64(n), rng)
	if len(sources) == 0 {
		sources = []int{n - 1}
	}
	res, err := Route(net, Spec{Case: RandomSourcesArbitraryTargets, Sources: sources, Targets: targets, K: 3, L: l}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reversed {
		t.Fatal("case 2 must reverse roles")
	}
	if res.Pairs != int64(len(sources)*l) {
		t.Fatalf("pairs=%d", res.Pairs)
	}
	if res.Rounds > envelope(net, res.NQ) {
		t.Fatalf("rounds=%d exceed envelope", res.Rounds)
	}
}

func TestRouteCase3Direct(t *testing.T) {
	g := graph.Grid(16, 2)
	net := newNet(t, g)
	rng := rand.New(rand.NewSource(13))
	n := g.N()
	k, l := 24, 8 // k ≤ √(n·NQ_k): direct regime
	sources := SampleNodes(n, float64(k)/float64(n), rng)
	targets := SampleNodes(n, float64(l)/float64(n), rng)
	if len(sources) == 0 || len(targets) == 0 {
		t.Skip("empty sample")
	}
	res, err := Route(net, Spec{Case: RandomSourcesRandomTargets, Sources: sources, Targets: targets, K: k, L: l}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reduced {
		t.Fatal("direct regime applied Lemma 5.4")
	}
	if res.Pairs != int64(len(sources)*len(targets)) {
		t.Fatalf("pairs=%d", res.Pairs)
	}
	if res.Rounds > envelope(net, res.NQ) {
		t.Fatalf("rounds=%d exceed envelope", res.Rounds)
	}
}

func TestRouteCase3Lemma54Reduction(t *testing.T) {
	g := graph.Grid(16, 2) // n=256, NQ_n ≈ 7 → √(n·NQ) ≈ 42
	net := newNet(t, g)
	rng := rand.New(rand.NewSource(17))
	n := g.N()
	k := n // k = 256 > threshold → reduction fires
	l := 2
	sources := SampleNodes(n, 0.9, rng) // nearly all nodes are sources
	targets := SampleNodes(n, float64(l)/float64(n), rng)
	if len(targets) == 0 {
		targets = []int{0}
	}
	res, err := Route(net, Spec{Case: RandomSourcesRandomTargets, Sources: sources, Targets: targets, K: k, L: l}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reduced {
		t.Fatal("Lemma 5.4 reduction did not fire")
	}
	if res.Pairs != int64(len(sources)*len(targets)) {
		t.Fatalf("pairs=%d, want %d", res.Pairs, len(sources)*len(targets))
	}
	if res.Rounds > envelope(net, res.NQ) {
		t.Fatalf("rounds=%d exceed envelope %d", res.Rounds, envelope(net, res.NQ))
	}
}

// TestRouteLemma54Deterministic: one seed gives one Result. The
// super-source sampling draws from rng once per source, cluster by
// cluster, so the order clusters are visited in must be fixed.
func TestRouteLemma54Deterministic(t *testing.T) {
	g := graph.Grid(32, 2)
	n := g.N()
	distinct := make(map[Result]bool)
	for run := 0; run < 20; run++ {
		rng := rand.New(rand.NewSource(17))
		sources := SampleNodes(n, 0.9, rng)
		targets := SampleNodes(n, 2/float64(n), rng)
		if len(targets) == 0 {
			targets = []int{0}
		}
		res, err := Route(newNet(t, g), Spec{Case: RandomSourcesRandomTargets, Sources: sources, Targets: targets, K: n, L: 2}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Reduced {
			t.Fatal("Lemma 5.4 reduction did not fire")
		}
		distinct[*res] = true
	}
	if len(distinct) != 1 {
		t.Fatalf("20 runs with one seed gave %d distinct results: %v", len(distinct), distinct)
	}
}

func TestRouteCase3ReversesWhenLBigger(t *testing.T) {
	g := graph.Grid(12, 2)
	net := newNet(t, g)
	rng := rand.New(rand.NewSource(19))
	n := g.N()
	sources := SampleNodes(n, 2.0/float64(n), rng)
	targets := SampleNodes(n, 16.0/float64(n), rng)
	if len(sources) == 0 || len(targets) == 0 {
		t.Skip("empty sample")
	}
	res, err := Route(net, Spec{Case: RandomSourcesRandomTargets, Sources: sources, Targets: targets, K: 2, L: 16}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reversed {
		t.Fatal("ℓ > k case must reverse")
	}
}

// Routing kℓ individual messages must beat broadcasting kℓ tokens
// (Theorem 3 discussion: eÕ(NQ_k) ≪ eÕ(NQ_kℓ) in general).
func TestRouteBeatsBroadcastingAllPairs(t *testing.T) {
	g := graph.Grid(20, 2) // n=400
	rng := rand.New(rand.NewSource(23))
	n := g.N()
	k, l := n/2, 8

	netA := newNet(t, g)
	sources := make([]int, k)
	for i := range sources {
		sources[i] = i
	}
	targets := SampleNodes(n, float64(l)/float64(n), rng)
	if len(targets) < 2 {
		targets = []int{n - 1, n - 2}
	}
	res, err := Route(netA, Spec{Case: ArbitrarySourcesRandomTargets, Sources: sources, Targets: targets, K: k, L: l}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Broadcasting k·ℓ tokens costs Ω(NQ_kℓ·k·ℓ/(n·γ)) rounds just for
	// receive capacity at a single node; compare against the measured
	// routing rounds.
	kl := int(res.Pairs)
	perNodeWords := kl / netA.Cap()
	if res.Rounds >= perNodeWords && kl > 4*n {
		t.Fatalf("routing (%d rounds) not faster than trivial broadcast floor (%d)", res.Rounds, perNodeWords)
	}
	if res.MaxIntermediateLoad > 8*res.NQ*netA.PLog() {
		t.Fatalf("intermediate load %d breaks Lemma 5.3(1) envelope", res.MaxIntermediateLoad)
	}
}
