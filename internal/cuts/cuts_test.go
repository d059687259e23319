package cuts

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/hybrid"
)

// refForestIndices is the forest indexing Build used before it shared
// one edge copy and one union-find: for every edge of g (in g.Edges()
// order), the 1-based index of the Nagamochi–Ibaraki maximal spanning
// forest containing it, each forest on a fresh union-find.
func refForestIndices(g *graph.Graph) []int {
	edges := g.Edges()
	index := make([]int, len(edges))
	remaining := make([]int, len(edges))
	for i := range remaining {
		remaining[i] = i
	}
	forest := 1
	for len(remaining) > 0 {
		uf := graph.NewUnionFind(g.N())
		var next []int
		for _, ei := range remaining {
			e := edges[ei]
			if uf.Union(e.U, e.V) {
				index[ei] = forest
			} else {
				next = append(next, ei)
			}
		}
		remaining = next
		forest++
	}
	return index
}

// refBuild is the sparsifier loop Build ran on every graph, whatever
// ρ: forest indices of every edge, then keep or sample each in
// Edges() order.
func refBuild(g *graph.Graph, rho float64, rng *rand.Rand) []WeightedEdge {
	indices := refForestIndices(g)
	var out []WeightedEdge
	for ei, e := range g.Edges() {
		p := rho / float64(indices[ei])
		if p >= 1 {
			out = append(out, WeightedEdge{e.U, e.V, float64(e.W)})
			continue
		}
		if rng.Float64() < p {
			out = append(out, WeightedEdge{e.U, e.V, float64(e.W) / p})
		}
	}
	return out
}

func TestNIForestIndices(t *testing.T) {
	// Cycle: first forest takes n-1 edges, the closing edge lands in forest 2.
	g := graph.Cycle(6)
	idx := refForestIndices(g)
	ones, twos := 0, 0
	for _, i := range idx {
		switch i {
		case 1:
			ones++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected forest index %d", i)
		}
	}
	if ones != 5 || twos != 1 {
		t.Fatalf("forest sizes: %d ones, %d twos", ones, twos)
	}
	// Complete graph K6: max index is bounded by max degree.
	k := graph.Complete(6)
	for _, i := range refForestIndices(k) {
		if i < 1 || i > 5 {
			t.Fatalf("K6 forest index %d out of [1,5]", i)
		}
	}
}

// sampledGraphs are graphs on which a small ρ forces real sampling:
// dense, weighted, with parallel edges, and sparse.
func sampledGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	multi := graph.NewBuilder(30)
	rng := rand.New(rand.NewSource(11))
	for range 400 {
		u, v := rng.Intn(30), rng.Intn(30)
		if u == v {
			continue
		}
		if err := multi.AddEdge(u, v, 1+rng.Int63n(9)); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]*graph.Graph{
		"K12":         graph.Complete(12),
		"K60":         graph.Complete(60),
		"weightedK40": graph.RandomWeights(graph.Complete(40), 100, rand.New(rand.NewSource(5))),
		"multigraph":  multi.Build(),
		"random":      graph.RandomConnected(200, 0.1, rand.New(rand.NewSource(6))),
		"cycle":       graph.Cycle(50),
	}
}

// TestNIForestIndicesMatchesReference: the shared-union-find indexing
// gives every edge the forest the reference gives it.
func TestNIForestIndicesMatchesReference(t *testing.T) {
	for name, g := range sampledGraphs(t) {
		got := niForestIndices(g.N(), g.Edges())
		want := refForestIndices(g)
		if len(got) != len(want) {
			t.Fatalf("%s: %d indices, want %d", name, len(got), len(want))
		}
		for i := range want {
			if int(got[i]) != want[i] {
				t.Fatalf("%s: edge %d in forest %d, want %d", name, i, got[i], want[i])
			}
		}
	}
}

// TestBuildMatchesReferenceWhenSampling: with ρ below Δ, Build keeps
// the same edges at the same weights, bit for bit, as the reference
// loop, and leaves the rng at the same point.
func TestBuildMatchesReferenceWhenSampling(t *testing.T) {
	for name, g := range sampledGraphs(t) {
		for _, rho := range []float64{1.5, 4, 7} {
			maxDeg := 0
			for v := range g.N() {
				maxDeg = max(maxDeg, g.Degree(v))
			}
			if rho >= float64(maxDeg) {
				continue
			}
			rng, refRng := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
			sp, err := Build(g, 0.5, rng, Options{Rho: rho})
			if err != nil {
				t.Fatal(err)
			}
			want := refBuild(g, rho, refRng)
			if !sameEdges(sp.Edges, want) {
				t.Fatalf("%s, ρ=%v: %d edges differ from the reference's %d", name, rho, len(sp.Edges), len(want))
			}
			if got, want := rng.Int63(), refRng.Int63(); got != want {
				t.Fatalf("%s, ρ=%v: next draw %d, reference %d", name, rho, got, want)
			}
		}
	}
}

// TestBuildDefaultRhoKeepsEveryEdge: at the default ρ every generated
// family at n = 576 has Δ ≤ ρ, so Build returns every edge of g in
// Edges() order at its own weight and draws nothing from the rng.
func TestBuildDefaultRhoKeepsEveryEdge(t *testing.T) {
	for _, f := range graph.Families() {
		g, err := graph.Build(f, 576, nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		sp, err := Build(g, 0.5, rng, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rho := 3 * math.Pow(math.Log(float64(g.N())), 2) / 0.25
		if want := refBuild(g, rho, rand.New(rand.NewSource(3))); !sameEdges(sp.Edges, want) || len(want) != g.M() {
			t.Fatalf("%s: %d edges, reference %d, m = %d", f, len(sp.Edges), len(want), g.M())
		}
		if got, want := rng.Int63(), rand.New(rand.NewSource(3)).Int63(); got != want {
			t.Fatalf("%s: Build drew from the rng (next draw %d, fresh %d)", f, got, want)
		}
	}
}

// sameEdges reports whether a and b hold the same edges in the same
// order with bit-identical weights.
func sameEdges(a, b []WeightedEdge) bool {
	return slices.EqualFunc(a, b, func(x, y WeightedEdge) bool {
		return x.U == y.U && x.V == y.V && math.Float64bits(x.W) == math.Float64bits(y.W)
	})
}

func TestBuildValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Build(graph.Path(4), 0, rng, Options{}); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, err := Build(graph.Path(4), 1, rng, Options{}); err == nil {
		t.Fatal("eps=1 accepted")
	}
	if _, err := Build(graph.NewBuilder(0).Build(), 0.5, rng, Options{}); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestSparsifierExactWhenRhoLarge(t *testing.T) {
	// With the default rho on a small graph every p_e = 1: the sparsifier
	// is the graph itself and all cuts are exact.
	rng := rand.New(rand.NewSource(2))
	g := graph.Complete(10)
	sp, err := Build(g, 0.5, rng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Edges) != g.M() {
		t.Fatalf("expected exact copy, got %d of %d edges", len(sp.Edges), g.M())
	}
	side := make([]bool, 10)
	for v := 0; v < 5; v++ {
		side[v] = true
	}
	if got, want := sp.CutValue(side), ExactCutValue(g, side); got != want {
		t.Fatalf("cut %v != %v", got, want)
	}
}

// Exhaustive check on a small dense graph with forced sampling: all 2^n
// cuts within (1±ε') for a slack ε' (statistical, fixed seed).
func TestSparsifierAllCutsSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 12
	g := graph.Complete(n)
	// Force genuine sampling: rho=4 samples deep-forest edges.
	sp, err := Build(g, 0.5, rng, Options{Rho: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Edges) >= g.M() {
		t.Fatalf("no sampling happened: %d edges", len(sp.Edges))
	}
	worst := 0.0
	side := make([]bool, n)
	for mask := 1; mask < 1<<(n-1); mask++ {
		for v := 0; v < n; v++ {
			side[v] = mask&(1<<v) != 0
		}
		exact := ExactCutValue(g, side)
		approx := sp.CutValue(side)
		rel := math.Abs(approx-exact) / exact
		if rel > worst {
			worst = rel
		}
	}
	// Fixed-seed statistical bound: with rho=4 the deviation stays well
	// below 60% on K12 (the theorem needs larger rho for 1±ε; this test
	// certifies the estimator is unbiased-ish and bounded, the
	// exactness path is covered above).
	if worst > 0.6 {
		t.Fatalf("worst relative cut error %.2f too large", worst)
	}
}

func TestSparsifierSizeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.Complete(60) // m = 1770, ~30 NI forests of ~59 edges
	eps := 0.3
	sp, err := Build(g, eps, rng, Options{Rho: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Forests beyond index 4 are sampled at rate 4/i; the expected size is
	// ≈ 4·59·(1+ln(30/4)) ≈ 700 ≪ m.
	if len(sp.Edges) >= 2*g.M()/3 {
		t.Fatalf("sparsifier too dense: %d of %d", len(sp.Edges), g.M())
	}
}

func TestApproxCutsTheorem9(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.Grid(10, 2)
	net, err := hybrid.New(g, hybrid.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sp, res, err := ApproxCuts(net, 0.5, rng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SparsifierEdges != len(sp.Edges) {
		t.Fatal("edge count mismatch")
	}
	if res.Rounds <= 0 {
		t.Fatal("no rounds recorded")
	}
	// eÕ(NQ_n/ε + 1/ε²) envelope.
	p := net.PLog()
	budget := 64 * (res.NQ + 1) * p * p * p * 4
	if res.Rounds > budget {
		t.Fatalf("rounds=%d exceed envelope %d", res.Rounds, budget)
	}
	// The broadcast sparsifier answers a few cuts correctly (p_e=1 regime).
	side := make([]bool, g.N())
	for v := 0; v < g.N()/2; v++ {
		side[v] = true
	}
	exact := ExactCutValue(g, side)
	approx := sp.CutValue(side)
	if math.Abs(approx-exact)/exact > 0.5 {
		t.Fatalf("cut estimate %v too far from %v", approx, exact)
	}
}
