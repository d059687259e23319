package cuts

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/hybrid"
)

func TestNIForestIndices(t *testing.T) {
	// Cycle: first forest takes n-1 edges, the closing edge lands in forest 2.
	g := graph.Cycle(6)
	idx := NIForestIndices(g)
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
	for _, i := range NIForestIndices(k) {
		if i < 1 || i > 5 {
			t.Fatalf("K6 forest index %d out of [1,5]", i)
		}
	}
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
