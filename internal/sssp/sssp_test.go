package sssp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/hybrid"
)

func newNet(t *testing.T, g *graph.Graph) *hybrid.Net {
	t.Helper()
	net, err := hybrid.New(g, hybrid.Config{Variant: hybrid.VariantHybrid0})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestQuantizeUp(t *testing.T) {
	if QuantizeUp(0, 0.5) != 0 {
		t.Fatal("quantize(0) != 0")
	}
	if QuantizeUp(graph.Inf, 0.5) != graph.Inf {
		t.Fatal("quantize(Inf) != Inf")
	}
	for _, eps := range []float64{0.1, 0.25, 0.5, 1.0} {
		for d := int64(1); d < 100000; d = d*3/2 + 1 {
			q := QuantizeUp(d, eps)
			if q < d {
				t.Fatalf("quantize(%d, %v)=%d underestimates", d, eps, q)
			}
			if float64(q) > (1+eps)*float64(d)+1 {
				t.Fatalf("quantize(%d, %v)=%d exceeds (1+eps)d", d, eps, q)
			}
		}
	}
}

func TestQuantizeUpQuick(t *testing.T) {
	f := func(raw int64, e uint8) bool {
		d := raw % (1 << 40)
		if d < 0 {
			d = -d
		}
		eps := 0.05 + float64(e%100)/100
		q := QuantizeUp(d, eps)
		return q >= d && float64(q) <= (1+eps)*float64(d)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestApproxValidation(t *testing.T) {
	net := newNet(t, graph.Path(8))
	if _, err := Approx(net, -1, 0.5); err == nil {
		t.Fatal("bad source accepted")
	}
	if _, err := Approx(net, 0, 0); err == nil {
		t.Fatal("eps=0 accepted")
	}
}

func TestApproxStretchAndCost(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := graph.RandomWeights(graph.Grid(12, 2), 40, rng)
	for _, eps := range []float64{0.5, 0.25} {
		net := newNet(t, g)
		est, err := Approx(net, 0, eps)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyStretch(g.Dijkstra(0), est, 1+eps); err != nil {
			t.Fatal(err)
		}
		// Theorem 13: eÕ(1/ε²), independent of n beyond polylog.
		want := net.PLog() * net.PLog() * int(math.Ceil(1/(eps*eps)))
		if net.Rounds() != want {
			t.Fatalf("rounds=%d, want charged %d", net.Rounds(), want)
		}
	}
}

// TestTheorem13RoundsFormula checks the charge of one Approx run,
// ⌈log₂ n⌉²·⌈1/ε²⌉, at ⌈log₂ n⌉ = 8.
func TestTheorem13RoundsFormula(t *testing.T) {
	for _, c := range []struct {
		eps  float64
		want int
	}{{0.5, 8 * 8 * 4}, {0.3, 8 * 8 * 12}, {1, 8 * 8}, {2, 8 * 8}} {
		net := newNet(t, graph.Path(200))
		if _, err := Approx(net, 0, c.eps); err != nil {
			t.Fatal(err)
		}
		if net.Rounds() != c.want {
			t.Errorf("eps=%v: rounds=%d, want %d", c.eps, net.Rounds(), c.want)
		}
	}
}

func TestExactBFS(t *testing.T) {
	net := newNet(t, graph.Path(30))
	d, err := ExactBFS(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d[29] != 29 {
		t.Fatalf("d[29]=%d", d[29])
	}
	// Eccentricity of node 0 plus the quiescence-detection round.
	if r := net.Rounds(); r < 29 || r > 31 {
		t.Fatalf("BFS rounds=%d, want ≈29", r)
	}
	if _, err := ExactBFS(net, 99); err == nil {
		t.Fatal("bad source accepted")
	}
}

func TestVerifyStretchHelper(t *testing.T) {
	if err := VerifyStretch([]int64{1, 2}, []int64{1}, 2); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := VerifyStretch([]int64{4}, []int64{3}, 2); err == nil {
		t.Fatal("underestimate accepted")
	}
	if err := VerifyStretch([]int64{4}, []int64{9}, 2); err == nil {
		t.Fatal("overestimate accepted")
	}
	if err := VerifyStretch([]int64{graph.Inf}, []int64{5}, 2); err == nil {
		t.Fatal("reachability mismatch accepted")
	}
	if err := VerifyStretch([]int64{4, graph.Inf}, []int64{8, graph.Inf}, 2); err != nil {
		t.Fatal(err)
	}
}

func TestMinorAggregationRound(t *testing.T) {
	g := graph.Path(6)
	net := newNet(t, g)
	ma := NewMinorAggregation(net)
	edges := g.Edges() // 5 path edges
	contract := make([]bool, len(edges))
	// Contract the first two edges: supernode {0,1,2}; rest singletons.
	contract[0], contract[1] = true, true
	value := []int64{1, 2, 3, 4, 5, 6}
	sum := func(a, b int64) int64 { return a + b }
	super, consensus, err := ma.Round(contract, value, sum)
	if err != nil {
		t.Fatal(err)
	}
	if super[0] != super[1] || super[1] != super[2] {
		t.Fatal("contracted nodes in different supernodes")
	}
	if super[3] == super[0] {
		t.Fatal("uncontracted node merged")
	}
	if consensus[super[0]] != 6 {
		t.Fatalf("consensus of supernode {0,1,2} = %d, want 6", consensus[super[0]])
	}
	if consensus[super[5]] != 6 {
		t.Fatalf("singleton consensus = %d, want 6", consensus[super[5]])
	}
	// Lemma 8.2 charge.
	_, charged := net.RoundsByKind()
	p := net.PLog()
	if charged != p*p {
		t.Fatalf("charged=%d", charged)
	}
}

func TestMinorAggregationValidation(t *testing.T) {
	net := newNet(t, graph.Path(4))
	ma := NewMinorAggregation(net)
	if _, _, err := ma.Round([]bool{true}, make([]int64, 4), func(a, b int64) int64 { return a }); err == nil {
		t.Fatal("short contract accepted")
	}
	if _, _, err := ma.Round(make([]bool, 3), make([]int64, 2), func(a, b int64) int64 { return a }); err == nil {
		t.Fatal("short values accepted")
	}
	if _, _, err := ma.Round(make([]bool, 3), make([]int64, 4), nil); err == nil {
		t.Fatal("nil combine accepted")
	}
}

func TestEulerianOrientationCycle(t *testing.T) {
	g := graph.Cycle(7)
	orient, err := EulerianOrientation(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyEulerian(g, orient); err != nil {
		t.Fatal(err)
	}
}

func TestEulerianOrientationRejectsOddDegree(t *testing.T) {
	if _, err := EulerianOrientation(graph.Path(4)); err == nil {
		t.Fatal("odd-degree graph accepted")
	}
}

func TestEulerianOrientationEvenGraphsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Build an Eulerian graph as a union of random edge-disjoint cycles.
		n := 6 + rng.Intn(20)
		b := graph.NewBuilder(n)
		for c := 0; c < 3; c++ {
			perm := rng.Perm(n)
			size := 3 + rng.Intn(n-3)
			cycle := perm[:size]
			ok := true
			for i := range cycle {
				u, v := cycle[i], cycle[(i+1)%size]
				if b.HasEdge(u, v) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for i := range cycle {
				if err := b.AddEdge(cycle[i], cycle[(i+1)%size], 1); err != nil {
					return false
				}
			}
		}
		g := b.Build()
		orient, err := EulerianOrientation(g)
		if err != nil {
			return false
		}
		return VerifyEulerian(g, orient) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOracleEulerCharges(t *testing.T) {
	net := newNet(t, graph.Path(16))
	h := graph.Cycle(8)
	orient, err := OracleEuler(net, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyEulerian(h, orient); err != nil {
		t.Fatal(err)
	}
	if net.Rounds() == 0 {
		t.Fatal("oracle consumed no rounds")
	}
}

func TestKSSPValidation(t *testing.T) {
	net := newNet(t, graph.Path(16))
	rng := rand.New(rand.NewSource(1))
	if _, _, err := KSSP(net, nil, 0.5, false, rng, false); err == nil {
		t.Fatal("no sources accepted")
	}
	if _, _, err := KSSP(net, []int{0}, 0, false, rng, false); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, _, err := KSSP(net, []int{99}, 0.5, false, rng, false); err == nil {
		t.Fatal("bad source accepted")
	}
}

func TestKSSPParallelRegime(t *testing.T) {
	g := graph.Grid(10, 2)
	net := newNet(t, g)
	rng := rand.New(rand.NewSource(2))
	sources := []int{0, 5, 17} // k=3 ≤ γ
	dist, res, err := KSSP(net, sources, 0.25, false, rng, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regime != RegimeParallel {
		t.Fatalf("regime=%v", res.Regime)
	}
	for i, s := range sources {
		if err := VerifyStretch(g.Dijkstra(s), dist[i], res.Stretch); err != nil {
			t.Fatal(err)
		}
	}
	// eÕ(1/ε²): no dependence on k beyond the single charge.
	if res.Rounds != net.PLog()*net.PLog()*16 {
		t.Fatalf("rounds=%d", res.Rounds)
	}
}

func TestKSSPRandomSkeletonRegime(t *testing.T) {
	g := graph.Path(300)
	net := newNet(t, g)
	rng := rand.New(rand.NewSource(3))
	// k > γ random sources, k < n^{2/3} ≈ 45.
	k := 40
	var sources []int
	for len(sources) < k {
		s := rng.Intn(g.N())
		sources = append(sources, s)
	}
	dist, res, err := KSSP(net, sources, 0.5, true, rng, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regime != RegimeRandomSkeleton {
		t.Fatalf("regime=%v", res.Regime)
	}
	for i, s := range sources {
		if err := VerifyStretch(g.Dijkstra(s), dist[i], res.Stretch); err != nil {
			t.Fatal(err)
		}
	}
	// eÕ(√(k/γ)/ε²) budget.
	p := net.PLog()
	budget := 16 * int(math.Sqrt(float64(k)/float64(net.Cap()))+1) * p * p * p * 4
	if res.Rounds > budget {
		t.Fatalf("rounds=%d exceed eÕ(√(k/γ)/ε²)=%d", res.Rounds, budget)
	}
}

func TestKSSPArbitraryProxyRegime(t *testing.T) {
	g := graph.Path(300)
	net := newNet(t, g)
	rng := rand.New(rand.NewSource(4))
	// Arbitrary adversarial sources: a contiguous block, k > γ.
	k := 30
	sources := make([]int, k)
	for i := range sources {
		sources[i] = i
	}
	dist, res, err := KSSP(net, sources, 0.25, false, rng, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regime != RegimeArbitraryProxy {
		t.Fatalf("regime=%v", res.Regime)
	}
	if res.Stretch < 3 {
		t.Fatalf("stretch=%v, want ≥ 3", res.Stretch)
	}
	for i, s := range sources {
		if err := VerifyStretch(g.Dijkstra(s), dist[i], res.Stretch); err != nil {
			t.Fatalf("source %d: %v", s, err)
		}
	}
}

func TestKSSPLargeKRegime(t *testing.T) {
	g := graph.Grid(8, 2) // n=64, n^{2/3}=16
	net := newNet(t, g)
	rng := rand.New(rand.NewSource(5))
	k := 20
	sources := rng.Perm(g.N())[:k]
	dist, res, err := KSSP(net, sources, 0.5, true, rng, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regime != RegimeLargeK {
		t.Fatalf("regime=%v", res.Regime)
	}
	for i, s := range sources {
		if err := VerifyStretch(g.Dijkstra(s), dist[i], res.Stretch); err != nil {
			t.Fatal(err)
		}
	}
}
