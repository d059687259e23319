package broadcast

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/nq"
)

func newNet(t *testing.T, g *graph.Graph) *hybrid.Net {
	t.Helper()
	net, err := hybrid.New(g, hybrid.Config{Variant: hybrid.VariantHybrid0})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// envelope returns the eÕ(NQ_k) round budget tests enforce:
// c·(NQ_k+1)·⌈log n⌉³ with a generous constant.
func envelope(net *hybrid.Net, q int) int {
	p := net.PLog()
	return 64 * (q + 1) * p * p * p
}

func TestDisseminateValidation(t *testing.T) {
	net := newNet(t, graph.Path(8))
	if _, err := Disseminate(net, []int{1, 2}); err == nil {
		t.Fatal("short tokensAt accepted")
	}
	if _, err := Disseminate(net, []int{1, -1, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("negative token count accepted")
	}
}

func TestDisseminateZeroTokens(t *testing.T) {
	net := newNet(t, graph.Path(16))
	res, err := Disseminate(net, make([]int, 16))
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 0 {
		t.Fatalf("K=%d", res.K)
	}
}

func TestDisseminateSmallKFastPath(t *testing.T) {
	net := newNet(t, graph.Path(128))
	tokens := make([]int, 128)
	tokens[0] = 3 // k=3 ≤ plog² = 49
	res, err := Disseminate(net, tokens)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 0 {
		t.Fatalf("fast path built %d clusters", res.Clusters)
	}
	p := net.PLog()
	if res.Rounds > 10*p*p {
		t.Fatalf("small-k cost %d > eÕ(1)", res.Rounds)
	}
}

func TestDisseminateUniversalBudget(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		kOf  func(n int) int
	}{
		{"path-k=n", graph.Path(256), func(n int) int { return n }},
		{"grid-k=n", graph.Grid(16, 2), func(n int) int { return n }},
		{"grid-k=4n", graph.Grid(16, 2), func(n int) int { return 4 * n }},
		{"cycle-k=n", graph.Cycle(200), func(n int) int { return n }},
		{"ringofcliques", graph.RingOfCliques(16, 16), func(n int) int { return n }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.g.N()
			k := tc.kOf(n)
			net := newNet(t, tc.g)
			// Adversarial placement: all tokens at node 0.
			tokens := make([]int, n)
			tokens[0] = k
			res, err := Disseminate(net, tokens)
			if err != nil {
				t.Fatal(err)
			}
			want, err := nq.Of(tc.g, k)
			if err != nil {
				t.Fatal(err)
			}
			if res.NQ != want {
				t.Fatalf("NQ=%d, want %d", res.NQ, want)
			}
			if res.Rounds > envelope(net, res.NQ) {
				t.Fatalf("rounds=%d exceeds eÕ(NQ_k)=%d budget (NQ=%d)", res.Rounds, envelope(net, res.NQ), res.NQ)
			}
		})
	}
}

// Theorem 1 is independent of the token distribution: spreading the same k
// tokens adversarially or uniformly must stay within the same envelope.
func TestDisseminateDistributionIndependence(t *testing.T) {
	g := graph.Grid(16, 2)
	n := g.N()
	k := n
	rng := rand.New(rand.NewSource(5))

	placements := map[string][]int{
		"all-at-corner": func() []int { tk := make([]int, n); tk[0] = k; return tk }(),
		"uniform": func() []int {
			tk := make([]int, n)
			for i := range tk {
				tk[i] = 1
			}
			return tk
		}(),
		"random": func() []int {
			tk := make([]int, n)
			for i := 0; i < k; i++ {
				tk[rng.Intn(n)]++
			}
			return tk
		}(),
	}
	var rounds []int
	for name, tk := range placements {
		net := newNet(t, g)
		res, err := Disseminate(net, tk)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rounds = append(rounds, res.Rounds)
	}
	for i := 1; i < len(rounds); i++ {
		ratio := float64(rounds[i]) / float64(rounds[0])
		if ratio > 4 || ratio < 0.25 {
			t.Fatalf("round counts vary too much across distributions: %v", rounds)
		}
	}
}

// On 2-d grids dissemination must scale like k^{1/3}, far below the √k
// existential bound (Theorem 16 + Theorem 1).
func TestDisseminateGridScalesLikeNQ(t *testing.T) {
	g := graph.Grid(24, 2) // n = 576
	prevRounds := 0
	// Both k values sit above the plog² fast-path threshold, so both runs
	// use the full Theorem 1 cluster pipeline.
	for _, k := range []int{512, 4096} {
		net := newNet(t, g)
		tokens := make([]int, g.N())
		for i := 0; i < k; i++ {
			tokens[i%g.N()]++
		}
		res, err := Disseminate(net, tokens)
		if err != nil {
			t.Fatal(err)
		}
		if prevRounds > 0 {
			growth := float64(res.Rounds) / float64(prevRounds)
			// k grew 8×: NQ_k grows 8^{1/3}=2; √k would grow 2.83.
			if growth > 3.5 {
				t.Fatalf("rounds grew %.2f× for 8× tokens; NQ-scaling violated", growth)
			}
		}
		prevRounds = res.Rounds
	}
}

func TestAggregateCorrectness(t *testing.T) {
	g := graph.Grid(8, 2)
	n := g.N()
	k := 70 // above the plog² fast-path threshold (plog=6 → 36)
	net := newNet(t, g)
	values := make([][]int64, n)
	for v := range values {
		values[v] = make([]int64, k)
		for i := range values[v] {
			values[v][i] = int64(v + i)
		}
	}
	sum := func(a, b int64) int64 { return a + b }
	got, res, err := Aggregate(net, k, values, sum)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters == 0 {
		t.Fatal("expected clustering path for k=70")
	}
	for i := 0; i < k; i++ {
		var want int64
		for v := 0; v < n; v++ {
			want += int64(v + i)
		}
		if got[i] != want {
			t.Fatalf("aggregate[%d]=%d, want %d", i, got[i], want)
		}
	}
	if res.Rounds > envelope(net, res.NQ) {
		t.Fatalf("aggregation rounds=%d exceed budget", res.Rounds)
	}
}

func TestAggregateSmallKFastPathCorrect(t *testing.T) {
	g := graph.Path(64)
	net := newNet(t, g)
	k := 4
	values := make([][]int64, 64)
	for v := range values {
		values[v] = []int64{int64(v), int64(-v), 1, int64(v % 3)}
	}
	minF := func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	}
	got, _, err := Aggregate(net, k, values, minF)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, -63, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("min aggregate[%d]=%d, want %d", i, got[i], want[i])
		}
	}
}

func TestAggregateCostOnly(t *testing.T) {
	net := newNet(t, graph.Grid(12, 2))
	vals, res, err := Aggregate(net, 200, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vals != nil {
		t.Fatal("cost-only mode returned values")
	}
	if res.Rounds == 0 {
		t.Fatal("cost-only aggregation consumed no rounds")
	}
}

func TestAggregateValidation(t *testing.T) {
	net := newNet(t, graph.Path(8))
	if _, _, err := Aggregate(net, 0, nil, nil); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, _, err := Aggregate(net, 2, make([][]int64, 3), func(a, b int64) int64 { return a }); err == nil {
		t.Fatal("wrong row count accepted")
	}
	bad := make([][]int64, 8)
	for i := range bad {
		bad[i] = make([]int64, 1)
	}
	if _, _, err := Aggregate(net, 2, bad, func(a, b int64) int64 { return a }); err == nil {
		t.Fatal("wrong column count accepted")
	}
	good := make([][]int64, 8)
	for i := range good {
		good[i] = make([]int64, 2)
	}
	if _, _, err := Aggregate(net, 2, good, nil); err == nil {
		t.Fatal("nil func with values accepted")
	}
}

// Corollary 2.1: one BCC round costs eÕ(NQ_n).
func TestSimulateBCCRound(t *testing.T) {
	g := graph.Grid(16, 2)
	net := newNet(t, g)
	res, err := SimulateBCCRound(net)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != g.N() {
		t.Fatalf("BCC round broadcast %d tokens, want n=%d", res.K, g.N())
	}
	if res.Rounds > envelope(net, res.NQ) {
		t.Fatalf("BCC round cost %d exceeds eÕ(NQ_n)", res.Rounds)
	}
}

// The universal algorithm must never be asymptotically slower than the
// existential eÕ(√k) bound (Lemma 3.6: NQ_k ≤ √k).
func TestNeverWorseThanSqrtK(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Path(400), graph.Grid(20, 2)} {
		k := g.N()
		net := newNet(t, g)
		tokens := make([]int, g.N())
		tokens[0] = k
		res, err := Disseminate(net, tokens)
		if err != nil {
			t.Fatal(err)
		}
		p := net.PLog()
		bound := 64 * (int(math.Sqrt(float64(k))) + 1) * p * p * p
		if res.Rounds > bound {
			t.Fatalf("rounds=%d exceed eÕ(√k)=%d", res.Rounds, bound)
		}
	}
}

// TestCertifyFullSet: a full token set passes; a set missing one token
// fails naming that token and the count it holds, across word
// boundaries.
func TestCertifyFullSet(t *testing.T) {
	for _, k := range []int{1, 63, 64, 65, 200} {
		s := bitset.New(k)
		s.Fill()
		if _, held, ok := certifyFullSet(s, k); !ok || held != k {
			t.Fatalf("k=%d: full set failed (held %d)", k, held)
		}
		for _, gone := range []int{0, k / 2, k - 1} {
			s.Fill()
			s.Remove(gone)
			missing, held, ok := certifyFullSet(s, k)
			if ok || missing != gone || held != k-1 {
				t.Fatalf("k=%d without %d: ok=%v missing=%d held=%d, want false %d %d", k, gone, ok, missing, held, gone, k-1)
			}
		}
	}
}
