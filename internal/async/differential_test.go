package async_test

// Differential certification of the async backend (DESIGN.md §13): on
// every family in the default sweep set × two sizes × three seeds ×
// {no-fault, 5% loss, 20% loss, churn} fault profiles, the async
// backend's converged outputs must be byte-identical to the synchronous
// engine's (internal/hybrid driving sssp/broadcast) and the sequential
// oracle's (internal/oracle). Replay is certified by
// TestDigestIdenticalAcrossWorkers and the pinned reports of
// TestReportsGolden.

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/async"
	"repro/internal/bitset"
	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/oracle"
	"repro/internal/sssp"
)

// faultMatrix is the certification fault matrix from ISSUE/DESIGN.md
// §13: fault-free, light and heavy i.i.d. loss, and node churn.
var faultMatrix = []struct {
	name string
	f    async.Faults
}{
	{"none", async.Faults{}},
	{"loss05", async.LossProfile(0.05)},
	{"loss20", async.LossProfile(0.20)},
	{"churn", async.ChurnProfile(0.30)},
}

// forEachCell runs fn over the full certification matrix: 11 families ×
// {24, 48} × seeds 1..3.
func forEachCell(t *testing.T, fn func(t *testing.T, f graph.Family, n int, seed int64, g *graph.Graph)) {
	t.Helper()
	for _, f := range graph.Families() {
		for _, n := range []int{24, 48} {
			for seed := int64(1); seed <= 3; seed++ {
				g, err := graph.Build(f, n, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("%s/n=%d/seed=%d: %v", f, n, seed, err)
				}
				fn(t, f, n, seed, g)
			}
		}
	}
}

// TestDifferentialBFS: async hop distances must be byte-identical to
// both the synchronous engine's ExactBFS and the oracle's BFS under
// every fault profile.
func TestDifferentialBFS(t *testing.T) {
	forEachCell(t, func(t *testing.T, f graph.Family, n int, seed int64, g *graph.Graph) {
		src := (int(seed) * 7) % g.N()
		want := oracle.BFS(g, src)
		net, err := hybrid.New(g, hybrid.Config{Seed: seed})
		if err != nil {
			t.Fatalf("%s/n=%d/seed=%d: %v", f, n, seed, err)
		}
		sync, err := sssp.ExactBFS(net, src)
		if err != nil {
			t.Fatalf("%s/n=%d/seed=%d: ExactBFS: %v", f, n, seed, err)
		}
		if !slices.Equal(sync, want) {
			t.Fatalf("%s/n=%d/seed=%d: sync engine disagrees with oracle", f, n, seed)
		}
		for _, fm := range faultMatrix {
			got, _, err := async.BFS(g, src, async.Options{Seed: seed, Faults: fm.f})
			if err != nil {
				t.Fatalf("%s/n=%d/seed=%d/%s: %v", f, n, seed, fm.name, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s/n=%d/seed=%d/%s: async BFS diverged from oracle", f, n, seed, fm.name)
			}
		}
	})
}

// TestDifferentialApprox: the async Approx pipeline (exact async
// relaxation + QuantizeUp) must be byte-identical to the synchronous
// sssp.Approx and to QuantizeUp over the oracle's Dijkstra.
func TestDifferentialApprox(t *testing.T) {
	const eps = 0.25
	forEachCell(t, func(t *testing.T, f graph.Family, n int, seed int64, g *graph.Graph) {
		wg := graph.RandomWeights(g, 30, rand.New(rand.NewSource(seed+100)))
		src := int(seed) % wg.N()
		net, err := hybrid.New(wg, hybrid.Config{Seed: seed})
		if err != nil {
			t.Fatalf("%s/n=%d/seed=%d: %v", f, n, seed, err)
		}
		sync, err := sssp.Approx(net, src, eps)
		if err != nil {
			t.Fatalf("%s/n=%d/seed=%d: Approx: %v", f, n, seed, err)
		}
		want := oracle.Dijkstra(wg, src)
		for v, d := range want {
			want[v] = sssp.QuantizeUp(d, eps)
		}
		if !slices.Equal(sync, want) {
			t.Fatalf("%s/n=%d/seed=%d: sync Approx disagrees with quantized oracle", f, n, seed)
		}
		for _, fm := range faultMatrix {
			got, _, err := async.Approx(wg, src, eps, async.Options{Seed: seed, Faults: fm.f})
			if err != nil {
				t.Fatalf("%s/n=%d/seed=%d/%s: %v", f, n, seed, fm.name, err)
			}
			if !slices.Equal(got, sync) {
				t.Fatalf("%s/n=%d/seed=%d/%s: async Approx diverged from sync engine", f, n, seed, fm.name)
			}
		}
	})
}

// TestDifferentialDisseminate: async token sets must converge to the
// full k-token set at every node — the certificate the synchronous
// broadcast.Disseminate enforces internally — with the byte encoding
// identical across fault profiles.
func TestDifferentialDisseminate(t *testing.T) {
	forEachCell(t, func(t *testing.T, f graph.Family, n int, seed int64, g *graph.Graph) {
		rng := rand.New(rand.NewSource(seed + 200))
		tokensAt := make([]int, g.N())
		k := 4 + rng.Intn(5)
		for i := 0; i < k; i++ {
			tokensAt[rng.Intn(g.N())]++
		}
		net, err := hybrid.New(g, hybrid.Config{Seed: seed})
		if err != nil {
			t.Fatalf("%s/n=%d/seed=%d: %v", f, n, seed, err)
		}
		res, err := broadcast.Disseminate(net, tokensAt)
		if err != nil {
			t.Fatalf("%s/n=%d/seed=%d: sync Disseminate: %v", f, n, seed, err)
		}
		if res.K != k {
			t.Fatalf("%s/n=%d/seed=%d: sync K=%d want %d", f, n, seed, res.K, k)
		}
		// The sync engine certifies every node holds the full token set;
		// its converged per-node output is therefore k copies of {0..k-1}.
		full := bitset.New(k)
		for i := 0; i < k; i++ {
			full.Add(i)
		}
		want := make([]bitset.Set, g.N())
		for v := range want {
			want[v] = full
		}
		for _, fm := range faultMatrix {
			sets, _, err := async.Disseminate(g, tokensAt, async.Options{Seed: seed, Faults: fm.f})
			if err != nil {
				t.Fatalf("%s/n=%d/seed=%d/%s: %v", f, n, seed, fm.name, err)
			}
			if !slices.EqualFunc(sets, want, sameMembers) {
				t.Fatalf("%s/n=%d/seed=%d/%s: async token sets diverged from sync certificate", f, n, seed, fm.name)
			}
		}
	})
}

// sameMembers reports whether two token sets hold the same members.
func sameMembers(a, b bitset.Set) bool {
	return slices.Equal(a.AppendIndicesRange(nil, 0, a.Len()), b.AppendIndicesRange(nil, 0, b.Len()))
}
