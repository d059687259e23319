package sssp_test

// Differential-oracle suite for the SSSP substrates: on every family in
// the default sweep set, two sizes, three seeds, the HYBRID algorithms
// are checked against the independent sequential oracle
// (internal/oracle), and runs with and without distance values are
// checked to be the same run. Runs clean under -race.

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/oracle"
	"repro/internal/sssp"
)

// TestApproxAgainstOracle: Theorem 13 estimates must satisfy
// d ≤ d̃ ≤ (1+ε)·d against the oracle's Dijkstra on weighted builds of
// every family.
func TestApproxAgainstOracle(t *testing.T) {
	const eps = 0.25
	for _, f := range graph.Families() {
		for _, n := range []int{24, 48} {
			for seed := int64(1); seed <= 3; seed++ {
				g, err := graph.Build(f, n, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("%s/n=%d/seed=%d: %v", f, n, seed, err)
				}
				wg := graph.RandomWeights(g, 30, rand.New(rand.NewSource(seed+100)))
				net, err := hybrid.New(wg, hybrid.Config{Seed: seed})
				if err != nil {
					t.Fatalf("%s/n=%d/seed=%d: %v", f, n, seed, err)
				}
				src := int(seed) % wg.N()
				est, err := sssp.Approx(net, src, eps)
				if err != nil {
					t.Fatalf("%s/n=%d/seed=%d: Approx: %v", f, n, seed, err)
				}
				exact := oracle.Dijkstra(wg, src)
				if err := sssp.VerifyStretch(exact, est, 1+eps); err != nil {
					t.Fatalf("%s/n=%d/seed=%d: %v", f, n, seed, err)
				}
			}
		}
	}
}

// TestExactBFSAgainstOracle: the engine-driven distributed BFS must
// reproduce the oracle's hop distances exactly on every family, and its
// round count must be bounded below by the source eccentricity.
func TestExactBFSAgainstOracle(t *testing.T) {
	for _, f := range graph.Families() {
		for _, n := range []int{24, 48} {
			for seed := int64(1); seed <= 3; seed++ {
				g, err := graph.Build(f, n, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("%s/n=%d/seed=%d: %v", f, n, seed, err)
				}
				net, err := hybrid.New(g, hybrid.Config{Seed: seed})
				if err != nil {
					t.Fatalf("%s/n=%d/seed=%d: %v", f, n, seed, err)
				}
				src := (int(seed) * 7) % g.N()
				dist, err := sssp.ExactBFS(net, src)
				if err != nil {
					t.Fatalf("%s/n=%d/seed=%d: ExactBFS: %v", f, n, seed, err)
				}
				want := oracle.BFS(g, src)
				for v := range want {
					if dist[v] != want[v] {
						t.Fatalf("%s/n=%d/seed=%d: node %d: ExactBFS %d, oracle %d",
							f, n, seed, v, dist[v], want[v])
					}
				}
				if ecc := oracle.Eccentricities(g)[src]; int64(net.Rounds()) < ecc {
					t.Fatalf("%s/n=%d/seed=%d: %d rounds beat the eccentricity %d",
						f, n, seed, net.Rounds(), ecc)
				}
			}
		}
	}
}

// TestKSSPValuesDoNotChangeTheRun: in every Theorem 14 regime a run
// without values must make exactly the run with values — the same
// result, audit, stats and rounds, and the same rng state afterwards —
// and return a nil matrix. Value materialization draws nothing from the
// rng and charges nothing.
func TestKSSPValuesDoNotChangeTheRun(t *testing.T) {
	block := make([]int, 30) // arbitrary sources, k > γ
	for i := range block {
		block[i] = i
	}
	cases := []struct {
		name    string
		g       *graph.Graph
		sources []int
		random  bool
		regime  sssp.Regime
	}{
		{"parallel", graph.Grid(10, 2), []int{0, 5, 17}, false, sssp.RegimeParallel},
		{"large-k", graph.Grid(8, 2), rand.New(rand.NewSource(5)).Perm(64)[:20], true, sssp.RegimeLargeK},
		{"random-skeleton", graph.Path(300), rand.New(rand.NewSource(3)).Perm(300)[:40], true, sssp.RegimeRandomSkeleton},
		{"arbitrary-proxy", graph.Path(300), block, false, sssp.RegimeArbitraryProxy},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			type run struct {
				dist [][]int64
				res  *sssp.KSSPResult
				net  *hybrid.Net
				next int64
			}
			do := func(wantValues bool) run {
				net, err := hybrid.New(c.g, hybrid.Config{})
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(11))
				dist, res, err := sssp.KSSP(net, c.sources, 0.5, c.random, rng, wantValues)
				if err != nil {
					t.Fatal(err)
				}
				return run{dist, res, net, rng.Int63()}
			}
			with, without := do(true), do(false)
			if with.res.Regime != c.regime {
				t.Fatalf("regime %v, want %v", with.res.Regime, c.regime)
			}
			if len(with.dist) != len(c.sources) {
				t.Fatalf("with values: %d rows for %d sources", len(with.dist), len(c.sources))
			}
			if without.dist != nil {
				t.Fatalf("without values: dist has %d rows, want nil", len(without.dist))
			}
			if *with.res != *without.res {
				t.Fatalf("result %+v with values, %+v without", *with.res, *without.res)
			}
			if !slices.Equal(with.net.Audit(), without.net.Audit()) {
				t.Fatalf("audit differs:\n%s\nvs\n%s", with.net.FormatAudit(), without.net.FormatAudit())
			}
			if with.net.Stats() != without.net.Stats() || with.net.Rounds() != without.net.Rounds() {
				t.Fatalf("stats/rounds %+v/%d with values, %+v/%d without",
					with.net.Stats(), with.net.Rounds(), without.net.Stats(), without.net.Rounds())
			}
			if with.next != without.next {
				t.Fatalf("next rng draw %d with values, %d without", with.next, without.next)
			}
		})
	}
}
