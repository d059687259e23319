package apsp_test

// Differential-oracle suite for the APSP family: Algorithm 3 estimates
// and the Corollary 2.2 exact matrix are checked entrywise against the
// independent sequential oracle on every default family, two sizes,
// three seeds, and (k,ℓ)-SP runs with and without distance values are
// checked to be the same run. Runs clean under -race.

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/oracle"
	"repro/internal/sssp"
)

func buildNet(t *testing.T, f graph.Family, n int, seed int64, weighted bool) (*graph.Graph, *hybrid.Net) {
	t.Helper()
	g, err := graph.Build(f, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("%s/n=%d/seed=%d: %v", f, n, seed, err)
	}
	if weighted {
		g = graph.RandomWeights(g, 20, rand.New(rand.NewSource(seed+100)))
	}
	net, err := hybrid.New(g, hybrid.Config{Seed: seed})
	if err != nil {
		t.Fatalf("%s/n=%d/seed=%d: %v", f, n, seed, err)
	}
	return g, net
}

// TestUnweightedAgainstOracle: the Theorem 6 estimate matrix must be a
// (1+ε)-approximation of the oracle's exact hop distances, row by row.
func TestUnweightedAgainstOracle(t *testing.T) {
	const eps = 0.5
	for _, f := range graph.Families() {
		for _, n := range []int{24, 40} {
			for seed := int64(1); seed <= 3; seed++ {
				g, net := buildNet(t, f, n, seed, false)
				dist, res, err := apsp.Unweighted(net, eps, true)
				if err != nil {
					t.Fatalf("%s/n=%d/seed=%d: Unweighted: %v", f, n, seed, err)
				}
				if res.Stretch > 1+eps {
					t.Fatalf("%s/n=%d/seed=%d: reported stretch %v > %v", f, n, seed, res.Stretch, 1+eps)
				}
				exact := oracle.HopAPSP(g.Unweighted())
				for v := range dist {
					if err := sssp.VerifyStretch(exact[v], dist[v], 1+eps); err != nil {
						t.Fatalf("%s/n=%d/seed=%d: row %d: %v", f, n, seed, v, err)
					}
				}
			}
		}
	}
}

// TestSparseExactAgainstOracle: Corollary 2.2 must reproduce the
// oracle's weighted distance matrix exactly on every family.
func TestSparseExactAgainstOracle(t *testing.T) {
	for _, f := range graph.Families() {
		for _, n := range []int{24, 40} {
			for seed := int64(1); seed <= 3; seed++ {
				g, net := buildNet(t, f, n, seed, true)
				dist, _, err := apsp.SparseExact(net, true)
				if err != nil {
					t.Fatalf("%s/n=%d/seed=%d: SparseExact: %v", f, n, seed, err)
				}
				want := oracle.APSP(g)
				for v := range want {
					for w := range want {
						if dist[v][w] != want[v][w] {
							t.Fatalf("%s/n=%d/seed=%d: d(%d,%d)=%d, oracle %d",
								f, n, seed, v, w, dist[v][w], want[v][w])
						}
					}
				}
			}
		}
	}
}

// TestKLSPValuesDoNotChangeTheRun: in both Theorem 5 cases a run
// without values must make exactly the run with values — the same
// result, audit, stats and rounds, and the same rng state afterwards —
// and return a nil matrix. The random-both case has more targets than
// γ, so its inner k-SSP takes the skeleton regime and draws from the
// rng.
func TestKLSPValuesDoNotChangeTheRun(t *testing.T) {
	weighted := graph.RandomWeights(graph.Grid(12, 2), 6, rand.New(rand.NewSource(53)))
	half := make([]int, weighted.N()/2)
	for i := range half {
		half[i] = i
	}
	perm := rand.New(rand.NewSource(59)).Perm(300)
	cases := []struct {
		name             string
		g                *graph.Graph
		sources, targets []int
		c                apsp.KLSPCase
	}{
		{"arbitrary-sources", weighted, half, []int{7, 80, 131}, apsp.KLSPArbitrarySources},
		{"random-both", graph.Path(300), perm[:30], perm[30:70], apsp.KLSPRandomBoth},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			type run struct {
				dist [][]int64
				res  *apsp.Result
				net  *hybrid.Net
				next int64
			}
			do := func(wantValues bool) run {
				net, err := hybrid.New(c.g, hybrid.Config{})
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(13))
				dist, res, err := apsp.KLSP(net, c.sources, c.targets, 0.5, c.c, rng, wantValues)
				if err != nil {
					t.Fatal(err)
				}
				return run{dist, res, net, rng.Int63()}
			}
			with, without := do(true), do(false)
			if len(with.dist) != len(c.targets) {
				t.Fatalf("with values: %d rows for %d targets", len(with.dist), len(c.targets))
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
