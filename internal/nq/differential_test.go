package nq_test

// Differential-oracle suite for the batched ball-profile kernel
// (DESIGN.md §10): profile-served NQ_k, eccentricities and the
// diameter are checked against the independent sequential oracle on
// every default family, two sizes, three seeds — and the assembled
// artifact must be byte-identical at 1 and 8 kernel workers. Runs
// clean under -race, which exercises the parallel kernel's chunk
// claiming and the concurrent profile attachment.

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/nq"
	"repro/internal/oracle"
)

func buildGraph(t *testing.T, f graph.Family, n int, seed int64) *graph.Graph {
	t.Helper()
	g, err := graph.Build(f, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("%s/n=%d/seed=%d: %v", f, n, seed, err)
	}
	return g
}

// TestBallProfilesAgainstOracle: a full-depth profile must reproduce
// the oracle's eccentricities and diameter exactly, and its per-radius
// ball sizes must match the oracle's counting BFS for every node.
func TestBallProfilesAgainstOracle(t *testing.T) {
	for _, f := range graph.Families() {
		for _, n := range []int{24, 40} {
			for seed := int64(1); seed <= 3; seed++ {
				g := buildGraph(t, f, n, seed)
				p := g.BallProfiles(g.N())
				if !p.Complete() {
					t.Fatalf("%s/n=%d/seed=%d: full-depth profile incomplete", f, n, seed)
				}
				wantEcc := oracle.Eccentricities(g)
				for v := 0; v < g.N(); v++ {
					if p.Eccentricities()[v] != wantEcc[v] {
						t.Fatalf("%s/n=%d/seed=%d: ecc(%d)=%d, oracle %d", f, n, seed, v, p.Eccentricities()[v], wantEcc[v])
					}
				}
				diam, ok := p.Diameter()
				if want := oracle.Diameter(g); !ok || diam != want {
					t.Fatalf("%s/n=%d/seed=%d: profile diameter %d (ok=%v), oracle %d", f, n, seed, diam, ok, want)
				}
				for _, v := range []int{0, g.N() / 2, g.N() - 1} {
					maxT := 6
					sizes := oracle.BallSizes(g, v, maxT)
					for tt := 0; tt <= maxT; tt++ {
						if got := p.Size(v, tt); got != sizes[tt] {
							t.Fatalf("%s/n=%d/seed=%d: |B_%d(%d)|=%d, oracle %d", f, n, seed, tt, v, got, sizes[tt])
						}
					}
				}
			}
		}
	}
}

// TestProfileNQAgainstOracle: both evaluation paths — early-exit
// kernel (no profile attached) and profile binary search — must agree
// with the oracle's Definition 3.1 counting on every node, for
// workloads spanning the fast path, the √k regime, and the D cap.
func TestProfileNQAgainstOracle(t *testing.T) {
	for _, f := range graph.Families() {
		for _, n := range []int{24, 40} {
			for seed := int64(1); seed <= 3; seed++ {
				g := buildGraph(t, f, n, seed)
				profiled := buildGraph(t, f, n, seed)
				profiled.AttachProfiles(
					profiled.BallProfiles(graph.ProfileRadius(profiled.N(), profiled.Diameter())))
				for _, k := range []int{1, 5, n, 4 * n, 12 * n} {
					wantPer, wantNQ, err := oracle.NQPerNode(g, k)
					if err != nil {
						t.Fatalf("%s/n=%d/seed=%d k=%d: oracle: %v", f, n, seed, k, err)
					}
					for name, gg := range map[string]*graph.Graph{"kernel": g, "profile": profiled} {
						per, q, err := nq.PerNode(gg, k)
						if err != nil {
							t.Fatalf("%s/n=%d/seed=%d k=%d (%s): %v", f, n, seed, k, name, err)
						}
						if q != wantNQ {
							t.Fatalf("%s/n=%d/seed=%d k=%d (%s): NQ=%d, oracle %d", f, n, seed, k, name, q, wantNQ)
						}
						for v := range per {
							if per[v] != wantPer[v] {
								t.Fatalf("%s/n=%d/seed=%d k=%d (%s): NQ(%d)=%d, oracle %d",
									f, n, seed, k, name, v, per[v], wantPer[v])
							}
						}
						if w, qw, err := nq.Witness(gg, k); err != nil || qw != wantNQ || wantPer[w] != wantNQ {
							t.Fatalf("%s/n=%d/seed=%d k=%d (%s): witness (%d,%d), err=%v, oracle max %d",
								f, n, seed, k, name, w, qw, err, wantNQ)
						}
					}
				}
			}
		}
	}
}

// TestBallProfilesWorkerDeterminism: the assembled artifact — down to
// its encoded bytes — must not depend on the kernel's worker count,
// for both full and canonically truncated radii.
func TestBallProfilesWorkerDeterminism(t *testing.T) {
	for _, f := range graph.Families() {
		for _, n := range []int{24, 40} {
			for seed := int64(1); seed <= 3; seed++ {
				g := buildGraph(t, f, n, seed)
				for _, maxR := range []int{graph.ProfileRadius(g.N(), g.Diameter()), g.N()} {
					one := graph.EncodeProfiles(g.BallProfilesWorkers(maxR, 1))
					eight := graph.EncodeProfiles(g.BallProfilesWorkers(maxR, 8))
					if !bytes.Equal(one, eight) {
						t.Fatalf("%s/n=%d/seed=%d maxR=%d: profile bytes differ between 1 and 8 workers",
							f, n, seed, maxR)
					}
				}
			}
		}
	}
}

// TestConcurrentProfileQueries hammers one shared graph instance with
// concurrent attachers and NQ readers — the sweep-cell access pattern
// — and checks every answer against the oracle (meaningful under
// -race: attachment is an atomic upgrade on the shared instance).
func TestConcurrentProfileQueries(t *testing.T) {
	g := buildGraph(t, graph.FamilyGrid2D, 49, 1)
	wantPer, wantNQ, err := oracle.NQPerNode(g, 64)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				g.AttachProfiles(g.BallProfiles(graph.ProfileRadius(g.N(), g.Diameter())))
			}
			per, q, err := nq.PerNode(g, 64)
			if err != nil {
				t.Error(err)
				return
			}
			if q != wantNQ {
				t.Errorf("worker %d: NQ=%d, oracle %d", w, q, wantNQ)
				return
			}
			for v := range per {
				if per[v] != wantPer[v] {
					t.Errorf("worker %d: NQ(%d)=%d, oracle %d", w, v, per[v], wantPer[v])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
