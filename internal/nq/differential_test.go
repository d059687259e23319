package nq_test

// Differential-oracle suite for the batched ball-profile kernel
// (DESIGN.md §10): profile rows, profile-served NQ_k and the diameter
// are checked against the independent sequential oracle on every
// default family, two sizes, three seeds — and the assembled artifact
// must be byte-identical at 1 and 8 kernel workers. Runs clean under
// -race, which exercises the parallel kernel's chunk claiming and the
// concurrent profile attachment.

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
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

// oracleRow returns node v's ball sizes from the oracle's counting
// BFS up to radius maxR, ended where the kernel ends a row: at
// |B_t| = n, one level after the ball stops growing, at the first t
// with t·|B_t| ≥ stop, or at maxR.
func oracleRow(g *graph.Graph, v, maxR, stop int) []int {
	sizes := oracle.BallSizes(g, v, maxR)
	for t, size := range sizes {
		if size == g.N() || (t > 0 && sizes[t-1] == size) || t*size >= stop {
			return sizes[:t+1]
		}
	}
	return sizes
}

// TestBallProfilesAgainstOracle: a full-depth profile's rows must be
// the oracle's ball sizes, each ended at its first t·|B_t| ≥ K unless
// the ball covers its component first; the profile decides every
// k ≤ K, and every k exactly when all rows end with the ball complete.
// The diameter the hop kernel finds must be the oracle's.
func TestBallProfilesAgainstOracle(t *testing.T) {
	for _, f := range graph.Families() {
		for _, n := range []int{24, 40} {
			for seed := int64(1); seed <= 3; seed++ {
				g := buildGraph(t, f, n, seed)
				stop := g.ProfileStop()
				p := g.BallProfiles(g.N())
				complete := true
				for v := 0; v < g.N(); v++ {
					want := oracleRow(g, v, g.N(), stop)
					if p.Len(v) != len(want) {
						t.Fatalf("%s/n=%d/seed=%d: node %d has %d profile entries, oracle row %d", f, n, seed, v, p.Len(v), len(want))
					}
					for tt, size := range want {
						if got := p.Size(v, tt); got != size {
							t.Fatalf("%s/n=%d/seed=%d: |B_%d(%d)|=%d, oracle %d", f, n, seed, tt, v, got, size)
						}
					}
					complete = complete && want[len(want)-1] == g.N()
				}
				if !p.Decides(stop) || p.Complete() != complete || p.Decides(stop+1) != complete {
					t.Fatalf("%s/n=%d/seed=%d: decides K %v, complete %v, decides K+1 %v; oracle rows complete %v",
						f, n, seed, p.Decides(stop), p.Complete(), p.Decides(stop+1), complete)
				}
				if diam, want := uncachedDiameter(t, g), oracle.Diameter(g); diam != want {
					t.Fatalf("%s/n=%d/seed=%d: kernel diameter %d, oracle %d", f, n, seed, diam, want)
				}
			}
		}
	}
}

// uncachedDiameter runs the hop kernel's diameter pass on an
// edge-by-edge copy of g, which starts without the diameter that
// some generators seed.
func uncachedDiameter(t *testing.T, g *graph.Graph) int64 {
	t.Helper()
	b := graph.NewBuilder(g.N())
	for _, e := range g.Edges() {
		if err := b.AddEdge(e.U, e.V, e.W); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build().Diameter()
}

// TestProfileNQAgainstOracle: both evaluation paths — early-exit
// kernel (no profile attached) and profile binary search — must agree
// with the oracle's Definition 3.1 counting on every node, for
// workloads spanning the fast path, the √k regime, the D cap, and the
// profile's reach: k ∈ {9n, m, K} are the largest it decides, and
// K + 1 is past it, so unless every row is complete the profiled graph
// answers K + 1 with the early-exit kernel too. A ring of twelve
// 20-cliques has m = 2292 > 9n = 2160, so there K = m, and every one
// of its rows stops at K before the ball covers the graph; so does
// Table 2's 576-node ring of 24 24-cliques (m = 6648 > 9n = 5184).
func TestProfileNQAgainstOracle(t *testing.T) {
	type instance struct {
		name  string
		build func() *graph.Graph
	}
	var instances []instance
	for _, f := range graph.Families() {
		for _, n := range []int{24, 40} {
			for seed := int64(1); seed <= 3; seed++ {
				instances = append(instances, instance{fmt.Sprintf("%s/n=%d/seed=%d", f, n, seed), func() *graph.Graph { return buildGraph(t, f, n, seed) }})
			}
		}
	}
	instances = append(instances,
		instance{"ring of twelve 20-cliques", func() *graph.Graph { return graph.RingOfCliques(12, 20) }},
		instance{"ring of 24 24-cliques (Table 2)", func() *graph.Graph { return graph.RingOfCliques(24, 24) }})
	for _, in := range instances {
		g, profiled := in.build(), in.build()
		n := g.N()
		p := profiled.AttachProfiles(
			profiled.BallProfiles(graph.ProfileRadius(profiled.N(), profiled.Diameter())))
		stop := g.ProfileStop()
		if !p.Decides(stop) || p.Decides(stop+1) != p.Complete() {
			t.Fatalf("%s: canonical profile decides K %v, K+1 %v, complete %v",
				in.name, p.Decides(stop), p.Decides(stop+1), p.Complete())
		}
		ks := []int{1, 5, n, 4 * n, 9 * n, 12 * n, g.M(), stop, stop + 1}
		slices.Sort(ks)
		for _, k := range slices.Compact(ks) {
			wantPer, wantNQ, err := oracle.NQPerNode(g, k)
			if err != nil {
				t.Fatalf("%s k=%d: oracle: %v", in.name, k, err)
			}
			for name, gg := range map[string]*graph.Graph{"kernel": g, "profile": profiled} {
				per, q, err := nq.PerNode(gg, k)
				if err != nil {
					t.Fatalf("%s k=%d (%s): %v", in.name, k, name, err)
				}
				if q != wantNQ {
					t.Fatalf("%s k=%d (%s): NQ=%d, oracle %d", in.name, k, name, q, wantNQ)
				}
				for v := range per {
					if per[v] != wantPer[v] {
						t.Fatalf("%s k=%d (%s): NQ(%d)=%d, oracle %d", in.name, k, name, v, per[v], wantPer[v])
					}
				}
				if w, qw, err := nq.Witness(gg, k); err != nil || qw != wantNQ || wantPer[w] != wantNQ {
					t.Fatalf("%s k=%d (%s): witness (%d,%d), err=%v, oracle max %d", in.name, k, name, w, qw, err, wantNQ)
				}
			}
		}
		if profiled.Profiles() != p {
			t.Fatalf("%s: an NQ query replaced the attached profile", in.name)
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
