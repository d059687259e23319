package graph_test

// Differential tests of the CSR layout and hot paths: a built row lists
// its half-edges in insertion order, and every traversal agrees with
// the independent sequential oracle (internal/oracle) across all 11
// graph families.

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
)

// TestRowMatchesNeighbors: the CSR row of every node must list the
// neighbors and weights the Builder was given, in insertion order.
func TestRowMatchesNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 50
	b := graph.NewBuilder(n)
	type half struct {
		to int32
		w  int64
	}
	want := make([][]half, n)
	for i := 0; i < 4*n; i++ {
		u, v, w := rng.Intn(n), rng.Intn(n), 1+rng.Int63n(9)
		if u == v || b.HasEdge(u, v) {
			continue
		}
		if err := b.AddEdge(u, v, w); err != nil {
			t.Fatal(err)
		}
		want[u] = append(want[u], half{int32(v), w})
		want[v] = append(want[v], half{int32(u), w})
	}
	g := b.Build()
	if to, w := g.Row(n); to != nil || w != nil {
		t.Fatal("Row non-nil for an out-of-range node")
	}
	for v := 0; v < n; v++ {
		to, w := g.Row(v)
		if len(to) != len(want[v]) || len(w) != len(want[v]) || g.Degree(v) != len(want[v]) {
			t.Fatalf("node %d: row length %d/%d vs %d inserted", v, len(to), len(w), len(want[v]))
		}
		for i, e := range want[v] {
			if to[i] != e.to || w[i] != e.w {
				t.Fatalf("node %d slot %d: row (%d,%d) vs inserted (%d,%d)", v, i, to[i], w[i], e.to, e.w)
			}
		}
	}
}

// TestFrozenTraversalsMatchOracle is the graph-kernel differential
// suite: on every family in Families, two sizes, three seeds, the
// CSR traversals must agree exactly with the independent
// sequential oracle.
func TestFrozenTraversalsMatchOracle(t *testing.T) {
	for _, f := range graph.Families() {
		for _, n := range []int{33, 65} {
			for seed := int64(1); seed <= 3; seed++ {
				g, err := graph.Build(f, n, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("%s/n=%d/seed=%d: %v", f, n, seed, err)
				}
				srcs := []int{0, g.N() - 1}

				for _, src := range srcs {
					want := oracle.BFS(g, src)
					if got := g.BFS(src); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/bfs: BFS(%d) differs from oracle (n=%d seed=%d)", f, src, n, seed)
					}
				}

				wg := graph.RandomWeights(g, 50, rand.New(rand.NewSource(seed)))
				for _, src := range srcs {
					want := oracle.Dijkstra(wg, src)
					if got := wg.Dijkstra(src); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/dijkstra: Dijkstra(%d) differs from oracle (n=%d seed=%d)", f, src, n, seed)
					}
				}

				ecc := oracle.Eccentricities(g)
				if got := g.Eccentricity(0); got != ecc[0] {
					t.Fatalf("%s/ecc: ecc(0)=%d, oracle %d (n=%d seed=%d)", f, got, ecc[0], n, seed)
				}
				if got, want := g.Diameter(), oracle.Diameter(g); got != want {
					t.Fatalf("%s/diam: diameter=%d, oracle %d (n=%d seed=%d)", f, got, want, n, seed)
				}

				// Hop-limited: exactly the oracle's d^h, and the exact
				// distances at h ≥ n-1.
				for _, h := range []int{3, wg.N() - 1} {
					if got, want := wg.HopLimitedDistances(0, h), oracle.HopLimited(wg, 0, h); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/hop: d^%d(0, ·) differs from oracle (n=%d seed=%d)", f, h, n, seed)
					}
				}
				if got := wg.HopLimitedDistances(0, wg.N()-1); !reflect.DeepEqual(got, oracle.Dijkstra(wg, 0)) {
					t.Fatalf("%s/hop-full: full-hop distances differ from exact (n=%d seed=%d)", f, n, seed)
				}

				// MultiSourceBFS distance = min over sources of oracle BFS.
				msDist, msNearest := g.MultiSourceBFS(srcs)
				per := make([][]int64, len(srcs))
				for i, s := range srcs {
					per[i] = oracle.BFS(g, s)
				}
				for v := range msDist {
					want := per[0][v]
					if per[1][v] < want {
						want = per[1][v]
					}
					if msDist[v] != want {
						t.Fatalf("%s/msbfs: dist(%d)=%d, oracle min %d (n=%d seed=%d)", f, v, msDist[v], want, n, seed)
					}
					if nr := msNearest[v]; nr < 0 || per[nr][v] != msDist[v] {
						t.Fatalf("%s/msbfs: nearest[%d]=%d inconsistent (n=%d seed=%d)", f, v, nr, n, seed)
					}
				}
			}
		}
	}
}
