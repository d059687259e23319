package skeleton

// Differential check of the unit-weight skeleton edges, which come
// from the 64-source hop kernel (graph.HopDistancesAmong), against the
// construction they replaced: one hop-limited Bellman–Ford per
// skeleton node.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// perSourceEdges is the skeleton graph as Build made it before the hop
// kernel: for every skeleton node in order, one hop-limited search and
// an edge to every later skeleton node within h hops.
func perSourceEdges(t *testing.T, g *graph.Graph, nodes []int, h int) *graph.Graph {
	t.Helper()
	s := graph.NewBuilder(len(nodes))
	dist := make([]int64, g.N())
	for i, v := range nodes {
		g.HopLimitedDistancesInto(dist, v, h)
		for j := i + 1; j < len(nodes); j++ {
			if d := dist[nodes[j]]; d < graph.Inf {
				if err := s.AddEdge(i, j, d); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return s.Build()
}

// checkAgainstPerSource builds g's skeleton with its edges and without,
// from the same sample seed, and checks that the nodes and h agree and
// that S is CSR-identical to the per-source construction.
func checkAgainstPerSource(t *testing.T, name string, g *graph.Graph, x int, forced []int, seed int64) *Skeleton {
	t.Helper()
	sk, err := Build(g, x, forced, true, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	bare, err := Build(g, x, forced, false, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sk.Nodes, bare.Nodes) || sk.H != bare.H {
		t.Fatalf("%s: materializing the edges changed the sample or h", name)
	}
	got, err := graph.CSRHash(sk.S)
	if err != nil {
		t.Fatal(err)
	}
	want, err := graph.CSRHash(perSourceEdges(t, g, sk.Nodes, sk.H))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("%s (|V_S| = %d, h = %d): skeleton graph differs from the per-source construction", name, sk.Size(), sk.H)
	}
	return sk
}

// TestBuildMatchesPerSourceSearches: on every family at n ∈ {64, 576,
// 2304}, Build's Nodes, H and S equal those of the per-source
// construction. At n = 64 every node is sampled (x = 1): one full batch
// of 64 sources. At the larger sizes |V_S| > 64, so the sources span
// several batches, and h = ⌈2x·ln n⌉ is below the diameter on some
// families and capped at it on others; both cases occur.
func TestBuildMatchesPerSourceSearches(t *testing.T) {
	cases := []struct{ n, x int }{{64, 1}, {576, 4}, {2304, 16}}
	below, capped := 0, 0
	for _, c := range cases {
		for _, f := range graph.Families() {
			g, err := graph.Build(f, c.n, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/%d", f, c.n)
			sk := checkAgainstPerSource(t, name, g, c.x, nil, int64(c.n))
			if c.n > 64 && sk.Size() <= 64 {
				t.Fatalf("%s: |V_S| = %d fits one batch", name, sk.Size())
			}
			if int64(sk.H) < g.Diameter() {
				below++
			} else {
				capped++
			}
		}
	}
	if below == 0 || capped == 0 {
		t.Fatalf("h below D in %d cases and at D in %d: want both", below, capped)
	}
}

// TestBuildMatchesPerSourceForcedAndDisconnected: forced nodes join the
// sample wherever they fall, and on a disconnected graph (D = Inf, so
// h is not capped) no edge crosses between components.
func TestBuildMatchesPerSourceForcedAndDisconnected(t *testing.T) {
	g, err := graph.Build(graph.FamilyTorus2D, 576, nil)
	if err != nil {
		t.Fatal(err)
	}
	forced := []int{0, 63, 64, 127, 128, 575}
	sk := checkAgainstPerSource(t, "torus2d/forced", g, 4, forced, 3)
	for _, v := range forced {
		if sk.Index[v] < 0 {
			t.Fatalf("forced node %d missing", v)
		}
	}

	b := graph.NewBuilder(300)
	for v := 0; v+1 < 300; v++ {
		if v != 199 { // a 200-node path and a 100-node path
			if err := b.AddEdge(v, v+1, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	split := b.Build()
	sk = checkAgainstPerSource(t, "two-paths", split, 2, []int{199, 200}, 4)
	i, j := sk.Index[199], sk.Index[200]
	if _, ok := sk.S.EdgeWeight(i, j); ok {
		t.Fatal("skeleton edge between the two components")
	}
}
