package graph_test

// Differential certification of Dijkstra's kernel choice: on unit
// weights it answers with BFS, which must equal both the heap kernel
// and the independent oracle; a weighted copy of a unit graph must
// answer with weighted distances again.

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
)

func TestDijkstraUnitWeightsIsBFS(t *testing.T) {
	for _, f := range graph.Families() {
		for _, n := range []int{33, 219} {
			g, err := graph.Build(f, n, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatalf("%s/n=%d: %v", f, n, err)
			}
			for _, src := range []int{0, g.N() / 2, g.N() - 1} {
				want := oracle.Dijkstra(g, src)
				if got := g.Dijkstra(src); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/n=%d: Dijkstra(%d) differs from oracle", f, n, src)
				}
				if got := g.BFS(src); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/n=%d: BFS(%d) differs from oracle", f, n, src)
				}
				if got := graph.DijkstraHeap(g, src); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/n=%d: heap Dijkstra(%d) differs from oracle", f, n, src)
				}
			}
		}
	}
}

// TestDijkstraUnitWeightsAboveKernelMinN covers the parallel BFS route:
// on a path the distance from s to v is |v−s|.
func TestDijkstraUnitWeightsAboveKernelMinN(t *testing.T) {
	g := graph.Path(graph.KernelMinN)
	for _, src := range []int{0, 12345, g.N() - 1} {
		got := g.Dijkstra(src)
		for v, d := range got {
			if want := int64(max(v-src, src-v)); d != want {
				t.Fatalf("Dijkstra(%d)[%d] = %d, want %d", src, v, d, want)
			}
		}
	}
}

func TestDijkstraOutOfRangeSource(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Grid2D(5), graph.Path(graph.KernelMinN)} {
		for _, src := range []int{-1, g.N(), g.N() + 7} {
			got := g.Dijkstra(src)
			if len(got) != g.N() {
				t.Fatalf("n=%d: Dijkstra(%d) has length %d", g.N(), src, len(got))
			}
			for v, d := range got {
				if d != graph.Inf {
					t.Fatalf("n=%d: Dijkstra(%d)[%d] = %d, want Inf", g.N(), src, v, d)
				}
			}
		}
	}
}

// TestReweightDropsUnitWeights: a unit graph's memoized weight fact
// must not reach its weighted copies, nor a weighted graph's its unit
// copy.
func TestReweightDropsUnitWeights(t *testing.T) {
	g := graph.Grid2D(8)
	bfs := g.Dijkstra(0) // memoizes "unit weights" on g
	wg := graph.RandomWeights(g, 50, rand.New(rand.NewSource(4)))
	got := wg.Dijkstra(0)
	if want := oracle.Dijkstra(wg, 0); !reflect.DeepEqual(got, want) {
		t.Fatal("RandomWeights copy of a unit graph: Dijkstra differs from oracle")
	}
	if reflect.DeepEqual(got, bfs) {
		t.Fatal("RandomWeights copy of a unit graph returned hop distances")
	}
	if got := wg.Unweighted().Dijkstra(0); !reflect.DeepEqual(got, bfs) {
		t.Fatal("Unweighted copy of a weighted graph: Dijkstra differs from BFS")
	}
}
