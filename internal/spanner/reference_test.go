package spanner

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
)

// referenceCompute is the original greedy spanner, kept as the
// differential reference for Compute: the same edge scan, but each
// candidate edge runs a fresh Dijkstra on the kept edges (adjacency
// lists in keep order) with its distances in a map and a linear-scan
// priority queue.
func referenceCompute(g *graph.Graph, k int) (*graph.Graph, error) {
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].W != edges[j].W {
			return edges[i].W < edges[j].W
		}
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	h := graph.NewBuilder(g.N())
	adj := make([][]arc, g.N())
	stretch := int64(2*k - 1)
	for _, e := range edges {
		if referenceExceeds(adj, e.U, e.V, stretch*e.W) {
			if err := h.AddEdge(e.U, e.V, e.W); err != nil {
				return nil, err
			}
			adj[e.U] = append(adj[e.U], arc{int32(e.V), e.W})
			adj[e.V] = append(adj[e.V], arc{int32(e.U), e.W})
		}
	}
	return h.Build(), nil
}

// referenceExceeds reports whether d_h(u,v) > limit, where adj holds
// h's adjacency lists.
func referenceExceeds(adj [][]arc, u, v int, limit int64) bool {
	if u == v {
		return false
	}
	dist := map[int]int64{u: 0}
	type item struct {
		d int64
		v int
	}
	pq := []item{{0, u}}
	pop := func() item {
		best := 0
		for i := 1; i < len(pq); i++ {
			if pq[i].d < pq[best].d {
				best = i
			}
		}
		it := pq[best]
		pq[best] = pq[len(pq)-1]
		pq = pq[:len(pq)-1]
		return it
	}
	for len(pq) > 0 {
		it := pop()
		if d, ok := dist[it.v]; ok && it.d > d {
			continue
		}
		if it.v == v {
			return false
		}
		for _, e := range adj[it.v] {
			nd := it.d + e.w
			if nd > limit {
				continue
			}
			if d, ok := dist[int(e.to)]; !ok || nd < d {
				dist[int(e.to)] = nd
				pq = append(pq, item{nd, int(e.to)})
			}
		}
	}
	return true
}

// twoComponents returns two random connected 30-node graphs side by side.
func twoComponents(rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(60)
	for off := 0; off < 60; off += 30 {
		for _, e := range graph.RandomConnected(30, 0.3, rng).Edges() {
			if err := b.AddEdge(off+e.U, off+e.V, e.W); err != nil {
				panic(err)
			}
		}
	}
	return b.Build()
}

// TestComputeMatchesReference: Compute keeps exactly the reference's
// edges, in the same order, on every family (small and n = 576,
// unweighted and randomly weighted) and on a disconnected graph.
func TestComputeMatchesReference(t *testing.T) {
	type input struct {
		name string
		g    *graph.Graph
	}
	var inputs []input
	for _, n := range []int{40, 576} {
		for _, f := range graph.Families() {
			g, err := graph.Build(f, n, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs,
				input{fmt.Sprintf("%s/%d", f, n), g},
				input{fmt.Sprintf("%s/%d/weighted", f, n), graph.RandomWeights(g, 1000, rand.New(rand.NewSource(3)))})
		}
	}
	two := twoComponents(rand.New(rand.NewSource(5)))
	inputs = append(inputs, input{"two-components", two},
		input{"two-components/weighted", graph.RandomWeights(two, 50, rand.New(rand.NewSource(6)))})
	for _, in := range inputs {
		for _, k := range []int{1, 2, 3, 5} {
			got, err := Compute(in.g, k)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceCompute(in.g, k)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Edges(), want.Edges()) {
				t.Fatalf("%s k=%d: Compute kept %d edges, reference %d, or in another order", in.name, k, got.M(), want.M())
			}
		}
	}
}

// spannerGolden576 is the sha256 of the k = 2 spanner edges of the 11
// weighted families at n = 576, recorded with the map-based search that
// referenceCompute keeps.
const spannerGolden576 = "aa27dbe000bb1b1b7ae3f60077c0033693fecf2398b84ba5b83dfc9935b0ee96"

// TestComputeWeightedGolden pins Compute's output to the recorded hash.
func TestComputeWeightedGolden(t *testing.T) {
	h := sha256.New()
	for _, f := range graph.Families() {
		g, err := graph.Build(f, 576, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		s, err := Compute(graph.RandomWeights(g, 1000, rand.New(rand.NewSource(3))), 2)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", f, s.M())
		for _, e := range s.Edges() {
			fmt.Fprintf(h, "%d %d %d\n", e.U, e.V, e.W)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != spannerGolden576 {
		t.Fatalf("k=2 spanners of the 11 weighted families at n=576 hash to %s, want %s", got, spannerGolden576)
	}
}

// TestUnitWeightBFSMatchesDijkstra: on unit weights the depth-bounded
// BFS and the heap search keep the same spanner, compared by CSRHash, on
// every family at n ∈ {64, 576} for k ∈ {1, 2, 3}, and Compute keeps it
// too.
func TestUnitWeightBFSMatchesDijkstra(t *testing.T) {
	for _, n := range []int{64, 576} {
		for _, f := range graph.Families() {
			g, err := graph.Build(f, n, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			if g.IsWeighted() {
				t.Fatalf("%s/%d: built with non-unit weights", f, n)
			}
			for _, k := range []int{1, 2, 3} {
				var sums [3]string
				for i, run := range []func() (*graph.Graph, error){
					func() (*graph.Graph, error) { return compute(g, k, true) },
					func() (*graph.Graph, error) { return compute(g, k, false) },
					func() (*graph.Graph, error) { return Compute(g, k) },
				} {
					h, err := run()
					if err != nil {
						t.Fatal(err)
					}
					if sums[i], err = graph.CSRHash(h); err != nil {
						t.Fatal(err)
					}
				}
				if sums[0] != sums[1] || sums[2] != sums[0] {
					t.Fatalf("%s/%d k=%d: BFS spanner %s, heap %s, Compute %s", f, n, k, sums[0], sums[1], sums[2])
				}
			}
		}
	}
}
