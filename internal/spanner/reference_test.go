package spanner

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/nq"
	"repro/internal/skeleton"
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

// randomMultigraph returns a random graph on 2–25 nodes whose edges
// repeat: about a third are extra copies of an edge already drawn, half
// of them with its weight and half with a fresh one.
func randomMultigraph(rng *rand.Rand) *graph.Graph {
	n := 2 + rng.Intn(24)
	b := graph.NewBuilder(n)
	var drawn []graph.UndirectedEdge
	for range 1 + rng.Intn(3*n) {
		e := graph.UndirectedEdge{U: rng.Intn(n), V: rng.Intn(n), W: 1 + rng.Int63n(12)}
		if len(drawn) > 0 && rng.Intn(3) == 0 {
			e = drawn[rng.Intn(len(drawn))]
			if rng.Intn(2) == 0 {
				e.W = 1 + rng.Int63n(12)
			}
		}
		if e.U == e.V {
			continue
		}
		if err := b.AddEdge(e.U, e.V, e.W); err != nil {
			panic(err)
		}
		drawn = append(drawn, e)
	}
	return b.Build()
}

// theorem8Skeleton returns the skeleton graph apsp.Skeleton samples on g
// at α = 1, with t = n^{1/4}·NQ_n^{1/2} as it picks it.
func theorem8Skeleton(t *testing.T, g *graph.Graph, rng *rand.Rand) *graph.Graph {
	t.Helper()
	q, err := nq.Of(g, g.N())
	if err != nil {
		t.Fatal(err)
	}
	x := max(1, int(math.Ceil(math.Pow(float64(g.N()), 0.25)*math.Sqrt(float64(q)))))
	sk, err := skeleton.Build(g, x, nil, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	return sk.S
}

// TestComputeMatchesReference: Compute keeps exactly the reference's
// edges, in the same order (equal CSRHash), on every family (small and
// n = 576, unweighted and randomly weighted) and on a disconnected
// graph. The k = 1 rule is also checked on every family's Theorem 8
// skeleton at n ∈ {64, 576}, weighted and with unit weights, and on
// random multigraphs with parallel edges of equal and of unequal weight.
func TestComputeMatchesReference(t *testing.T) {
	type input struct {
		name string
		g    *graph.Graph
		ks   []int
	}
	allK := []int{1, 2, 3, 5}
	var inputs []input
	for _, n := range []int{40, 576} {
		for _, f := range graph.Families() {
			g, err := graph.Build(f, n, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs,
				input{fmt.Sprintf("%s/%d", f, n), g, allK},
				input{fmt.Sprintf("%s/%d/weighted", f, n), graph.RandomWeights(g, 1000, rand.New(rand.NewSource(3))), allK})
		}
	}
	for _, n := range []int{64, 576} {
		for _, f := range graph.Families() {
			g, err := graph.Build(f, n, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			s := theorem8Skeleton(t, g, rand.New(rand.NewSource(2)))
			inputs = append(inputs,
				input{fmt.Sprintf("%s/%d/skeleton", f, n), s, []int{1}},
				input{fmt.Sprintf("%s/%d/skeleton/unit", f, n), s.Unweighted(), []int{1}})
		}
	}
	two := twoComponents(rand.New(rand.NewSource(5)))
	inputs = append(inputs, input{"two-components", two, allK},
		input{"two-components/weighted", graph.RandomWeights(two, 50, rand.New(rand.NewSource(6))), allK})
	multi := rand.New(rand.NewSource(7))
	for i := range 300 {
		inputs = append(inputs, input{fmt.Sprintf("multigraph/%d", i), randomMultigraph(multi), []int{1, 2}})
	}
	for _, in := range inputs {
		for _, k := range in.ks {
			got, err := Compute(in.g, k)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceCompute(in.g, k)
			if err != nil {
				t.Fatal(err)
			}
			gotSum, _ := graph.CSRHash(got)
			wantSum, _ := graph.CSRHash(want)
			if gotSum != wantSum {
				t.Fatalf("%s k=%d: Compute kept %d edges, reference %d, or in another order (CSRHash %s, want %s)", in.name, k, got.M(), want.M(), gotSum, wantSum)
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
