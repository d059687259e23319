package graph_test

// FromEdges against the Builder it stands in for: the same CSR arrays
// for any edge list, and the same error for any invalid edge.

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// viaBuilder builds edges on n nodes the Builder way, returning the
// first AddEdge error.
func viaBuilder(n int, edges []graph.UndirectedEdge) (*graph.Graph, error) {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e.U, e.V, e.W); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// randomMultigraph returns up to 3n random edges on n nodes: parallel
// edges (often at unequal weights) are kept, and nodes no edge touches
// stay isolated.
func randomMultigraph(rng *rand.Rand, n int) []graph.UndirectedEdge {
	var edges []graph.UndirectedEdge
	if n < 2 {
		return edges
	}
	for range rng.Intn(3*n + 1) {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if len(edges) > 0 && rng.Intn(4) == 0 { // a parallel copy, either way round
			p := edges[rng.Intn(len(edges))]
			u, v = p.U, p.V
			if rng.Intn(2) == 0 {
				u, v = v, u
			}
		}
		edges = append(edges, graph.UndirectedEdge{U: u, V: v, W: 1 + rng.Int63n(9)})
	}
	return edges
}

// TestFromEdgesMatchesBuilder: on 10,000 random multigraphs, FromEdges
// lays out exactly the CSR arrays NewBuilder + AddEdge + Build does.
func TestFromEdgesMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := range 10000 {
		n := rng.Intn(24)
		edges := randomMultigraph(rng, n)
		want, err := viaBuilder(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		got, err := graph.FromEdges(n, edges)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		gh, _ := graph.CSRHash(got)
		wh, _ := graph.CSRHash(want)
		if gh != wh || got.N() != want.N() || got.M() != want.M() {
			t.Fatalf("trial %d (n=%d, %d edges): FromEdges hash %s, Builder %s", trial, n, len(edges), gh, wh)
		}
	}
}

// TestFromEdgesRejectsLikeAddEdge: an edge list with an invalid edge
// (an endpoint out of range, a self-loop, a non-positive weight) is
// refused with the error AddEdge gives for the first such edge.
func TestFromEdgesRejectsLikeAddEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 8
	bad := []graph.UndirectedEdge{
		{U: -1, V: 2, W: 1}, {U: 2, V: -1, W: 1}, {U: n, V: 0, W: 1}, {U: 0, V: n, W: 1},
		{U: 3, V: 3, W: 1}, {U: 3, V: 3, W: 0}, {U: 1, V: 2, W: 0}, {U: 1, V: 2, W: -5},
		{U: n + 4, V: n + 4, W: -1},
	}
	for _, e := range bad {
		for range 20 {
			edges := randomMultigraph(rng, n)
			at := rng.Intn(len(edges) + 1)
			edges = append(edges[:at], append([]graph.UndirectedEdge{e}, edges[at:]...)...)
			_, want := viaBuilder(n, edges)
			g, got := graph.FromEdges(n, edges)
			if want == nil || got == nil || got.Error() != want.Error() || g != nil {
				t.Fatalf("edge %+v at %d: FromEdges error %v (graph %v), AddEdge %v", e, at, got, g != nil, want)
			}
		}
	}
	if _, err := graph.FromEdges(0, []graph.UndirectedEdge{{U: 0, V: 1, W: 1}}); err == nil {
		t.Fatal("an edge on the empty graph was accepted")
	}
	if g, err := graph.FromEdges(-3, nil); err != nil || g.N() != 0 {
		t.Fatalf("FromEdges(-3, nil) = %v nodes, %v; want the empty graph, as NewBuilder(-3)", g.N(), err)
	}
}
