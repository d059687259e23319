package oracle

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// TestBFSClosedForms checks the oracle against hand-derivable distances
// on structured families.
func TestBFSClosedForms(t *testing.T) {
	// Path: d(0, v) = v.
	for v, d := range BFS(graph.Path(9), 0) {
		if d != int64(v) {
			t.Fatalf("path: d(0,%d)=%d, want %d", v, d, v)
		}
	}
	// Cycle: d(0, v) = min(v, n-v).
	n := 10
	for v, d := range BFS(graph.Cycle(n), 0) {
		want := int64(v)
		if o := int64(n - v); o < want {
			want = o
		}
		if d != want {
			t.Fatalf("cycle: d(0,%d)=%d, want %d", v, d, want)
		}
	}
	// Complete graph: everything at hop 1.
	for v, d := range BFS(graph.Complete(7), 3) {
		want := int64(1)
		if v == 3 {
			want = 0
		}
		if d != want {
			t.Fatalf("complete: d(3,%d)=%d, want %d", v, d, want)
		}
	}
	// Star: leaves pairwise at hop 2 through the center.
	dist := BFS(graph.Star(8), 5)
	if dist[0] != 1 || dist[5] != 0 || dist[3] != 2 {
		t.Fatalf("star: got center=%d self=%d leaf=%d", dist[0], dist[5], dist[3])
	}
	// Grid: Manhattan distance.
	side := 5
	g := graph.Grid2D(side)
	dist = BFS(g, 0)
	for v := 0; v < g.N(); v++ {
		want := int64(v%side + v/side)
		if dist[v] != want {
			t.Fatalf("grid: d(0,%d)=%d, want %d", v, dist[v], want)
		}
	}
}

// TestDijkstraMatchesBFSUnweighted: on unit weights the two oracle
// algorithms must agree exactly.
func TestDijkstraMatchesBFSUnweighted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomConnected(60, 0.08, rng)
	b := BFS(g, 7)
	d := Dijkstra(g, 7)
	for v := range b {
		if b[v] != d[v] {
			t.Fatalf("node %d: BFS %d vs Dijkstra %d", v, b[v], d[v])
		}
	}
}

// TestDijkstraWeightedPath pins exact weighted distances on a path with
// known prefix sums.
func TestDijkstraWeightedPath(t *testing.T) {
	b := graph.NewBuilder(5)
	ws := []int64{3, 1, 4, 1}
	for i, w := range ws {
		if err := b.AddEdge(i, i+1, w); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	dist := Dijkstra(g, 0)
	var sum int64
	for v := 1; v < 5; v++ {
		sum += ws[v-1]
		if dist[v] != sum {
			t.Fatalf("d(0,%d)=%d, want %d", v, dist[v], sum)
		}
	}
}

// TestEccentricitiesAndDiameter checks the path (ecc(v) = max(v, n-1-v),
// diameter n-1) and the complete graph (diameter 1).
func TestEccentricitiesAndDiameter(t *testing.T) {
	n := 8
	ecc := Eccentricities(graph.Path(n))
	for v, e := range ecc {
		want := int64(v)
		if o := int64(n - 1 - v); o > want {
			want = o
		}
		if e != want {
			t.Fatalf("path ecc(%d)=%d, want %d", v, e, want)
		}
	}
	if d := Diameter(graph.Path(n)); d != int64(n-1) {
		t.Fatalf("path diameter=%d, want %d", d, n-1)
	}
	if d := Diameter(graph.Complete(6)); d != 1 {
		t.Fatalf("complete diameter=%d, want 1", d)
	}
}

// TestDisconnectedInf: unreachable nodes report graph.Inf.
func TestDisconnectedInf(t *testing.T) {
	b := graph.NewBuilder(4)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	dist := BFS(g, 0)
	if dist[2] != graph.Inf || dist[3] != graph.Inf {
		t.Fatalf("disconnected distances %v, want Inf for nodes 2,3", dist)
	}
	if d := Dijkstra(g, 0); d[2] != graph.Inf {
		t.Fatalf("dijkstra disconnected = %d, want Inf", d[2])
	}
	if d := Diameter(g); d != graph.Inf {
		t.Fatalf("diameter=%d, want Inf", d)
	}
}

// TestHopLimited: at h ≥ n-1 the hop-limited distances equal Dijkstra;
// at small h they can only be larger; h=0 reaches only the source.
func TestHopLimited(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.RandomWeights(graph.RandomConnected(40, 0.1, rng), 9, rng)
	exact := Dijkstra(g, 0)
	full := HopLimited(g, 0, g.N()-1)
	for v := range exact {
		if exact[v] != full[v] {
			t.Fatalf("h=n-1: node %d: %d vs exact %d", v, full[v], exact[v])
		}
	}
	limited := HopLimited(g, 0, 2)
	for v := range exact {
		if limited[v] < exact[v] {
			t.Fatalf("h=2 underestimates node %d: %d < %d", v, limited[v], exact[v])
		}
	}
	zero := HopLimited(g, 0, 0)
	if zero[0] != 0 {
		t.Fatalf("h=0 source dist %d", zero[0])
	}
	for v := 1; v < len(zero); v++ {
		if zero[v] != graph.Inf {
			t.Fatalf("h=0 node %d reachable: %d", v, zero[v])
		}
	}
}

// TestAPSPSymmetric: the distance matrix of an undirected graph must be
// symmetric with a zero diagonal.
func TestAPSPSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomWeights(graph.RandomConnected(30, 0.15, rng), 20, rng)
	m := APSP(g)
	for u := range m {
		if m[u][u] != 0 {
			t.Fatalf("diag(%d)=%d", u, m[u][u])
		}
		for v := range m {
			if m[u][v] != m[v][u] {
				t.Fatalf("asymmetric: d(%d,%d)=%d, d(%d,%d)=%d", u, v, m[u][v], v, u, m[v][u])
			}
		}
	}
}
