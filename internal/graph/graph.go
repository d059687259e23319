// Package graph provides the weighted undirected graph type used as the
// local communication network of the HYBRID model, together with the
// generators and search algorithms the reproduction needs.
//
// Graphs follow the paper's conventions (Section 1.2): undirected,
// connected, n = |V|, m = |E|, integer edge weights polynomial in n
// (ω ≡ 1 for unweighted graphs). Node identifiers inside the library are
// dense indices 0..n-1; the HYBRID₀ identifier assignment is layered on
// top by the engine (package hybrid).
package graph

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Inf is the sentinel distance for unreachable nodes. It is chosen so that
// Inf + maxWeight does not overflow int64.
const Inf int64 = math.MaxInt64 / 4

// Graph is an immutable undirected graph with int64 edge weights,
// stored as compressed sparse rows (DESIGN.md §4). Construct one with a
// Builder, a generator, Reweight or DecodeCSR; once built it never
// changes, so any number of goroutines may read it concurrently.
type Graph struct {
	// The half-edges leaving node v occupy positions
	// rowStart[v]..rowStart[v+1] of the flat to/w arrays, in the order
	// the Builder inserted them, so every traversal visits neighbors in
	// that order.
	rowStart []int32 // len n+1, monotone; rowStart[n] == 2m
	to       []int32 // len 2m, neighbor of each half-edge
	w        []int64 // len 2m, weight of each half-edge
	// diam caches Diameter(); 0 means "not computed" (recomputing a
	// diameter-0 graph is free). Pre-filled by the analytic generators
	// (seedDiameter) and by DecodeCSR, and carried by the weight-only
	// copies of Reweight. Atomic so a graph shared by concurrent sweep
	// cells (runner.GraphCache) may compute it lazily from any of them:
	// the value is a pure function of the graph, so racing writers
	// store the same number.
	diam atomic.Int64
	// profiles memoizes the batched ball-profile artifact
	// (BallProfiles); nil until attached. Like diam it is a pure
	// function of the topology, so concurrent attachers of a shared
	// graph only race about equivalent values (AttachProfiles keeps the
	// deepest). Carried like diam.
	profiles atomic.Pointer[Profiles]
	// ballPool recycles the epoch-marked scratch of Ball and BallSizes,
	// keeping those calls O(|ball|) instead of Θ(n). Safe for
	// concurrent readers of the graph.
	ballPool sync.Pool
	// heapPool recycles the binary-heap scratch of Dijkstra and
	// MultiSourceDijkstra (below the parallel-kernel threshold), so
	// repeated calls allocate only their result vectors.
	heapPool sync.Pool
	// queuePool recycles the capacity-n queue of the sequential BFS
	// (*[]int32), so a one-shot BFS allocates only its result vector.
	queuePool sync.Pool
	// hopPool recycles the per-node bit words and frontier lists of the
	// 64-source hop kernel (hopkernel.go) behind Diameter and
	// BallProfiles.
	hopPool sync.Pool
	// kernelPool recycles the frontier bitsets and worker state of the
	// direction-optimizing BFS kernel (kernels.go).
	kernelPool sync.Pool
	// deltaPool recycles the bucket ring and scratch of the
	// delta-stepping SSSP kernel (deltastep.go).
	deltaPool sync.Pool
	// deltaCache memoizes deltaParams (Δ<<16 | ringK; 0 = uncomputed):
	// a pure function of the weights, like diam.
	deltaCache atomic.Int64
	// unit memoizes IsWeighted (0 = not computed, else unitWeights or
	// someWeighted), which routes Dijkstra to BFS. A pure function of
	// the weights like deltaCache, so Reweight copies never carry it.
	unit atomic.Int32
}

// Values of Graph.unit once computed.
const (
	unitWeights int32 = iota + 1
	someWeighted
)

// edge is a directed half-edge in a Builder's adjacency list. An
// undirected edge {u,v} appears as edge{to: v} in u's list and
// edge{to: u} in v's.
type edge struct {
	to int32
	w  int64
}

// Builder accumulates the edges of a graph; Build lays them out as an
// immutable Graph. The zero value is a builder for the empty graph.
type Builder struct {
	adj [][]edge
	m   int
}

// NewBuilder returns a builder for a graph with n isolated nodes.
func NewBuilder(n int) *Builder {
	return &Builder{adj: make([][]edge, max(n, 0))}
}

// AddEdge inserts the undirected edge {u,v} with weight w.
// It returns an error for self-loops, out-of-range endpoints or
// non-positive weights. Parallel edges are not detected (the generators
// never create them; use HasEdge if in doubt).
func (b *Builder) AddEdge(u, v int, w int64) error {
	n := len(b.adj)
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if w <= 0 {
		return fmt.Errorf("graph: non-positive weight %d on edge (%d,%d)", w, u, v)
	}
	b.adj[u] = append(b.adj[u], edge{to: int32(v), w: w})
	b.adj[v] = append(b.adj[v], edge{to: int32(u), w: w})
	b.m++
	return nil
}

// mustAddEdge is used by generators, which construct edges known to be valid.
func (b *Builder) mustAddEdge(u, v int, w int64) {
	if err := b.AddEdge(u, v, w); err != nil {
		panic("graph: generator produced invalid edge: " + err.Error())
	}
}

// HasEdge reports whether the undirected edge {u,v} has been added.
func (b *Builder) HasEdge(u, v int) bool {
	if u < 0 || u >= len(b.adj) || v < 0 || v >= len(b.adj) {
		return false
	}
	// Scan the shorter list.
	if len(b.adj[u]) > len(b.adj[v]) {
		u, v = v, u
	}
	for _, e := range b.adj[u] {
		if int(e.to) == v {
			return true
		}
	}
	return false
}

// Build lays the edges added so far out as a Graph: node v's row lists
// its half-edges in insertion order. The builder stays usable; later
// edges do not affect graphs already built.
func (b *Builder) Build() *Graph {
	n := len(b.adj)
	g := &Graph{
		rowStart: make([]int32, n+1),
		to:       make([]int32, 2*b.m),
		w:        make([]int64, 2*b.m),
	}
	pos := int32(0)
	for v, es := range b.adj {
		g.rowStart[v] = pos
		for _, e := range es {
			g.to[pos] = e.to
			g.w[pos] = e.w
			pos++
		}
	}
	g.rowStart[n] = pos
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.rowStart) - 1 }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.to) / 2 }

// Row returns the adjacency row of v as flat neighbor/weight slices, in
// insertion order; both are nil when v is out of range. The slices
// alias the graph's arrays and must not be modified.
func (g *Graph) Row(v int) (to []int32, w []int64) {
	if v < 0 || v+1 >= len(g.rowStart) {
		return nil, nil
	}
	lo, hi := g.rowStart[v], g.rowStart[v+1]
	return g.to[lo:hi], g.w[lo:hi]
}

// ForEachNeighbor calls f for every neighbor of v in row order.
func (g *Graph) ForEachNeighbor(v int, f func(u int, w int64)) {
	lo, hi := g.rowStart[v], g.rowStart[v+1]
	row, rw := g.to[lo:hi], g.w[lo:hi]
	for i, u := range row {
		f(int(u), rw[i])
	}
}

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int) int { return int(g.rowStart[v+1] - g.rowStart[v]) }

// HasEdge reports whether the undirected edge {u,v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	n := g.N()
	if u < 0 || u >= n || v < 0 || v >= n {
		return false
	}
	// Scan the shorter row.
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	for _, x := range g.to[g.rowStart[u]:g.rowStart[u+1]] {
		if int(x) == v {
			return true
		}
	}
	return false
}

// EdgeWeight returns the weight of the edge {u,v}, or (0,false) if absent.
func (g *Graph) EdgeWeight(u, v int) (int64, bool) {
	to, w := g.Row(u)
	for i, x := range to {
		if int(x) == v {
			return w[i], true
		}
	}
	return 0, false
}

// UndirectedEdge is an explicit undirected edge with U < V.
type UndirectedEdge struct {
	U, V int
	W    int64
}

// Edges returns every undirected edge exactly once, with U < V,
// in row order.
func (g *Graph) Edges() []UndirectedEdge {
	out := make([]UndirectedEdge, 0, g.M())
	for u := 0; u < g.N(); u++ {
		for i := g.rowStart[u]; i < g.rowStart[u+1]; i++ {
			if v := int(g.to[i]); u < v {
				out = append(out, UndirectedEdge{U: u, V: v, W: g.w[i]})
			}
		}
	}
	return out
}

// Reweight returns a copy of g whose edge weights are f(u, v, w). The
// function must return a positive weight. It is called once per edge
// in Edges() order, and the copy's rows list the edges in that order.
// The copy keeps the hop facts already cached on g — the diameter and
// the attached ball profiles — since weights cannot change them. It
// does not keep the facts that depend on the weights (IsWeighted, the
// delta-stepping parameters); the copy derives them from its own.
func (g *Graph) Reweight(f func(u, v int, w int64) int64) (*Graph, error) {
	b := NewBuilder(g.N())
	for _, e := range g.Edges() {
		if err := b.AddEdge(e.U, e.V, f(e.U, e.V, e.W)); err != nil {
			return nil, err
		}
	}
	c := b.Build()
	c.diam.Store(g.diam.Load())
	c.profiles.Store(g.profiles.Load())
	return c, nil
}

// Unweighted returns a copy of g with all edge weights set to 1. Like
// every Reweight copy it keeps g's cached diameter and ball profiles,
// so a hop diameter known on g is not recomputed on the copy.
func (g *Graph) Unweighted() *Graph {
	c, _ := g.Reweight(func(_, _ int, _ int64) int64 { return 1 })
	return c
}

// IsWeighted reports whether any edge has weight != 1. The O(m) scan
// runs once per graph; later calls read the memoized answer.
func (g *Graph) IsWeighted() bool {
	switch g.unit.Load() {
	case unitWeights:
		return false
	case someWeighted:
		return true
	}
	state := unitWeights
	for _, w := range g.w {
		if w != 1 {
			state = someWeighted
			break
		}
	}
	g.unit.Store(state)
	return state == someWeighted
}

// MaxWeight returns the largest edge weight (0 for an edgeless graph).
func (g *Graph) MaxWeight() int64 {
	var m int64
	for _, w := range g.w {
		m = max(m, w)
	}
	return m
}

// ErrDisconnected is returned by algorithms that require a connected graph.
var ErrDisconnected = errors.New("graph: graph is not connected")

// Connected reports whether g is connected (the empty graph is connected).
func (g *Graph) Connected() bool {
	n := g.N()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := make([]int32, 1, n)
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range g.to[g.rowStart[v]:g.rowStart[v+1]] {
			if !seen[u] {
				seen[u] = true
				count++
				stack = append(stack, u)
			}
		}
	}
	return count == n
}
