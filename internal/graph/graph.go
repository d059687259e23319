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

// Edge is a directed half-edge stored in an adjacency list. An undirected
// edge {u,v} appears as Edge{To: v} in u's list and Edge{To: u} in v's.
type Edge struct {
	To int32
	W  int64
}

// Graph is an undirected graph with int64 edge weights.
// The zero value is an empty graph; use New to allocate n nodes.
//
// A graph has two representations: the mutable adjacency lists filled
// by AddEdge, and the flat CSR arrays built once by Freeze (csr.go).
// Freezing makes the graph immutable and switches every hot-path
// traversal onto the cache-dense flat arrays.
type Graph struct {
	adj [][]Edge
	m   int
	// diam caches Diameter(); 0 means "not computed" (recomputing a
	// diameter-0 graph is free). Pre-filled by the analytic generators
	// (seedDiameter) and by DecodeCSR, and carried by Clone and by the
	// weight-only copies of Reweight. Invalidated by AddEdge. Atomic so a
	// frozen graph shared by concurrent sweep cells (runner.GraphCache)
	// may compute it lazily from any of them: the value is a pure
	// function of the graph, so racing writers store the same number.
	diam atomic.Int64
	// profiles memoizes the batched ball-profile artifact
	// (BallProfiles); nil until attached. Like diam it is a pure
	// function of the topology, so concurrent attachers of a shared
	// frozen graph only race about equivalent values (AttachProfiles
	// keeps the deepest). Carried and invalidated like diam.
	profiles atomic.Pointer[Profiles]
	// csr is the frozen flat representation; non-nil once Freeze ran.
	csr *csr
	// ballPool recycles the epoch-marked scratch of Ball and BallSizes,
	// keeping those calls O(|ball|) instead of Θ(n). Safe for
	// concurrent readers of the graph.
	ballPool sync.Pool
	// heapPool recycles the binary-heap scratch of Dijkstra and
	// MultiSourceDijkstra (below the parallel-kernel threshold), so
	// repeated calls allocate only their result vectors.
	heapPool sync.Pool
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
	// a pure function of the frozen weights, like diam.
	deltaCache atomic.Int64
}

// New returns a graph with n isolated nodes.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{adj: make([][]Edge, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts the undirected edge {u,v} with weight w.
// It returns an error for self-loops, out-of-range endpoints,
// non-positive weights, or a frozen graph (ErrFrozen). Parallel edges
// are not detected (the generators never create them; use HasEdge if
// in doubt).
func (g *Graph) AddEdge(u, v int, w int64) error {
	if g.csr != nil {
		return ErrFrozen
	}
	n := len(g.adj)
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if w <= 0 {
		return fmt.Errorf("graph: non-positive weight %d on edge (%d,%d)", w, u, v)
	}
	g.adj[u] = append(g.adj[u], Edge{To: int32(v), W: w})
	g.adj[v] = append(g.adj[v], Edge{To: int32(u), W: w})
	g.m++
	g.diam.Store(0)
	g.profiles.Store(nil)
	return nil
}

// mustAddEdge is used by generators, which construct edges known to be valid.
func (g *Graph) mustAddEdge(u, v int, w int64) {
	if err := g.AddEdge(u, v, w); err != nil {
		panic("graph: generator produced invalid edge: " + err.Error())
	}
}

// Neighbors returns the adjacency list of v. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Neighbors(v int) []Edge { return g.adj[v] }

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// HasEdge reports whether the undirected edge {u,v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return false
	}
	// Scan the shorter list.
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	if c := g.csr; c != nil {
		for i, end := c.rowStart[u], c.rowStart[u+1]; i < end; i++ {
			if int(c.to[i]) == v {
				return true
			}
		}
		return false
	}
	for _, e := range g.adj[u] {
		if int(e.To) == v {
			return true
		}
	}
	return false
}

// EdgeWeight returns the weight of the edge {u,v}, or (0,false) if absent.
func (g *Graph) EdgeWeight(u, v int) (int64, bool) {
	if u < 0 || u >= len(g.adj) {
		return 0, false
	}
	if c := g.csr; c != nil {
		for i, end := c.rowStart[u], c.rowStart[u+1]; i < end; i++ {
			if int(c.to[i]) == v {
				return c.w[i], true
			}
		}
		return 0, false
	}
	for _, e := range g.adj[u] {
		if int(e.To) == v {
			return e.W, true
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
// in adjacency order.
func (g *Graph) Edges() []UndirectedEdge {
	out := make([]UndirectedEdge, 0, g.m)
	for u := range g.adj {
		for _, e := range g.adj[u] {
			if u < int(e.To) {
				out = append(out, UndirectedEdge{U: u, V: int(e.To), W: e.W})
			}
		}
	}
	return out
}

// Clone returns a deep copy of g. A frozen graph clones frozen. The
// lazy annotations (diameter, ball profiles) carry over: both are pure
// functions of the topology, and Profiles instances are immutable, so
// sharing one is safe.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]Edge, len(g.adj)), m: g.m}
	c.diam.Store(g.diam.Load())
	c.profiles.Store(g.profiles.Load())
	for v, es := range g.adj {
		c.adj[v] = append([]Edge(nil), es...)
	}
	if g.csr != nil {
		c.Freeze()
	}
	return c
}

// Reweight returns a copy of g whose edge weights are f(u, v, w). The
// function must return a positive weight. The copy of a frozen graph
// is frozen. The copy keeps the hop facts already cached on g — the
// diameter and the attached ball profiles — since weights cannot change
// them; AddEdge on an unfrozen copy drops both, as on any graph.
func (g *Graph) Reweight(f func(u, v int, w int64) int64) (*Graph, error) {
	c := New(g.N())
	for _, e := range g.Edges() {
		w := f(e.U, e.V, e.W)
		if err := c.AddEdge(e.U, e.V, w); err != nil {
			return nil, err
		}
	}
	c.diam.Store(g.diam.Load())
	c.profiles.Store(g.profiles.Load())
	if g.csr != nil {
		c.Freeze()
	}
	return c, nil
}

// Unweighted returns a copy of g with all edge weights set to 1. Like
// every Reweight copy it keeps g's cached diameter and ball profiles,
// so a hop diameter known on g is not recomputed on the copy.
func (g *Graph) Unweighted() *Graph {
	c, _ := g.Reweight(func(_, _ int, _ int64) int64 { return 1 })
	return c
}

// IsWeighted reports whether any edge has weight != 1.
func (g *Graph) IsWeighted() bool {
	for u := range g.adj {
		for _, e := range g.adj[u] {
			if e.W != 1 {
				return true
			}
		}
	}
	return false
}

// MaxWeight returns the largest edge weight (0 for an edgeless graph).
func (g *Graph) MaxWeight() int64 {
	var w int64
	for u := range g.adj {
		for _, e := range g.adj[u] {
			if e.W > w {
				w = e.W
			}
		}
	}
	return w
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
	if c := g.csr; c != nil {
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for i, end := c.rowStart[v], c.rowStart[v+1]; i < end; i++ {
				if u := c.to[i]; !seen[u] {
					seen[u] = true
					count++
					stack = append(stack, u)
				}
			}
		}
		return count == n
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[v] {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
	}
	return count == n
}

// Subgraph returns the subgraph induced by keep (keep[v] == true), along
// with the mapping from new indices to original ones. The subgraph of a
// frozen graph is frozen.
func (g *Graph) Subgraph(keep []bool) (*Graph, []int) {
	idx := make([]int32, g.N())
	var orig []int
	for v := range idx {
		idx[v] = -1
	}
	for v := 0; v < g.N(); v++ {
		if keep[v] {
			idx[v] = int32(len(orig))
			orig = append(orig, v)
		}
	}
	sub := New(len(orig))
	for _, v := range orig {
		for _, e := range g.adj[v] {
			if u := int(e.To); keep[u] && v < u {
				sub.mustAddEdge(int(idx[v]), int(idx[u]), e.W)
			}
		}
	}
	if g.csr != nil {
		sub.Freeze()
	}
	return sub, orig
}
