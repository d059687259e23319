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
	"unsafe"
	"weak"
)

// Inf is the sentinel distance for unreachable nodes. It is chosen so that
// Inf + maxWeight does not overflow int64.
const Inf int64 = math.MaxInt64 / 4

// Graph is an immutable undirected graph with int64 edge weights,
// stored as compressed sparse rows (DESIGN.md §4). Construct one with a
// Builder, FromEdges, a generator, Reweight or DecodeCSR; once built it never
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
	// (BallProfiles); nil until attached, or until the Diameter pass
	// keeps the profiles it walked. Like diam it is a pure function of
	// the topology, so concurrent attachers of a shared graph only race
	// about equivalent values (AttachProfiles keeps the deepest).
	// Carried like diam.
	profiles atomic.Pointer[Profiles]
	// adopted records that AttachProfiles has attached (or kept) the
	// profiles, which the Diameter pass alone does not: a cache that
	// owns the artifact (runner.ProfileCache) still loads, counts and
	// persists what the pass kept. Carried with profiles.
	adopted atomic.Bool
	// ballPool recycles the epoch-marked scratch of Ball and BallSizes,
	// keeping those calls O(|ball|) instead of Θ(n). Safe for
	// concurrent readers of the graph.
	ballPool sync.Pool
	// heapPool recycles the binary-heap scratch of Dijkstra (below the
	// parallel-kernel threshold), so repeated calls allocate only their
	// result vectors.
	heapPool sync.Pool
	// queuePool recycles the capacity-n queue of the sequential BFS
	// (*[]int32), so a one-shot BFS allocates only its result vector.
	queuePool sync.Pool
	// hopLimitedPool recycles the frontier lists and marks of the
	// hop-limited Bellman–Ford (*hopLimitedScratch).
	hopLimitedPool sync.Pool
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
	// conn memoizes Connected (0 = not computed, else connectedYes or
	// connectedNo), so every hybrid.New over a shared graph skips the
	// DFS. A pure function of the topology; Reweight copies do not
	// carry it and recompute it on first use.
	conn atomic.Int32
}

// Values of Graph.unit once computed.
const (
	unitWeights int32 = iota + 1
	someWeighted
)

// Values of Graph.conn once computed.
const (
	connectedYes int32 = iota + 1
	connectedNo
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
	adj      [][]edge
	m        int
	weighted bool // some edge has a weight other than 1
}

// NewBuilder returns a builder for a graph with n isolated nodes.
func NewBuilder(n int) *Builder {
	return &Builder{adj: make([][]edge, max(n, 0))}
}

// newBuilderDegrees returns a builder for n isolated nodes whose rows
// have room for deg(v) half-edges each, carved from one backing array,
// so that a generator that knows each node's degree, or a tight bound
// on it, fills its rows without growing them. A row that outgrows its
// room still grows on its own, by append.
func newBuilderDegrees(n int, deg func(v int) int) *Builder {
	b := NewBuilder(n)
	total := 0
	for v := range b.adj {
		total += deg(v)
	}
	flat := make([]edge, total)
	off := 0
	for v := range b.adj {
		d := deg(v)
		b.adj[v] = flat[off : off : off+d]
		off += d
	}
	return b
}

// AddEdge inserts the undirected edge {u,v} with weight w.
// It returns an error for self-loops, out-of-range endpoints or
// non-positive weights. Parallel edges are not detected (the generators
// never create them; use HasEdge if in doubt).
func (b *Builder) AddEdge(u, v int, w int64) error {
	if err := checkEdge(len(b.adj), u, v, w); err != nil {
		return err
	}
	b.adj[u] = append(b.adj[u], edge{to: int32(v), w: w})
	b.adj[v] = append(b.adj[v], edge{to: int32(u), w: w})
	b.m++
	b.weighted = b.weighted || w != 1
	return nil
}

// checkEdge is the validity rule of AddEdge and FromEdges for the edge
// {u,v} of weight w on n nodes.
func checkEdge(n, u, v int, w int64) error {
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if w <= 0 {
		return fmt.Errorf("graph: non-positive weight %d on edge (%d,%d)", w, u, v)
	}
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
	}
	g.setWeights(b.weighted)
	pos := int32(0)
	for v, es := range b.adj {
		g.rowStart[v] = pos
		for _, e := range es {
			g.to[pos] = e.to
			if b.weighted {
				g.w[pos] = e.w
			}
			pos++
		}
	}
	g.rowStart[n] = pos
	return g
}

// setWeights gives a graph being laid out its weight array for len(to)
// half-edges and answers IsWeighted: weighted means some weight is not
// 1, and gets a fresh array to fill; otherwise the weights are ones.
func (g *Graph) setWeights(weighted bool) {
	if weighted {
		g.w = make([]int64, len(g.to))
		g.unit.Store(someWeighted)
		return
	}
	g.w = unitWeightArray(len(g.to))
	g.unit.Store(unitWeights)
}

// Every unweighted graph a Builder or FromEdges lays out with at most
// maxSharedOnes half-edges views one shared array of ones as its
// weights, instead of holding 8 bytes per half-edge of its own, a third
// of its CSR. Graphs are immutable, so no one writes the array. The
// package reaches the array only through a weak pointer, so it lives
// exactly as long as some graph views it, and a larger graph gets its
// own, so a small graph never keeps more than 1 MB of ones alive.
const maxSharedOnes = 1 << 17

var sharedOnes struct {
	sync.Mutex
	first weak.Pointer[int64] // the array's first element
	len   int
}

// unitWeightArray returns k ones with capacity k: a view of the shared
// array when 0 < k ≤ maxSharedOnes.
func unitWeightArray(k int) []int64 {
	fill := func(k int) []int64 {
		w := make([]int64, k)
		for i := range w {
			w[i] = 1
		}
		return w
	}
	if k == 0 || k > maxSharedOnes {
		return fill(k)
	}
	sharedOnes.Lock()
	defer sharedOnes.Unlock()
	if k <= sharedOnes.len {
		if p := sharedOnes.first.Value(); p != nil {
			return unsafe.Slice(p, sharedOnes.len)[:k:k]
		}
	}
	w := fill(k)
	sharedOnes.first, sharedOnes.len = weak.Make(&w[0]), k
	return w
}

// FromEdges lays the edges out as a Graph on n nodes in one pass over
// exact-size arrays: each edge {u,v} takes the next free slot of row u
// and of row v, which is the graph a Builder fed the same edges in order
// builds. It rejects the first edge AddEdge would reject, with the same
// error. Parallel edges are kept, as AddEdge keeps them.
func FromEdges(n int, edges []UndirectedEdge) (*Graph, error) {
	n = max(n, 0)
	g := &Graph{
		rowStart: make([]int32, n+1),
		to:       make([]int32, 2*len(edges)),
	}
	// Count degrees one row ahead, so the prefix sums leave
	// rowStart[v] at the first slot of row v.
	weighted := false
	for _, e := range edges {
		if err := checkEdge(n, e.U, e.V, e.W); err != nil {
			return nil, err
		}
		g.rowStart[e.U+1]++
		g.rowStart[e.V+1]++
		weighted = weighted || e.W != 1
	}
	g.setWeights(weighted)
	for v := 1; v <= n; v++ {
		g.rowStart[v] += g.rowStart[v-1]
	}
	next := make([]int32, n)
	copy(next, g.rowStart[:n])
	for _, e := range edges {
		g.to[next[e.U]], g.to[next[e.V]] = int32(e.V), int32(e.U)
		if weighted {
			g.w[next[e.U]], g.w[next[e.V]] = e.W, e.W
		}
		next[e.U]++
		next[e.V]++
	}
	return g, nil
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
//
// Degrees are unchanged, so the copy shares g's row layout: every edge
// {u < v} is placed at the next free slot of row u and of row v, which
// is where a Builder fed Edges() in order would put it.
func (g *Graph) Reweight(f func(u, v int, w int64) int64) (*Graph, error) {
	n := g.N()
	c := &Graph{
		rowStart: append([]int32(nil), g.rowStart...),
		to:       make([]int32, len(g.to)),
		w:        make([]int64, len(g.w)),
	}
	next := append([]int32(nil), g.rowStart[:n]...)
	for u := 0; u < n; u++ {
		for i := g.rowStart[u]; i < g.rowStart[u+1]; i++ {
			v := g.to[i]
			if int(v) <= u {
				continue
			}
			w := f(u, int(v), g.w[i])
			if w <= 0 {
				return nil, fmt.Errorf("graph: non-positive weight %d on edge (%d,%d)", w, u, v)
			}
			c.to[next[u]], c.w[next[u]] = v, w
			c.to[next[v]], c.w[next[v]] = int32(u), w
			next[u]++
			next[v]++
		}
	}
	c.diam.Store(g.diam.Load())
	c.profiles.Store(g.profiles.Load())
	c.adopted.Store(g.adopted.Load())
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

// ErrDisconnected is returned by algorithms that require a connected graph.
var ErrDisconnected = errors.New("graph: graph is not connected")

// Connected reports whether g is connected (the empty graph is
// connected). The O(n+m) search runs once per graph; later calls read
// the memoized answer.
func (g *Graph) Connected() bool {
	switch g.conn.Load() {
	case connectedYes:
		return true
	case connectedNo:
		return false
	}
	state := connectedNo
	if g.connected() {
		state = connectedYes
	}
	g.conn.Store(state)
	return state == connectedYes
}

func (g *Graph) connected() bool {
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
