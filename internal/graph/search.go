package graph

import (
	"math"
	"slices"
	"sync/atomic"
)

// BFS returns hop distances from src (Inf marks unreachable nodes).
// Large graphs (n ≥ 2^15) route to the direction-optimizing
// parallel kernel (kernels.go); the output is identical either way.
func (g *Graph) BFS(src int) []int64 {
	if g.N() >= kernelMinN {
		return g.BFSWorkers(src, 0)
	}
	return g.bfsSequential(src)
}

func (g *Graph) bfsSequential(src int) []int64 {
	dist := make([]int64, g.N())
	for i := range dist {
		dist[i] = Inf
	}
	if src < 0 || src >= g.N() {
		return dist
	}
	dist[src] = 0
	q := g.getQueue()
	defer g.queuePool.Put(q)
	queue := append((*q)[:0], int32(src))
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		d := dist[v] + 1
		for _, u := range g.to[g.rowStart[v]:g.rowStart[v+1]] {
			if dist[u] == Inf {
				dist[u] = d
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// getQueue returns a pooled BFS queue of capacity n (every node is
// enqueued at most once, so appends never reallocate it). Return it
// with g.queuePool.Put. The pool holds a pointer so that Put does not
// allocate.
func (g *Graph) getQueue() *[]int32 {
	q, _ := g.queuePool.Get().(*[]int32)
	if q == nil || cap(*q) < g.N() {
		s := make([]int32, 0, g.N())
		q = &s
	}
	return q
}

// MultiSourceBFS returns, for each node, the hop distance to the closest
// source and that source's index within srcs (closest source ties broken
// by BFS order, i.e. by the smallest position in srcs). nearest is -1 for
// unreachable nodes. Large graphs (n ≥ 2^15) route to the
// direction-optimizing parallel kernel, which reproduces the same
// tie-break (the queue stays sorted by nearest-source index within
// each level, so BFS order and min-source-index coincide).
func (g *Graph) MultiSourceBFS(srcs []int) (dist []int64, nearest []int) {
	if g.N() >= kernelMinN {
		return g.MultiSourceBFSWorkers(srcs, 0)
	}
	return g.multiSourceBFSSequential(srcs)
}

func (g *Graph) multiSourceBFSSequential(srcs []int) (dist []int64, nearest []int) {
	n := g.N()
	dist = make([]int64, n)
	nearest = make([]int, n)
	for i := range dist {
		dist[i] = Inf
		nearest[i] = -1
	}
	q := g.getQueue()
	defer g.queuePool.Put(q)
	queue := (*q)[:0]
	for i, s := range srcs {
		if s >= 0 && s < n && dist[s] == Inf {
			dist[s] = 0
			nearest[s] = i
			queue = append(queue, int32(s))
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		d, nr := dist[v]+1, nearest[v]
		for _, u := range g.to[g.rowStart[v]:g.rowStart[v+1]] {
			if dist[u] == Inf {
				dist[u] = d
				nearest[u] = nr
				queue = append(queue, u)
			}
		}
	}
	return dist, nearest
}

// ballScratch is the pooled state of Ball and BallSizes: an epoch-marked
// visited array (mark[v] == epoch ⇔ v visited in the current call, so no
// per-call clearing) plus two frontier buffers. Recycled via
// Graph.ballPool, making repeated small-radius calls O(|ball|) each.
type ballScratch struct {
	mark   []int32
	epoch  int32
	front  []int32
	nextFr []int32
}

func (g *Graph) getBallScratch() *ballScratch {
	s, _ := g.ballPool.Get().(*ballScratch)
	if s == nil || len(s.mark) < g.N() {
		s = &ballScratch{mark: make([]int32, g.N())}
	}
	if s.epoch == math.MaxInt32 {
		clear(s.mark)
		s.epoch = 0
	}
	s.epoch++
	return s
}

// Ball returns the set of nodes within t hops of v (B_t(v), including v),
// in BFS order.
func (g *Graph) Ball(v, t int) []int {
	if v < 0 || v >= g.N() {
		return nil
	}
	s := g.getBallScratch()
	defer g.ballPool.Put(s)
	mark, epoch := s.mark, s.epoch
	mark[v] = epoch
	frontier := append(s.front[:0], int32(v))
	next := s.nextFr[:0]
	out := []int{v}
	for depth := 0; depth < t && len(frontier) > 0; depth++ {
		next = next[:0]
		for _, u := range frontier {
			for _, x := range g.to[g.rowStart[u]:g.rowStart[u+1]] {
				if mark[x] != epoch {
					mark[x] = epoch
					next = append(next, x)
					out = append(out, int(x))
				}
			}
		}
		frontier, next = next, frontier
	}
	s.front, s.nextFr = frontier, next
	return out
}

// BallSizes returns |B_t(v)| for t = 0..maxT (truncated early if the ball
// covers the whole graph). The returned slice has length maxT+1 unless the
// graph is exhausted sooner, in which case the final entry equals n and the
// slice may be shorter; callers should treat missing entries as n.
func (g *Graph) BallSizes(v, maxT int) []int {
	n := g.N()
	s := g.getBallScratch()
	defer g.ballPool.Put(s)
	mark, epoch := s.mark, s.epoch
	sizes := make([]int, 0, maxT+1)
	mark[v] = epoch
	frontier := append(s.front[:0], int32(v))
	next := s.nextFr[:0]
	total := 1
	sizes = append(sizes, total)
	for t := 1; t <= maxT && len(frontier) > 0 && total < n; t++ {
		next = next[:0]
		for _, u := range frontier {
			for _, x := range g.to[g.rowStart[u]:g.rowStart[u+1]] {
				if mark[x] != epoch {
					mark[x] = epoch
					next = append(next, x)
				}
			}
		}
		total += len(next)
		frontier, next = next, frontier
		sizes = append(sizes, total)
	}
	s.front, s.nextFr = frontier, next
	return sizes
}

// Eccentricity returns max_w hop(v, w); Inf if the graph is disconnected.
func (g *Graph) Eccentricity(v int) int64 {
	dist := g.BFS(v)
	var ecc int64
	for _, d := range dist {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the exact hop diameter max_{v,w} hop(v,w): the
// largest eccentricity over the 64-source batches of the hop kernel
// (hopkernel.go), claimed by MaxKernelWorkers workers and cached until
// the graph changes; Inf for disconnected graphs, found as soon as any
// batch meets a second component.
func (g *Graph) Diameter() int64 {
	if d := g.diam.Load(); d != 0 {
		return d
	}
	n := g.N()
	var diam atomic.Int64
	forEachHopBatch(n, MaxKernelWorkers(), func() bool { return diam.Load() >= Inf }, func(lo, hi int) {
		var ecc [hopBatch]int64
		g.hopKernel(lo, hi, n, ecc[:hi-lo], nil)
		d := slices.Max(ecc[:hi-lo])
		for cur := diam.Load(); d > cur && !diam.CompareAndSwap(cur, d); cur = diam.Load() {
		}
	})
	d := diam.Load()
	g.diam.Store(d)
	return d
}

// DistHeap is a binary min-heap of (node, dist) pairs: the frontier of
// every Dijkstra in this package, and of the greedy spanner's bounded
// searches. The zero value is an empty heap.
type DistHeap struct {
	node []int32
	d    []int64
}

func newDistHeap(capacity int) *DistHeap {
	return &DistHeap{node: make([]int32, 0, capacity), d: make([]int64, 0, capacity)}
}

// getDistHeap returns an empty heap from the graph's pool, so repeated
// Dijkstra calls allocate only their result vectors. Return it with
// g.heapPool.Put once drained.
func (g *Graph) getDistHeap() *DistHeap {
	h, _ := g.heapPool.Get().(*DistHeap)
	if h == nil || cap(h.node) < g.N() {
		return newDistHeap(g.N())
	}
	h.Reset()
	return h
}

// Len returns the number of entries in the heap.
func (h *DistHeap) Len() int { return len(h.node) }

// Reset empties the heap, keeping its backing arrays.
func (h *DistHeap) Reset() { h.node, h.d = h.node[:0], h.d[:0] }

func (h *DistHeap) swap(i, j int) {
	h.node[i], h.node[j] = h.node[j], h.node[i]
	h.d[i], h.d[j] = h.d[j], h.d[i]
}

// Push adds node v with key d.
func (h *DistHeap) Push(v int32, d int64) {
	h.node = append(h.node, v)
	h.d = append(h.d, d)
	for i := len(h.d) - 1; i > 0; {
		parent := (i - 1) / 2
		if h.d[parent] <= h.d[i] {
			break
		}
		h.swap(parent, i)
		i = parent
	}
}

// Pop removes and returns an entry with the smallest key. The heap must
// not be empty.
func (h *DistHeap) Pop() (int32, int64) {
	v, d := h.node[0], h.d[0]
	last := len(h.node) - 1
	h.swap(0, last)
	h.node, h.d = h.node[:last], h.d[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.d[l] < h.d[smallest] {
			smallest = l
		}
		if r < last && h.d[r] < h.d[smallest] {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.swap(i, smallest)
		i = smallest
	}
	return v, d
}

// Dijkstra returns weighted distances d(src, ·) (Inf for unreachable).
// On unit weights it is BFS, which gives the same distances without a
// heap. Otherwise large graphs (n ≥ 2^15) route to the delta-stepping
// bucket kernel (deltastep.go); the output is identical either way.
func (g *Graph) Dijkstra(src int) []int64 {
	if !g.IsWeighted() {
		return g.BFS(src)
	}
	if g.N() >= kernelMinN {
		return g.DeltaStepping(src, 0)
	}
	return g.dijkstraHeap(src)
}

func (g *Graph) dijkstraHeap(src int) []int64 {
	dist := make([]int64, g.N())
	for i := range dist {
		dist[i] = Inf
	}
	if src < 0 || src >= g.N() {
		return dist
	}
	dist[src] = 0
	h := g.getDistHeap()
	defer g.heapPool.Put(h)
	h.Push(int32(src), 0)
	g.dijkstraLoop(h, dist, nil)
	return dist
}

// dijkstraLoop drains the heap, relaxing edges; when nearest is non-nil
// it propagates the closest-source index alongside the distances.
func (g *Graph) dijkstraLoop(h *DistHeap, dist []int64, nearest []int) {
	for h.Len() > 0 {
		v, d := h.Pop()
		if d > dist[v] {
			continue
		}
		lo, hi := g.rowStart[v], g.rowStart[v+1]
		row, rw := g.to[lo:hi], g.w[lo:hi]
		rw = rw[:len(row)]
		for j, u := range row {
			if nd := d + rw[j]; nd < dist[u] {
				dist[u] = nd
				if nearest != nil {
					nearest[u] = nearest[v]
				}
				h.Push(u, nd)
			}
		}
	}
}

// MultiSourceDijkstra returns, for each node, the weighted distance to the
// closest source and that source's index within srcs (-1 if unreachable).
// Below the parallel-kernel threshold ties between equally close sources
// follow heap order; large graphs (n ≥ 2^15) route to the
// delta-stepping kernel, which resolves them to the smallest source index.
func (g *Graph) MultiSourceDijkstra(srcs []int) (dist []int64, nearest []int) {
	if g.N() >= kernelMinN {
		return g.MultiSourceDeltaStepping(srcs, 0)
	}
	return g.multiSourceDijkstraHeap(srcs)
}

func (g *Graph) multiSourceDijkstraHeap(srcs []int) (dist []int64, nearest []int) {
	n := g.N()
	dist = make([]int64, n)
	nearest = make([]int, n)
	for i := range dist {
		dist[i] = Inf
		nearest[i] = -1
	}
	h := g.getDistHeap()
	defer g.heapPool.Put(h)
	for i, s := range srcs {
		if s >= 0 && s < n && dist[s] > 0 {
			dist[s] = 0
			nearest[s] = i
			h.Push(int32(s), 0)
		}
	}
	g.dijkstraLoop(h, dist, nearest)
	return dist, nearest
}

// HopLimitedDistances returns d^h(src, ·): the weight of the lightest path
// using at most h edges (Inf if no such path). Bellman–Ford with h
// relaxation rounds, O(h·m). Large graphs (n ≥ 2^15) route to the
// strictly synchronous parallel kernel (kernels.go).
func (g *Graph) HopLimitedDistances(src, h int) []int64 {
	if g.N() >= kernelMinN {
		return g.HopLimitedDistancesWorkers(src, h, 0)
	}
	return g.hopLimitedSequential(src, h)
}

func (g *Graph) hopLimitedSequential(src, h int) []int64 {
	n := g.N()
	cur := make([]int64, n)
	for i := range cur {
		cur[i] = Inf
	}
	if src < 0 || src >= n {
		return cur
	}
	cur[src] = 0
	// frontier-based relaxation: only relax from nodes improved last round.
	active := make([]int32, 1, n)
	active[0] = int32(src)
	next := make([]int32, 0, n)
	inActive := make([]bool, n)
	for round := 0; round < h && len(active) > 0; round++ {
		next = next[:0]
		for _, v := range active {
			dv := cur[v]
			lo, hi := g.rowStart[v], g.rowStart[v+1]
			row, rw := g.to[lo:hi], g.w[lo:hi]
			rw = rw[:len(row)]
			for j, u := range row {
				if nd := dv + rw[j]; nd < cur[u] {
					cur[u] = nd
					if !inActive[u] {
						inActive[u] = true
						next = append(next, u)
					}
				}
			}
		}
		for _, v := range next {
			inActive[v] = false
		}
		active, next = next, active
	}
	return cur
}

// APSPExact returns the full n×n weighted distance matrix via n Dijkstra
// runs. Intended for verification on small graphs.
func (g *Graph) APSPExact() [][]int64 {
	out := make([][]int64, g.N())
	for v := range out {
		out[v] = g.Dijkstra(v)
	}
	return out
}
