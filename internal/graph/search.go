package graph

import (
	"math"
	"slices"
	"sync"
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
//
// The pass keeps every source's ball-size row while the searches stay
// within ProfileRadius(n, -1) = 3⌈√n⌉+8, each cut at the row's first
// t with t·|B_t| ≥ ProfileStop() like a BallProfiles row; the searches
// themselves run on to the eccentricities. When every search reaches
// all n nodes within that radius, the graph is connected with D at most
// that radius, and the rows are exactly BallProfiles(ProfileRadius(n,
// D)): they are attached as the graph's profiles (unless some are
// attached already), so no second all-sources pass grows them. As soon
// as a search passes the radius the remaining batches keep no rows.
func (g *Graph) Diameter() int64 {
	if d := g.diam.Load(); d != 0 {
		return d
	}
	n := g.N()
	stop, keepR := int64(g.ProfileStop()), ProfileRadius(n, -1)
	rowStart := make([]int32, n+1) // row lengths at v+1 while rows are kept
	chunks := make([][]int32, (n+hopBatch-1)/hopBatch)
	var diam atomic.Int64
	var dropped atomic.Bool
	forEachHopBatch(n, MaxKernelWorkers(), func() bool { return diam.Load() >= Inf }, func(lo, hi int) {
		var ecc [hopBatch]int64
		var src [hopBatch]int
		var rows *hopRows
		if !dropped.Load() {
			rows = &hopRows{stop: stop, keepR: keepR, lens: rowStart[lo+1 : hi+1]}
		}
		if out := g.hopKernel(hopRange(&src, lo, hi), n, ecc[:hi-lo], rows, nil); out != nil {
			chunks[lo/hopBatch] = out
		} else {
			dropped.Store(true)
		}
		d := slices.Max(ecc[:hi-lo])
		for cur := diam.Load(); d > cur && !diam.CompareAndSwap(cur, d); cur = diam.Load() {
		}
	})
	d := diam.Load()
	if n > 0 && d < Inf && !dropped.Load() {
		g.profiles.CompareAndSwap(nil, newProfiles(n, ProfileRadius(n, d), stop, rowStart, chunks))
	}
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
				h.Push(u, nd)
			}
		}
	}
	return dist
}

// HopLimitedDistances returns d^h(src, ·): the weight of the lightest path
// using at most h edges (Inf if no such path). Synchronous frontier
// Bellman–Ford with at most h relaxation rounds, O(h·m); see
// HopLimitedDistancesInto.
func (g *Graph) HopLimitedDistances(src, h int) []int64 {
	return g.HopLimitedDistancesInto(make([]int64, g.N()), src, h)
}

// hopEntry is one frontier entry of the hop-limited Bellman–Ford: a node
// improved in the previous round and its distance when that round ended.
type hopEntry struct {
	v int32
	d int64
}

// hopLimitedScratch is the pooled scratch of HopLimitedDistancesInto:
// two frontier lists, the membership marks of the next one (all false
// between rounds) and each worker's improvements in a sharded round.
type hopLimitedScratch struct {
	active, next []hopEntry
	marked       []bool
	found        [][]int32
}

// HopLimitedDistancesInto is HopLimitedDistances writing into dist,
// which must have length n, and returning it, so a caller looping over
// sources reuses one vector. Its scratch is pooled on the graph, so it
// allocates nothing once warm.
//
// Round r relaxes from the (node, distance) pairs captured when round
// r−1 ended, so it computes exactly d^r whatever the schedule: every
// node improved in the round joins the next frontier with its
// end-of-round distance. A round whose frontier is shorter than
// kernelGrain·MaxKernelWorkers() relaxes inline with plain stores; a
// wider one shards over the workers (relaxSharded), and since the
// improved set and its distances are schedule-independent the output
// is identical at any worker count.
func (g *Graph) HopLimitedDistancesInto(dist []int64, src, h int) []int64 {
	return g.hopLimitedInto(dist, src, h, MaxKernelWorkers())
}

func (g *Graph) hopLimitedInto(dist []int64, src, h, workers int) []int64 {
	n := g.N()
	fillInf(dist)
	if src < 0 || src >= n {
		return dist
	}
	dist[src] = 0
	s, _ := g.hopLimitedPool.Get().(*hopLimitedScratch)
	if s == nil || len(s.marked) < n {
		s = &hopLimitedScratch{marked: make([]bool, n)}
	}
	defer g.hopLimitedPool.Put(s)
	active, next, marked := append(s.active[:0], hopEntry{int32(src), 0}), s.next[:0], s.marked
	for round := 0; round < h && len(active) > 0; round++ {
		next = next[:0]
		if workers <= 1 || len(active) < kernelGrain*workers {
			for _, e := range active {
				lo, hi := g.rowStart[e.v], g.rowStart[e.v+1]
				row, rw := g.to[lo:hi], g.w[lo:hi]
				rw = rw[:len(row)]
				for j, u := range row {
					if nd := e.d + rw[j]; nd < dist[u] {
						dist[u] = nd
						if !marked[u] {
							marked[u] = true
							next = append(next, hopEntry{v: u})
						}
					}
				}
			}
		} else {
			if len(s.found) < workers {
				s.found = make([][]int32, workers)
			}
			g.relaxSharded(active, dist, s.found[:workers])
			for _, found := range s.found[:workers] {
				for _, u := range found {
					if !marked[u] {
						marked[u] = true
						next = append(next, hopEntry{v: u})
					}
				}
			}
		}
		for i, e := range next {
			next[i].d = dist[e.v]
			marked[e.v] = false
		}
		active, next = next, active
	}
	s.active, s.next = active, next
	return dist
}

// relaxSharded relaxes one wide round: len(found) workers claim
// 256-entry chunks of active and lower dist through atomic min
// transitions, each listing in found[w] the nodes it improved (a node
// may appear more than once). It is a function of its own because its
// goroutines capture their arguments, which must then live on the heap;
// inlined into hopLimitedInto it would move the frontier there on every
// call, sharded or not.
func (g *Graph) relaxSharded(active []hopEntry, dist []int64, found [][]int32) {
	const grain = 256
	chunks := (len(active) + grain - 1) / grain
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := range found {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			improved := found[w][:0]
			for {
				ci := int(cursor.Add(1)) - 1
				if ci >= chunks {
					break
				}
				for _, e := range active[ci*grain : min((ci+1)*grain, len(active))] {
					lo, hi := g.rowStart[e.v], g.rowStart[e.v+1]
					row, rw := g.to[lo:hi], g.w[lo:hi]
					rw = rw[:len(row)]
					for j, u := range row {
						nd := e.d + rw[j]
						for {
							old := atomic.LoadInt64(&dist[u])
							if nd >= old {
								break
							}
							if atomic.CompareAndSwapInt64(&dist[u], old, nd) {
								improved = append(improved, u)
								break
							}
						}
					}
				}
			}
			found[w] = improved
		}(w)
	}
	wg.Wait()
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
