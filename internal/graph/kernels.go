package graph

// The intra-cell parallel kernel layer (DESIGN.md §14). The per-cell
// workhorses — BFS, multi-source BFS, Dijkstra, hop-limited search —
// are exact algorithms whose outputs are pure functions of the graph,
// so the engine may swap their implementations freely as long as the
// replacement computes the same vectors. On graphs of
// kernelMinN nodes and above, the classic sequential kernels hand off
// to direction-optimizing BFS (this file) and delta-stepping SSSP
// (deltastep.go): level-synchronous and bucket-synchronous algorithms
// whose schedules shard across a worker pool without changing a single
// output byte. Below the threshold the historical implementations run
// unchanged, keeping the committed experiment tables byte-identical.
//
// Sharding follows the BallProfiles pattern: workers claim fixed
// chunks through an atomic cursor and every cross-worker reduction is
// either a pure min (unique fixpoint) or reassembled in node order.
// The bottom-up frontier step shards the node range in 4096-node
// chunks — 64 bitset words — so each worker owns a disjoint word range
// of the next-frontier bitset and needs no atomics to write it.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
)

// maxKernelWorkers is the process-wide worker budget of the parallel
// kernels; 0 selects GOMAXPROCS. cmd/hybridsim and cmd/nq thread their
// -workers flag through here.
var maxKernelWorkers atomic.Int32

// SetMaxKernelWorkers sets the worker budget of the parallel kernels
// (direction-optimizing BFS, delta-stepping, the congest round engine
// and the NQ batch kernel all consult it). w ≤ 0 restores the default
// GOMAXPROCS. Outputs never depend on the setting — every kernel is
// byte-identical at any worker count — so it is purely a resource
// knob.
func SetMaxKernelWorkers(w int) {
	if w < 0 {
		w = 0
	}
	maxKernelWorkers.Store(int32(w))
}

// MaxKernelWorkers returns the resolved worker budget (GOMAXPROCS
// unless SetMaxKernelWorkers overrode it).
func MaxKernelWorkers() int {
	if v := maxKernelWorkers.Load(); v > 0 {
		return int(v)
	}
	return runtime.GOMAXPROCS(0)
}

const (
	// kernelMinN is the auto-selection threshold of the parallel
	// kernels: below it the sequential implementations win on constant
	// factors (and the committed experiment tables, all swept at
	// n ≤ 16384, stay on their historical code paths); from it upward
	// BFS, MultiSourceBFS, Dijkstra, MultiSourceDijkstra and
	// HopLimitedDistances route to this file and deltastep.go (Dijkstra
	// on unit weights through BFS).
	kernelMinN = 1 << 15
	// kernelChunk is the node-range shard of the bottom-up step:
	// 4096 nodes = 64 bitset words, so each worker's next-frontier
	// writes land in a disjoint word range.
	kernelChunk = 1 << 12
	// kernelGrain is the minimum frontier size a level fans out at;
	// below it the level runs inline on the calling goroutine (a path
	// graph's one-node frontiers never pay goroutine overhead).
	kernelGrain = 2048
	// bfsAlpha and bfsBeta are the direction-switching constants of
	// Beamer's heuristic: top-down switches to bottom-up once the
	// frontier's out-edges exceed 1/bfsAlpha of the unexplored edges,
	// and back once the frontier shrinks below n/bfsBeta nodes.
	bfsAlpha = 14
	bfsBeta  = 24
)

// bfsWorker is one worker's private state across the levels of a
// direction-optimizing BFS.
type bfsWorker struct {
	found []int32 // nodes this worker discovered in the current level
	idx   []int   // AppendIndicesRange scratch for bottom-up chunks
	count int     // discoveries in the current level
	edges int64   // out-degree sum of those discoveries
}

// bfsScratch is the pooled state of one direction-optimizing BFS run.
type bfsScratch struct {
	cur, next bitset.Set // frontier bitsets for the bottom-up regime
	unvisited bitset.Set
	frontier  []int32 // frontier list for the top-down regime
	nextList  []int32
	workers   []bfsWorker
}

func (g *Graph) getBFSScratch(workers int) *bfsScratch {
	s, _ := g.kernelPool.Get().(*bfsScratch)
	n := g.N()
	if s == nil || s.unvisited.Len() < n {
		s = &bfsScratch{
			cur:       bitset.New(n),
			next:      bitset.New(n),
			unvisited: bitset.New(n),
		}
	}
	if len(s.workers) < workers {
		s.workers = make([]bfsWorker, workers)
	}
	return s
}

// BFSWorkers is BFS with an explicit worker count (≤ 0 means the
// process budget, MaxKernelWorkers): the direction-optimizing kernel
// at any n. The output is identical at any worker count.
func (g *Graph) BFSWorkers(src, workers int) []int64 {
	dist := newDistVector(g.N())
	g.bfsDirOpt([]int{src}, dist, nil, workers)
	return dist
}

// MultiSourceBFSWorkers is MultiSourceBFS with an explicit worker
// count (≤ 0 means MaxKernelWorkers); it preserves the documented
// tie-break exactly — the nearest source of a node is the one with the
// smallest position in srcs among those at minimal distance — so the
// output matches the sequential implementation byte for byte.
func (g *Graph) MultiSourceBFSWorkers(srcs []int, workers int) (dist []int64, nearest []int) {
	n := g.N()
	dist = newDistVector(n)
	nearest = make([]int, n)
	for i := range nearest {
		nearest[i] = -1
	}
	g.bfsDirOpt(srcs, dist, nearest, workers)
	return dist, nearest
}

// newDistVector allocates a distance vector initialized to Inf.
func newDistVector(n int) []int64 {
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = Inf
	}
	return dist
}

// bfsDirOpt is the direction-optimizing BFS core. It fills dist (and
// nearest when non-nil, with the min-source-index tie-break) from the
// sources, level-synchronously: every level the whole frontier is
// fixed before any discovery of the next one, so dist is the unique
// BFS level assignment and nearest[v] the unique minimum over v's
// predecessors — schedule-independence is structural, not incidental.
func (g *Graph) bfsDirOpt(srcs []int, dist []int64, nearest []int, workers int) {
	n := g.N()
	if workers <= 0 {
		workers = MaxKernelWorkers()
	}
	s := g.getBFSScratch(workers)
	defer g.kernelPool.Put(s)
	unvisited := s.unvisited
	unvisited.Fill()

	frontier := s.frontier[:0]
	var frontierEdges int64
	for i, src := range srcs {
		if src < 0 || src >= n || dist[src] != Inf {
			continue
		}
		dist[src] = 0
		if nearest != nil {
			nearest[src] = i
		}
		unvisited.Remove(src)
		frontier = append(frontier, int32(src))
		frontierEdges += int64(g.rowStart[src+1] - g.rowStart[src])
	}
	frontierCount := len(frontier)
	unvisitedEdges := int64(len(g.to)) - frontierEdges
	topDown := true

	for level := int64(1); frontierCount > 0; level++ {
		if topDown && frontierEdges > unvisitedEdges/bfsAlpha {
			// Materialize the frontier as a bitset and go bottom-up.
			s.cur.Clear()
			for _, v := range frontier {
				s.cur.Add(int(v))
			}
			topDown = false
		} else if !topDown && frontierCount < n/bfsBeta {
			frontier = appendInt32Indices(s.cur, frontier[:0], 0, n)
			topDown = true
		}
		if topDown {
			frontier, frontierCount, frontierEdges = g.topDownLevel(frontier, level, dist, nearest, workers, s)
		} else {
			frontierCount, frontierEdges = g.bottomUpLevel(level, dist, nearest, workers, s)
			s.cur, s.next = s.next, s.cur
		}
		unvisitedEdges -= frontierEdges
	}
	s.frontier = frontier[:0]
}

// appendInt32Indices enumerates the set bits of b in [lo,hi) into dst.
func appendInt32Indices(b bitset.Set, dst []int32, lo, hi int) []int32 {
	// Route through the word-skipping bitset drain via a small batch
	// buffer to avoid an O(n) per-bit probe.
	var buf [256]int
	for ; lo < hi; lo += 256 {
		end := lo + 256
		if end > hi {
			end = hi
		}
		for _, v := range b.AppendIndicesRange(buf[:0], lo, end) {
			dst = append(dst, int32(v))
		}
	}
	return dst
}

// topDownLevel expands one level from the frontier list, returning the
// next frontier list with its node count and out-degree sum. Discovery
// claims are CAS transitions Inf → level on dist, so each node joins
// the next frontier exactly once; nearest is then resolved in a second
// pass as the minimum over the node's level-(L-1) neighbors, which is
// schedule-independent.
func (g *Graph) topDownLevel(frontier []int32, level int64, dist []int64, nearest []int, workers int, s *bfsScratch) ([]int32, int, int64) {
	next := s.nextList[:0]
	if workers <= 1 || len(frontier) < kernelGrain {
		// Inline path: plain writes, with the same min-index resolution
		// for nearest (the else-branch) so the result does not depend on
		// the frontier's internal order.
		var edges int64
		for _, v := range frontier {
			var nr int
			if nearest != nil {
				nr = nearest[v]
			}
			for _, u := range g.to[g.rowStart[v]:g.rowStart[v+1]] {
				if dist[u] == Inf {
					dist[u] = level
					if nearest != nil {
						nearest[u] = nr
					}
					next = append(next, u)
					edges += int64(g.rowStart[u+1] - g.rowStart[u])
				} else if nearest != nil && dist[u] == level && nr < nearest[u] {
					nearest[u] = nr
				}
			}
		}
		for _, u := range next {
			s.unvisited.Remove(int(u))
		}
		s.nextList, s.frontier = frontier, next
		return next, len(next), edges
	}

	// Parallel path: workers claim fixed frontier chunks.
	const grain = 256
	chunks := (len(frontier) + grain - 1) / grain
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(ws *bfsWorker) {
			defer wg.Done()
			found := ws.found[:0]
			for {
				ci := int(cursor.Add(1)) - 1
				if ci >= chunks {
					break
				}
				lo := ci * grain
				hi := lo + grain
				if hi > len(frontier) {
					hi = len(frontier)
				}
				for _, v := range frontier[lo:hi] {
					for _, u := range g.to[g.rowStart[v]:g.rowStart[v+1]] {
						if atomic.LoadInt64(&dist[u]) == Inf &&
							atomic.CompareAndSwapInt64(&dist[u], Inf, level) {
							found = append(found, u)
						}
					}
				}
			}
			ws.found = found
		}(&s.workers[w])
	}
	wg.Wait()

	// Node-ordered reassembly is unnecessary here — the next frontier's
	// internal order is unobservable (level-synchronous dist, min-pass
	// nearest) — so the worker lists concatenate directly.
	var edges int64
	for w := 0; w < workers; w++ {
		for _, u := range s.workers[w].found {
			next = append(next, u)
			s.unvisited.Remove(int(u))
			edges += int64(g.rowStart[u+1] - g.rowStart[u])
		}
	}
	if nearest != nil {
		g.resolveNearest(next, level, dist, nearest, workers)
	}
	s.nextList, s.frontier = frontier, next
	return next, len(next), edges
}

// resolveNearest sets nearest[u] = min over u's neighbors at the
// previous level, for every u in the freshly discovered slice. Each u
// is owned by one chunk, previous-level values are stable, so the pass
// is race-free and deterministic.
func (g *Graph) resolveNearest(nodes []int32, level int64, dist []int64, nearest []int, workers int) {
	prev := level - 1
	resolve := func(u int32) {
		best := int(^uint(0) >> 1)
		for _, w := range g.to[g.rowStart[u]:g.rowStart[u+1]] {
			if dist[w] == prev && nearest[w] < best {
				best = nearest[w]
			}
		}
		nearest[u] = best
	}
	if workers <= 1 || len(nodes) < kernelGrain {
		for _, u := range nodes {
			resolve(u)
		}
		return
	}
	const grain = 256
	chunks := (len(nodes) + grain - 1) / grain
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ci := int(cursor.Add(1)) - 1
				if ci >= chunks {
					return
				}
				lo := ci * grain
				hi := lo + grain
				if hi > len(nodes) {
					hi = len(nodes)
				}
				for _, u := range nodes[lo:hi] {
					resolve(u)
				}
			}
		}()
	}
	wg.Wait()
}

// bottomUpLevel expands one level in the bottom-up direction: every
// unvisited node probes its neighbors against the current frontier
// bitset (s.cur) and joins s.next on a hit. The node range shards in
// kernelChunk pieces aligned to bitset words, so dist, nearest and the
// next-frontier words are written exclusively by the owning worker.
func (g *Graph) bottomUpLevel(level int64, dist []int64, nearest []int, workers int, s *bfsScratch) (int, int64) {
	n := g.N()
	cur, next, unvisited := s.cur, s.next, s.unvisited
	next.Clear()
	chunks := (n + kernelChunk - 1) / kernelChunk

	scan := func(ws *bfsWorker, ci int) {
		lo := ci * kernelChunk
		hi := lo + kernelChunk
		if hi > n {
			hi = n
		}
		if unvisited.CountRange(lo, hi) == 0 {
			return
		}
		ws.idx = unvisited.AppendIndicesRange(ws.idx[:0], lo, hi)
		for _, v := range ws.idx {
			hit := false
			if nearest == nil {
				for _, u := range g.to[g.rowStart[v]:g.rowStart[v+1]] {
					if cur.Has(int(u)) {
						hit = true
						break
					}
				}
			} else {
				// The min over frontier neighbors needs the full row.
				best := int(^uint(0) >> 1)
				for _, u := range g.to[g.rowStart[v]:g.rowStart[v+1]] {
					if cur.Has(int(u)) && nearest[u] < best {
						best = nearest[u]
						hit = true
					}
				}
				if hit {
					nearest[v] = best
				}
			}
			if hit {
				dist[v] = level
				next.Add(v)
				ws.count++
				ws.edges += int64(g.rowStart[v+1] - g.rowStart[v])
			}
		}
	}

	if workers <= 1 {
		ws := &s.workers[0]
		ws.count, ws.edges = 0, 0
		for ci := 0; ci < chunks; ci++ {
			scan(ws, ci)
		}
		unvisited.AndNotFrom(unvisited, next)
		return ws.count, ws.edges
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(ws *bfsWorker) {
			defer wg.Done()
			ws.count, ws.edges = 0, 0
			for {
				ci := int(cursor.Add(1)) - 1
				if ci >= chunks {
					return
				}
				scan(ws, ci)
			}
		}(&s.workers[w])
	}
	wg.Wait()
	count, edges := 0, int64(0)
	for w := 0; w < workers; w++ {
		count += s.workers[w].count
		edges += s.workers[w].edges
	}
	unvisited.AndNotFrom(unvisited, next)
	return count, edges
}

// HopLimitedDistancesWorkers is HopLimitedDistances with an explicit
// worker count (≤ 0 means MaxKernelWorkers): a strictly synchronous
// frontier Bellman–Ford. Each round relaxes from the (node, distance)
// pairs captured at the end of the previous round, so round r computes
// exactly d^r regardless of the schedule; improvements land through
// atomic min transitions and the improved set is schedule-independent
// (a node improved iff the round's minimum beats its previous value).
func (g *Graph) HopLimitedDistancesWorkers(src, h, workers int) []int64 {
	n := g.N()
	if workers <= 0 {
		workers = MaxKernelWorkers()
	}
	dist := newDistVector(n)
	if src < 0 || src >= n {
		return dist
	}
	dist[src] = 0
	type frontierEntry struct {
		v int32
		d int64
	}
	active := []frontierEntry{{int32(src), 0}}
	var next []frontierEntry
	perWorker := make([][]int32, workers)
	improved := bitset.New(n)

	relaxChunk := func(lo, hi int, found []int32) []int32 {
		for _, e := range active[lo:hi] {
			row := g.to[g.rowStart[e.v]:g.rowStart[e.v+1]]
			rw := g.w[g.rowStart[e.v]:g.rowStart[e.v+1]]
			for j, u := range row {
				nd := e.d + rw[j]
				for {
					old := atomic.LoadInt64(&dist[u])
					if nd >= old {
						break
					}
					if atomic.CompareAndSwapInt64(&dist[u], old, nd) {
						found = append(found, u)
						break
					}
				}
			}
		}
		return found
	}

	for round := 0; round < h && len(active) > 0; round++ {
		for w := range perWorker {
			perWorker[w] = perWorker[w][:0]
		}
		if workers <= 1 || len(active) < kernelGrain {
			perWorker[0] = relaxChunk(0, len(active), perWorker[0])
		} else {
			const grain = 256
			chunks := (len(active) + grain - 1) / grain
			var cursor atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					found := perWorker[w][:0]
					for {
						ci := int(cursor.Add(1)) - 1
						if ci >= chunks {
							break
						}
						lo := ci * grain
						hi := lo + grain
						if hi > len(active) {
							hi = len(active)
						}
						found = relaxChunk(lo, hi, found)
					}
					perWorker[w] = found
				}(w)
			}
			wg.Wait()
		}
		// Capture the next round's frontier: improved nodes with their
		// end-of-round distances, deduplicated through a bitset (a node
		// may improve several times within one round).
		next = next[:0]
		for w := range perWorker {
			for _, u := range perWorker[w] {
				if !improved.Has(int(u)) {
					improved.Add(int(u))
					next = append(next, frontierEntry{u, dist[u]})
				}
			}
		}
		for _, e := range next {
			improved.Remove(int(e.v))
		}
		active, next = next, active
	}
	return dist
}
