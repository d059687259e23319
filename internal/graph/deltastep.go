package graph

// Delta-stepping SSSP (DESIGN.md §14). On large graphs the
// binary-heap Dijkstra spends its time in O(log n) sift chains; the
// bucket relaxation here replaces them with O(1) appends. Distances
// are partitioned into width-Δ buckets drained in increasing order;
// draining a bucket relaxes every out-edge of its members, and
// re-drains members the relaxations pull further down, until the
// bucket reaches its fixpoint. Entries are never deleted — a stale
// entry (the node has since moved to a lower bucket, or was already
// drained at its current distance) is skipped lazily.
//
// Determinism does not rest on the drain schedule: bucket b's fixpoint
// is min over all paths through nodes with distance < (b+1)Δ, a pure
// function of the graph, so the final vector is byte-identical at any
// worker count.

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// deltaGrain is the minimum drain-list share per worker a relaxation
// phase fans out at (a list shorter than deltaGrain·workers runs
// inline): a path graph's one-node buckets never pay goroutine or
// merge overhead, and the inline path also skips the atomic loads the
// sharded relaxation needs.
const deltaGrain = 2048

// deltaScratch is the pooled state of one delta-stepping run.
type deltaScratch struct {
	buckets   [][]int32   // ring of K drain lists
	spare     []int32     // recycled storage for the list being drained
	drainedAt []int64     // dist value at the node's last drain; -1 never
	perWorker [][][]int32 // [worker][ring slot] push buffers
}

func (g *Graph) getDeltaScratch(workers, ringK int) *deltaScratch {
	s, _ := g.deltaPool.Get().(*deltaScratch)
	n := g.N()
	if s == nil {
		s = &deltaScratch{}
	}
	if len(s.drainedAt) < n {
		s.drainedAt = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		s.drainedAt[i] = -1
	}
	if len(s.buckets) < ringK {
		s.buckets = make([][]int32, ringK)
	}
	for i := range s.buckets {
		s.buckets[i] = s.buckets[i][:0]
	}
	if len(s.perWorker) < workers {
		s.perWorker = make([][][]int32, workers)
	}
	for w := range s.perWorker {
		if len(s.perWorker[w]) < ringK {
			s.perWorker[w] = make([][]int32, ringK)
		}
	}
	return s
}

// deltaParams picks the bucket width Δ and the ring size K (no
// tentative distance produced while draining bucket b lands past
// bucket b+maxW/Δ+1, so a ring of that many slots never wraps onto
// live entries). Δ follows the Meyer–Sanders prescription Θ(mean/deg):
// wide buckets on sparse graphs keep the drain loop from spinning
// through empty slots, while on dense graphs the width shrinks —
// down to Δ = 1, where integer weights make every improvement change
// buckets and each bucket reaches its fixpoint in a single pass —
// because each intra-bucket re-drain re-relaxes all deg(v) out-edges.
// Δ only shifts work between passes; the fixpoint (and so the output)
// is the same for any width.
func (g *Graph) deltaParams() (delta int64, ringK int) {
	// The parameters are a pure function of the weights; cache
	// them on the graph (packed into one word) so repeated SSSP calls
	// skip the full edge-weight scan. Racing writers store the same
	// value, like the diameter cache.
	if packed := g.deltaCache.Load(); packed != 0 {
		return packed >> 16, int(packed & 0xFFFF)
	}
	var sum, maxW int64
	for _, w := range g.w {
		sum += w
		if w > maxW {
			maxW = w
		}
	}
	delta = 1
	if n := int64(g.N()); len(g.w) > 0 && n > 0 {
		mean := sum / int64(len(g.w))
		if avgDeg := int64(len(g.w)) / n; avgDeg > 0 {
			delta = mean / avgDeg
		} else {
			delta = mean
		}
	}
	// Round Δ down and the ring size up to powers of two: the per-edge
	// bucket computations become shifts and masks instead of 64-bit
	// divisions (two per improved edge on the hot path).
	for delta&(delta-1) != 0 {
		delta &= delta - 1
	}
	if delta < 1 {
		delta = 1
	}
	ringK = 2
	for int64(ringK) < maxW/delta+2 {
		ringK *= 2
	}
	if delta < 1<<46 && ringK < 1<<16 {
		g.deltaCache.Store(delta<<16 | int64(ringK))
	}
	return delta, ringK
}

// DeltaStepping returns weighted distances d(src, ·) like Dijkstra,
// computed by the delta-stepping bucket kernel with the given worker
// count (≤ 0 means MaxKernelWorkers). Output is byte-identical to
// Dijkstra at any worker count.
func (g *Graph) DeltaStepping(src, workers int) []int64 {
	dist := newDistVector(g.N())
	if src < 0 || src >= g.N() {
		return dist
	}
	if workers <= 0 {
		workers = MaxKernelWorkers()
	}
	delta, ringK := g.deltaParams()
	shift := uint(bits.TrailingZeros64(uint64(delta)))
	ringMask := int64(ringK - 1)
	s := g.getDeltaScratch(workers, ringK)
	defer g.deltaPool.Put(s)

	dist[src] = 0
	s.buckets[0] = append(s.buckets[0], int32(src))
	pending := 1

	// relaxSeq drains one entry on the calling goroutine with plain
	// loads and stores — safe whenever no sharded drain is in flight
	// (drainParallel's goroutines are joined before any inline drain
	// runs, so the accesses are ordered). Returns pushes made.
	relaxSeq := func(v int32, b int64, push [][]int32) int {
		dv := dist[v]
		if dv>>shift != b || s.drainedAt[v] == dv {
			return 0
		}
		s.drainedAt[v] = dv
		pushes := 0
		lo, hi := g.rowStart[v], g.rowStart[v+1]
		row, rw := g.to[lo:hi], g.w[lo:hi]
		for j, u := range row {
			if nd := dv + rw[j]; nd < dist[u] {
				dist[u] = nd
				push[(nd>>shift)&ringMask] = append(push[(nd>>shift)&ringMask], u)
				pushes++
			}
		}
		return pushes
	}

	// relaxFrom is the sharded-drain counterpart: the same relaxation
	// through an atomic min on dist, so concurrent workers compose.
	relaxFrom := func(v int32, b int64, push [][]int32) int {
		dv := atomic.LoadInt64(&dist[v])
		if dv>>shift != b || atomic.LoadInt64(&s.drainedAt[v]) == dv {
			return 0
		}
		atomic.StoreInt64(&s.drainedAt[v], dv)
		pushes := 0
		lo, hi := g.rowStart[v], g.rowStart[v+1]
		row, rw := g.to[lo:hi], g.w[lo:hi]
		for j, u := range row {
			nd := dv + rw[j]
			for {
				old := atomic.LoadInt64(&dist[u])
				if nd >= old {
					break
				}
				if atomic.CompareAndSwapInt64(&dist[u], old, nd) {
					push[(nd>>shift)&ringMask] = append(push[(nd>>shift)&ringMask], u)
					pushes++
					break
				}
			}
		}
		return pushes
	}

	for b := int64(0); pending > 0; b++ {
		slot := int(b & ringMask)
		for len(s.buckets[slot]) > 0 {
			list := s.buckets[slot]
			s.buckets[slot] = s.spare[:0]
			pending -= len(list)
			if workers <= 1 || len(list) < deltaGrain*workers {
				pending += g.drainInline(list, b, relaxSeq, s)
			} else {
				pending += g.drainParallel(list, b, workers, relaxFrom, s)
			}
			s.spare = list[:0]
		}
	}
	return dist
}

// drainInline processes one drain list on the calling goroutine,
// pushing straight into the ring.
func (g *Graph) drainInline(list []int32, b int64, relaxFrom func(int32, int64, [][]int32) int, s *deltaScratch) int {
	pushes := 0
	for _, v := range list {
		pushes += relaxFrom(v, b, s.buckets)
	}
	return pushes
}

// drainParallel shards one drain list across the worker pool; each
// worker pushes into its private per-slot buffers, which merge into
// the ring after the barrier.
func (g *Graph) drainParallel(list []int32, b int64, workers int, relaxFrom func(int32, int64, [][]int32) int, s *deltaScratch) int {
	const grain = 256
	chunks := (len(list) + grain - 1) / grain
	pushCounts := make([]int, workers)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			push := s.perWorker[w]
			pushes := 0
			for {
				ci := int(cursor.Add(1)) - 1
				if ci >= chunks {
					break
				}
				lo := ci * grain
				hi := lo + grain
				if hi > len(list) {
					hi = len(list)
				}
				for _, v := range list[lo:hi] {
					pushes += relaxFrom(v, b, push)
				}
			}
			pushCounts[w] = pushes
		}(w)
	}
	wg.Wait()
	total := 0
	for w := 0; w < workers; w++ {
		total += pushCounts[w]
		for slot, buf := range s.perWorker[w] {
			if len(buf) > 0 {
				s.buckets[slot] = append(s.buckets[slot], buf...)
				s.perWorker[w][slot] = buf[:0]
			}
		}
	}
	return total
}
