package graph

// The bit-parallel all-sources hop kernel (DESIGN.md §10): the
// multi-source BFS of Then et al., "The More the Merrier" (VLDB 2015).
// One call runs BFS from up to 64 consecutive sources at once, one bit
// per source in a uint64 word per node, so sources whose balls overlap
// share every edge scan. Both all-sources hop facts the harness needs —
// the exact diameter (Diameter) and the truncated ball profiles
// t ↦ |B_t(v)| (BallProfiles) — are batches of this one kernel.

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// hopBatch is the source width of one kernel call: one bit per source.
const hopBatch = 64

// hopScratch is the pooled state of one kernel call. Between calls
// every word of seen, cur, nxt, curSet and nxtSet is zero.
type hopScratch struct {
	seen, cur, nxt []uint64          // per node: sources that reached it / its frontier bits now / next level
	curSet, nxtSet []uint64          // one bit per node: cur / nxt is nonzero
	levels         [][hopBatch]int32 // levels[t][i] = |B_t(lo+i)|, kept when rows are requested
}

func (g *Graph) getHopScratch() *hopScratch {
	s, _ := g.hopPool.Get().(*hopScratch)
	if n := g.N(); s == nil || len(s.seen) < n {
		words := (n + 63) / 64
		s = &hopScratch{
			seen: make([]uint64, n), cur: make([]uint64, n), nxt: make([]uint64, n),
			curSet: make([]uint64, words), nxtSet: make([]uint64, words),
		}
	}
	return s
}

// hopKernel runs BFS from the sources lo..hi-1 (at most hopBatch of
// them) truncated at radius maxR, and writes source lo+i's
// eccentricity to ecc[i]: exact when its search exhausted the graph,
// Inf when its component excludes part of the graph, EccUnknown when
// maxR cut it off first. When lens is non-nil it also returns every
// source's ball-size row |B_0|, |B_1|, … concatenated in source order,
// with row i's length in lens[i]. A row has BallSizes' truncation: it
// stops at maxR, at |B_t| = n, or one level after the frontier
// empties (so a disconnected node's row repeats its last entry once).
func (g *Graph) hopKernel(lo, hi, maxR int, ecc []int64, lens []int32) []int32 {
	n := g.N()
	nb := hi - lo
	s := g.getHopScratch()
	defer g.hopPool.Put(s)
	seen, cur, nxt, curSet, nxtSet := s.seen, s.cur, s.nxt, s.curSet, s.nxtSet
	rows := lens != nil
	levels := s.levels[:0]

	var total, rowLen [hopBatch]int32
	for i := 0; i < nb; i++ {
		v := lo + i
		seen[v], cur[v] = 1<<i, 1<<i
		curSet[v>>6] |= 1 << (v & 63)
		total[i], rowLen[i] = 1, 1
		ecc[i] = EccUnknown
	}
	wlo, whi := lo>>6, (hi-1)>>6 // the curSet words that may be nonzero
	slo, shi := wlo, whi         // the node words [64·slo, 64·shi+64) hold every nonzero seen word
	if rows {
		levels = append(levels, total)
	}
	live := ^uint64(0) >> (hopBatch - nb) // sources whose rows still grow
	if n == 1 {
		ecc[0], live = 0, 0
	}
	for t := 1; t <= maxR && live != 0; t++ {
		// Expand the frontier one level, in node order. A source's new
		// nodes are the neighbors it has not seen yet; seen absorbs
		// them at once, so later scans of the same level skip them.
		var cnt [hopBatch]int32
		nlo, nhi := len(nxtSet), -1
		for w := wlo; w <= whi; w++ {
			word := curSet[w]
			curSet[w] = 0
			for ; word != 0; word &= word - 1 {
				u := w<<6 | bits.TrailingZeros64(word)
				f := cur[u] & live
				cur[u] = 0
				if f == 0 {
					continue
				}
				row := g.to[g.rowStart[u]:g.rowStart[u+1]]
				if f&(f-1) == 0 {
					// One source: its new neighbors all count for it.
					k := int32(0)
					for _, x := range row {
						if sx := seen[x]; sx&f == 0 {
							seen[x] = sx | f
							nxt[x] |= f
							if xw := x >> 6; nxtSet[xw] == 0 {
								nlo, nhi = min(nlo, int(xw)), max(nhi, int(xw))
							}
							nxtSet[x>>6] |= 1 << (x & 63)
							k++
						}
					}
					cnt[bits.TrailingZeros64(f)] += k
					continue
				}
				for _, x := range row {
					sx := seen[x]
					nw := f &^ sx
					if nw == 0 {
						continue
					}
					seen[x] = sx | nw
					nxt[x] |= nw
					if xw := x >> 6; nxtSet[xw] == 0 {
						nlo, nhi = min(nlo, int(xw)), max(nhi, int(xw))
					}
					nxtSet[x>>6] |= 1 << (x & 63)
					for ; nw != 0; nw &= nw - 1 {
						cnt[bits.TrailingZeros64(nw)]++
					}
				}
			}
		}
		// Every cur word is zero again: swap the levels.
		cur, nxt, curSet, nxtSet = nxt, cur, nxtSet, curSet
		wlo, whi = nlo, nhi
		slo, shi = min(slo, nlo), max(shi, nhi)
		for m := live; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			total[i] += cnt[i]
			rowLen[i]++
			switch {
			case int(total[i]) == n:
				ecc[i] = int64(t)
				live &^= 1 << i
			case cnt[i] == 0:
				ecc[i] = Inf
				live &^= 1 << i
			}
		}
		if rows {
			levels = append(levels, total)
		}
	}
	for w := wlo; w <= whi; w++ {
		for word := curSet[w]; word != 0; word &= word - 1 {
			cur[w<<6|bits.TrailingZeros64(word)] = 0
		}
		curSet[w] = 0
	}
	clear(seen[slo<<6 : min(shi<<6+64, n)])
	s.cur, s.nxt, s.curSet, s.nxtSet, s.levels = cur, nxt, curSet, nxtSet, levels
	if !rows {
		return nil
	}
	entries := 0
	for i := 0; i < nb; i++ {
		lens[i] = rowLen[i]
		entries += int(rowLen[i])
	}
	out := make([]int32, 0, entries)
	for i := 0; i < nb; i++ {
		for t := int32(0); t < rowLen[i]; t++ {
			out = append(out, levels[t][i])
		}
	}
	return out
}

// forEachHopBatch calls fn(lo, hi) for every hopBatch-node source range
// of an n-node graph on up to workers goroutines, which claim batches
// through an atomic cursor, so whatever fn records per batch is the
// same at any worker count. Claiming stops early once stop (if
// non-nil) reports true.
func forEachHopBatch(n, workers int, stop func() bool, fn func(lo, hi int)) {
	batches := (n + hopBatch - 1) / hopBatch
	workers = min(workers, batches)
	var cursor atomic.Int64
	work := func() {
		for stop == nil || !stop() {
			b := int(cursor.Add(1)) - 1
			if b >= batches {
				return
			}
			lo := b * hopBatch
			fn(lo, min(lo+hopBatch, n))
		}
	}
	if workers <= 1 {
		work()
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}
