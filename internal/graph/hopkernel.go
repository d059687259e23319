package graph

// The bit-parallel all-sources hop kernel (DESIGN.md §10): the
// multi-source BFS of Then et al., "The More the Merrier" (VLDB 2015).
// One call runs BFS from up to 64 sources at once, one bit per source
// in a uint64 word per node, so sources whose balls overlap share every
// edge scan. Every all-sources hop question the harness asks is a run
// of batches of this one kernel: the exact diameter (Diameter, which
// also keeps the ball profiles when they are short), the truncated
// ball profiles t ↦ |B_t(v)| (BallProfiles), both over consecutive
// node ranges, and the pairwise hop distances among a node list
// (HopDistancesAmong, the unit-weight skeleton edges of
// Definition 6.2), whose batches are slices of the list and whose
// first-hit sink records when each source reaches each listed node.
//
// Each level runs in one of two directions, the direction-optimizing
// BFS of Beamer et al. (SC 2012) applied per batch. A push level walks
// the frontier and ORs each frontier node's bits into its neighbours;
// a pull level walks every node that some live source has not reached
// and ORs its neighbours' frontier bits into it, writing only its own
// words. Pulling pays for every unreached node's edges, pushing for
// every frontier node's edges and every new (source, node) pair, so
// the kernel pulls exactly when the second estimate is the larger one
// (pullLevel). Both directions reach the same nodes at every level.

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
	levels         [][hopBatch]int32 // levels[t][i] = |B_t(src[i])|, kept when rows are requested
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

// hopRange returns the consecutive sources lo..hi-1 of one batch, held
// in buf: the batches of Diameter and BallProfiles.
func hopRange(buf *[hopBatch]int, lo, hi int) []int {
	src := buf[:hi-lo]
	for i := range src {
		src[i] = lo + i
	}
	return src
}

// hopSink records, for one kernel call, the first hop at which each
// source reaches each node of a target set: when source i reaches
// target x at hop t ≤ maxR, hit[i*cols+col[x]] = t. The caller zeroes
// hit before the call, so 0 marks a target not reached within maxR (or
// the source itself, reached at hop 0).
type hopSink struct {
	set  []uint64 // one bit per node: the target set
	col  []int32  // per node: its column in hit (read for targets only)
	cols int      // columns per source row
	hit  []int32  // len(src)·cols first hops
}

// record writes the first hop t of every (source, target) pair the
// frontier cur/curSet[wlo..whi] holds: the frontier's bits are exactly
// the pairs reached at hop t.
func (sink *hopSink) record(t int, cur, curSet []uint64, wlo, whi int) {
	for w := wlo; w <= whi; w++ {
		for word := curSet[w] & sink.set[w]; word != 0; word &= word - 1 {
			x := w<<6 | bits.TrailingZeros64(word)
			c := int(sink.col[x])
			for f := cur[x]; f != 0; f &= f - 1 {
				sink.hit[bits.TrailingZeros64(f)*sink.cols+c] = int32(t)
			}
		}
	}
}

// hopRows asks hopKernel for every source's ball-size row |B_0|,
// |B_1|, …, which ends at the first t where one of these holds:
// |B_t| = n; the frontier emptied a level before (so a disconnected
// source's row repeats its last entry once); t·|B_t| ≥ stop, the first
// radius that decides Definition 3.1's condition for every k ≤ stop;
// or t = maxR.
type hopRows struct {
	stop  int64   // K = ProfileStop()
	keepR int     // the kernel drops every row once a search is still growing past this radius
	lens  []int32 // row i's length, written by the kernel unless it drops the rows
}

// hopKernel runs BFS from the distinct sources src (at most hopBatch of
// them) truncated at radius maxR. When ecc is non-nil it writes source
// i's eccentricity to ecc[i] as its search ends: exact when it
// exhausted the graph, Inf when its component excludes part of the
// graph; ecc[i] is left alone when maxR cuts the search off first.
// When sink is non-nil it records the first
// hops to its targets. When rows is non-nil it also returns every
// source's row (see hopRows) concatenated in source order, with row i's
// length in rows.lens[i] — unless some search is still growing past
// radius rows.keepR, in which case it drops the rows, leaves lens alone
// and returns nil. A source whose row has ended stops searching unless
// its eccentricity is asked for.
func (g *Graph) hopKernel(src []int, maxR int, ecc []int64, rows *hopRows, sink *hopSink) []int32 {
	n := g.N()
	nb := len(src)
	s := g.getHopScratch()
	defer g.hopPool.Put(s)
	seen, cur, nxt, curSet, nxtSet := s.seen, s.cur, s.nxt, s.curSet, s.nxtSet
	levels := s.levels[:0]
	var total, rowLen [hopBatch]int32
	wlo, whi := len(curSet), -1 // the curSet words that may be nonzero
	for i, v := range src {
		seen[v], cur[v] = 1<<i, 1<<i
		curSet[v>>6] |= 1 << (v & 63)
		wlo, whi = min(wlo, v>>6), max(whi, v>>6)
		total[i], rowLen[i] = 1, 1
	}
	slo, shi := wlo, whi // the node words [64·slo, 64·shi+64) hold every nonzero seen word

	live := ^uint64(0) >> (hopBatch - nb) // sources still searching
	if n == 1 {
		live = 0
		if ecc != nil {
			ecc[0] = 0
		}
	}
	var growing uint64 // sources whose rows still grow
	var stop int64     // rows.stop
	rowMax := 0        // the most entries a row can have
	retire := false    // a source retires when its row ends
	if rows != nil {
		growing, stop = live, rows.stop
		rowMax = min(maxR, rows.keepR, n) + 1
		retire = ecc == nil
		levels = appendLevel(levels, &total, rowMax)
	}
	pairs := nb // new (source, node) pairs of the last level
	for t := 1; t <= maxR && live != 0; t++ {
		if rows != nil && t > rows.keepR {
			rows, growing = nil, 0
		}
		var cnt [hopBatch]int32
		nlo, nhi := len(nxtSet), -1
		if g.pullLevel(pairs, curSet, wlo, whi) {
			nlo, nhi = g.pullHopLevel(live, seen, cur, nxt, curSet, nxtSet, wlo, whi, &cnt)
		} else {
			// Expand the frontier one level, in node order. A source's new
			// nodes are the neighbors it has not seen yet; seen absorbs
			// them at once, so later scans of the same level skip them.
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
		}
		// Every cur word is zero again: swap the levels.
		cur, nxt, curSet, nxtSet = nxt, cur, nxtSet, curSet
		wlo, whi = nlo, nhi
		slo, shi = min(slo, nlo), max(shi, nhi)
		if sink != nil {
			sink.record(t, cur, curSet, wlo, whi)
		}
		pairs = 0
		grew := growing
		for m := live; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			total[i] += cnt[i]
			pairs += int(cnt[i])
			full, exhausted := int(total[i]) == n, cnt[i] == 0
			if grew&(1<<i) != 0 {
				rowLen[i]++
				if full || exhausted || int64(t)*int64(total[i]) >= stop {
					growing &^= 1 << i
				}
			}
			switch {
			case full:
				if ecc != nil {
					ecc[i] = int64(t)
				}
				live &^= 1 << i
			case exhausted:
				if ecc != nil {
					ecc[i] = Inf
				}
				live &^= 1 << i
			}
		}
		if grew != 0 {
			levels = appendLevel(levels, &total, rowMax)
		}
		if retire {
			live &= growing
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
	if rows == nil {
		return nil
	}
	entries := 0
	for i := 0; i < nb; i++ {
		rows.lens[i] = rowLen[i]
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

// appendLevel appends one level's ball sizes to levels. It grows them
// by doubling, as append does, but never past rowMax entries, the most
// a row can have: the kernel appends levels only while some row grows,
// so deep searches whose rows stop early or are dropped at keepR hold
// at most that many levels.
func appendLevel(levels [][hopBatch]int32, total *[hopBatch]int32, rowMax int) [][hopBatch]int32 {
	if len(levels) == cap(levels) {
		grown := make([][hopBatch]int32, len(levels), max(min(2*cap(levels), rowMax), len(levels)+1))
		copy(grown, levels)
		levels = grown
	}
	return append(levels, *total)
}

// HopDistancesAmong calls fn(i, j, d) for every pair of positions
// i < j of nodes whose nodes are d ≤ h hops apart, in (i, j) order —
// the unit-weight edges of a skeleton graph (Definition 6.2) over the
// list. nodes must be distinct nodes of g. It stops at fn's first
// error and returns it.
//
// Batches of 64 consecutive list entries each run the hop kernel to
// radius h once, with a first-hit sink over the whole list writing
// into one 64×len(nodes) block of hops, which the batch's pairs are
// read from and which the next batch reuses.
func (g *Graph) HopDistancesAmong(nodes []int, h int, fn func(i, j int, d int64) error) error {
	n, k := g.N(), len(nodes)
	sink := &hopSink{
		set:  make([]uint64, (n+63)/64),
		col:  make([]int32, n),
		cols: k,
		hit:  make([]int32, min(k, hopBatch)*k),
	}
	for c, v := range nodes {
		sink.set[v>>6] |= 1 << (v & 63)
		sink.col[v] = int32(c)
	}
	for lo := 0; lo < k; lo += hopBatch {
		src := nodes[lo:min(lo+hopBatch, k)]
		clear(sink.hit)
		g.hopKernel(src, h, nil, nil, sink)
		for i := range src {
			row := sink.hit[i*k : (i+1)*k]
			for j := lo + i + 1; j < k; j++ {
				if d := row[j]; d > 0 {
					if err := fn(lo+i, j, int64(d)); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// hopDirectionOverride, when non-nil, replaces pullLevel's rule: it
// reports whether a level pulls. Tests set it to run each direction on
// its own; it is nil in production.
var hopDirectionOverride func() bool

// pullLevel reports whether the next level pulls. curSet[wlo..whi]
// holds the frontier's nonzero words and pairs is the number of new
// (source, node) pairs the last level found, which stands in for the
// next level's. With F frontier nodes, P pairs, m edges and average
// degree d̄ = 2m/n, the costs are about
//
//	push: F·(4 + d̄) + P    (per frontier node and edge, per new pair)
//	pull: n·(3 + d̄/2)      (per node and edge, every node unreached)
//
// in units of about 2 ns, a least-squares fit of per-level times of
// both directions over the 11 families at n = 576 and 4096. The pull
// estimate counts every node as unreached, its upper bound, so a level
// pulls only when the push estimate beats even that. F ≤ P, so the
// frontier is counted only when P alone could tip the rule.
func (g *Graph) pullLevel(pairs int, curSet []uint64, wlo, whi int) bool {
	if hopDirectionOverride != nil {
		return hopDirectionOverride()
	}
	n, m, p := int64(g.N()), int64(len(g.to)/2), int64(pairs)
	pull := n * (3*n + m)
	if p*(5*n+2*m) <= pull {
		return false
	}
	f := int64(0)
	for w := wlo; w <= whi; w++ {
		f += int64(bits.OnesCount64(curSet[w]))
	}
	return f*(4*n+2*m)+p*n > pull
}

// pullHopLevel expands the frontier one level in the pull direction:
// every node x that some live source has not seen ORs its neighbours'
// cur words, keeps the bits of the live sources it has not seen and
// writes its own seen, nxt and nxtSet words, in node order. Per-source
// counts of the new nodes accumulate in bit-sliced 4-bit counters held
// in registers, c_j holding bit j of every source's count mod 16; a
// carry out of c3 adds 16 to cnt, and the remainders are added at the
// end. It then zeroes the frontier (its cur words and curSet[wlo..whi])
// and returns the range of nonzero nxtSet words.
func (g *Graph) pullHopLevel(live uint64, seen, cur, nxt, curSet, nxtSet []uint64, wlo, whi int, cnt *[hopBatch]int32) (nlo, nhi int) {
	n := g.N()
	nlo, nhi = len(nxtSet), -1
	var c0, c1, c2, c3 uint64
	for w := range nxtSet {
		var set uint64
		for x := w << 6; x < min(w<<6+64, n); x++ {
			sx := seen[x]
			miss := live &^ sx
			if miss == 0 {
				continue
			}
			var acc uint64
			for _, u := range g.to[g.rowStart[x]:g.rowStart[x+1]] {
				acc |= cur[u]
			}
			nw := acc & miss
			if nw == 0 {
				continue
			}
			seen[x] = sx | nw
			nxt[x] = nw
			set |= 1 << (x & 63)
			k := c0 & nw
			c0 ^= nw
			k, c1 = c1&k, c1^k
			k, c2 = c2&k, c2^k
			k, c3 = c3&k, c3^k
			for ; k != 0; k &= k - 1 {
				cnt[bits.TrailingZeros64(k)] += 16
			}
		}
		if set != 0 {
			nxtSet[w] = set
			nlo, nhi = min(nlo, w), w
		}
	}
	for j, plane := range [...]uint64{c0, c1, c2, c3} {
		for ; plane != 0; plane &= plane - 1 {
			cnt[bits.TrailingZeros64(plane)] += 1 << j
		}
	}
	for w := wlo; w <= whi; w++ {
		for word := curSet[w]; word != 0; word &= word - 1 {
			cur[w<<6|bits.TrailingZeros64(word)] = 0
		}
		curSet[w] = 0
	}
	return nlo, nhi
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
