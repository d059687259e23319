package graph

// The batched ball-profile kernel (DESIGN.md §10). NQ_k (Definition 3.1)
// and its relatives are all functions of one family of curves: the
// per-node ball-size profiles t ↦ |B_t(v)|. Growing those balls
// node-by-node inside every NQ query is the hottest remaining path of
// the harness — an nqscaling grid re-derives the same curves for every
// k on the same graph. BallProfiles computes all n profiles in one
// parallel pass of the 64-source hop kernel (hopkernel.go), each row
// grown only until it decides Definition 3.1 for every k ≤ K =
// max{9n, m}, and packages them as an immutable, codec-friendly
// Profiles artifact. BallReach is the companion single-k kernel: one
// ball growth that stops the moment the Definition 3.1 condition
// t·|B_t(v)| ≥ k is decided, for callers that ask about a single k and
// should not pay for a full profile.

import "math"

// Profiles is the batch artifact of BallProfiles: every node's
// ball-size row |B_0(v)|, |B_1(v)|, …, which ends at the first t where
// |B_t(v)| = n, where the frontier emptied a level before (the row
// repeats its last entry once), where t·|B_t(v)| ≥ K for the
// topology's K = ProfileStop(), or at t = maxR. The row's last entry
// so says why it ended. A Profiles is immutable after construction
// and safe to share between goroutines and graph instances with
// identical topology (it depends only on hop structure, never on edge
// weights).
type Profiles struct {
	n        int
	maxR     int
	stop     int64     // K: every row ends at its first t with t·|B_t| ≥ stop at the latest
	rowStart []int32   // len n+1; node v's row holds entries rowStart[v]..rowStart[v+1]-1 of all rows in node order
	chunks   [][]int32 // chunks[b] holds the rows of nodes 64b..64b+63 back to back, as the kernel wrote them
	decided  int64     // the largest k every row decides; math.MaxInt64 when every row ended full or exhausted
}

// newProfiles packages the rows of one kernel pass: rowStart holds
// each node v's row length at v+1 and becomes the row offsets, and
// chunks[b] holds the kernel's rows of the b-th 64-node batch, which
// stay the artifact's storage.
func newProfiles(n, maxR int, stop int64, rowStart []int32, chunks [][]int32) *Profiles {
	for v := 0; v < n; v++ {
		rowStart[v+1] += rowStart[v]
	}
	p := &Profiles{n: n, maxR: maxR, stop: stop, rowStart: rowStart, chunks: chunks}
	p.decide()
	return p
}

// row returns node v's stored row.
func (p *Profiles) row(v int) []int32 {
	base := p.rowStart[v&^(hopBatch-1)]
	return p.chunks[v/hopBatch][p.rowStart[v]-base : p.rowStart[v+1]-base]
}

// decide sets p.decided from the rows' last entries. A row that ended
// at |B_t| = n or one level after its frontier emptied holds every
// ball size there is: it decides every k. Any other row ended at its
// last entry t, with |B_t| the size there, and decides exactly the k ≤
// t·|B_t| (past t its sizes only grow, so t'·|B_t'| ≥ k for every
// t' ≥ t as well); a row that stopped at K decides at least every
// k ≤ K, and decided never exceeds K unless every row is final.
func (p *Profiles) decide() {
	p.decided = math.MaxInt64
	for v := 0; v < p.n; v++ {
		row := p.row(v)
		t := len(row) - 1
		if last := row[t]; int(last) != p.n && (t == 0 || row[t-1] != last) {
			p.decided = min(p.decided, p.stop, int64(t)*int64(last))
		}
	}
}

// N returns the number of nodes profiled.
func (p *Profiles) N() int { return p.n }

// Len returns the number of stored entries of node v's profile
// (|B_t(v)| for t = 0..Len(v)-1).
func (p *Profiles) Len(v int) int { return int(p.rowStart[v+1] - p.rowStart[v]) }

// Size returns |B_t(v)| for t < Len(v). Past the stored row it repeats
// the row's last entry: exact when the row ended at |B_t| = n or after
// its frontier emptied; otherwise the true ball may be larger, but
// t·Size(v, t) is then at least what the row decides (Decides), so
// Definition 3.1's test t·|B_t(v)| ≥ k has the same answer on Size as
// on the true ball for every k the artifact decides.
func (p *Profiles) Size(v, t int) int {
	row := p.row(v)
	return int(row[min(t, len(row)-1)])
}

// Complete reports that every row ended at |B_t| = n or after its
// frontier emptied, so every entry of Size is exact for all t.
func (p *Profiles) Complete() bool { return p.decided == math.MaxInt64 }

// Decides reports whether p answers Definition 3.1's condition
// t·|B_t(v)| ≥ k exactly at every node and radius: k ≤ K and no row
// was cut off at maxR before t·|B_t| reached k, or every row is
// complete.
func (p *Profiles) Decides(k int) bool { return int64(k) <= p.decided }

// ProfileStop returns K = max{9n, m}, where each row of the graph's
// ball profiles stops: at its first t with t·|B_t(v)| ≥ K, so a
// profile answers NQ_k (Definition 3.1) for every k ≤ K. The 9n is
// what the canonical radius ProfileRadius promises; the m covers the
// k = m queries of Corollary 2.2 (apsp.SparseExact) on graphs with
// more than 9n edges.
func (g *Graph) ProfileStop() int { return max(9*g.N(), g.M()) }

// ProfileRadius is the canonical truncation radius of the shared
// profile artifacts (runner.ProfileCache, DESIGN.md §10):
// min{D, 3⌈√n⌉+8}. By Lemma 3.6-style growth, the first radius t with
// t·|B_t(v)| ≥ k satisfies t ≤ max{⌈√k⌉, ⌈k/n⌉} whenever the graph is
// connected, so every row stops at K = 9n within this radius, while
// the artifact costs O(n·√n) space instead of the O(n·D) of a full
// profile (quadratic on paths). A negative diam means unknown; a
// diam ≥ Inf (disconnected) leaves the √n term in charge.
func ProfileRadius(n int, diam int64) int {
	r := 3*ceilSqrt(n) + 8
	if diam >= 0 && diam < Inf && diam < int64(r) {
		r = int(diam)
	}
	if r < 1 {
		r = 1
	}
	return r
}

// ceilSqrt returns ⌈√n⌉.
func ceilSqrt(n int) int {
	s := 0
	for s*s < n {
		s++
	}
	return s
}

// MaxR returns the truncation radius the profiles were grown to.
func (p *Profiles) MaxR() int { return p.maxR }

// Profiles returns the ball profiles memoized on the graph — attached
// by AttachProfiles, or kept by the Diameter pass — or nil if there
// are none yet. Like the cached diameter, attachment is idempotent
// content: profiles are a pure function of the topology, so any
// attached instance is interchangeable with a recomputation.
func (g *Graph) Profiles() *Profiles {
	return g.profiles.Load()
}

// AttachedProfiles returns the memoized ball profiles once
// AttachProfiles has attached or kept them, and nil while none are
// memoized or only the Diameter pass has kept some.
func (g *Graph) AttachedProfiles() *Profiles {
	if !g.adopted.Load() {
		return nil
	}
	return g.profiles.Load()
}

// AttachProfiles memoizes p on the graph for later Profiles callers,
// keeping whichever of p and the already-attached profiles sees
// farther (a complete one beats any truncated one). It returns the
// winning instance, which AttachedProfiles reports from then on.
// Attaching profiles of a different node count is a programming error
// and panics.
func (g *Graph) AttachProfiles(p *Profiles) *Profiles {
	if p == nil {
		return g.profiles.Load()
	}
	if p.n != g.N() {
		panic("graph: AttachProfiles: profile node count does not match graph")
	}
	for {
		cur := g.profiles.Load()
		if cur != nil && (cur.Complete() || (!p.Complete() && cur.maxR >= p.maxR)) {
			g.adopted.Store(true)
			return cur
		}
		if g.profiles.CompareAndSwap(cur, p) {
			g.adopted.Store(true)
			return p
		}
	}
}

// BallProfiles computes every node's ball-size profile truncated at
// maxR on the process worker budget, MaxKernelWorkers. See
// BallProfilesWorkers.
func (g *Graph) BallProfiles(maxR int) *Profiles {
	return g.BallProfilesWorkers(maxR, 0)
}

// BallProfilesWorkers is BallProfiles with an explicit worker count
// (≤ 0 means MaxKernelWorkers). Workers claim 64-node chunks from an
// atomic cursor and profile each chunk with one call of the bit-parallel
// hop kernel (hopkernel.go), whose sources retire as their rows end; each
// chunk's rows stay where the kernel wrote them, in node order, so the
// artifact — including its EncodeProfiles bytes — is identical at any
// worker count.
func (g *Graph) BallProfilesWorkers(maxR, workers int) *Profiles {
	n := g.N()
	if maxR < 0 {
		maxR = 0
	}
	if workers <= 0 {
		workers = MaxKernelWorkers()
	}
	stop := int64(g.ProfileStop())
	// Each chunk writes its row lengths into rowStart[lo+1:hi+1] (summed
	// into offsets by newProfiles) and its rows into chunks.
	rowStart := make([]int32, n+1)
	chunks := make([][]int32, (n+hopBatch-1)/hopBatch)
	forEachHopBatch(n, workers, nil, func(lo, hi int) {
		var src [hopBatch]int
		rows := hopRows{stop: stop, keepR: maxR, lens: rowStart[lo+1 : hi+1]}
		chunks[lo/hopBatch] = g.hopKernel(hopRange(&src, lo, hi), maxR, nil, &rows, nil)
	})
	return newProfiles(n, maxR, stop, rowStart, chunks)
}

// BallReach is the early-exit single-k kernel behind NQ_k: it grows
// B_t(v) only until the Definition 3.1 condition t·|B_t(v)| ≥ need is
// decided, returning the smallest such radius t ≤ maxT and the ball
// size at that radius. Once the ball stops growing (it covers its
// component) the remaining radii are solved arithmetically, so the
// search never walks past the answer. ok is false when no radius
// ≤ maxT qualifies. The call is allocation-free in steady state (the
// pooled Ball/BallSizes scratch).
func (g *Graph) BallReach(v, maxT int, need int64) (t, size int, ok bool) {
	n := g.N()
	if v < 0 || v >= n || maxT < 1 {
		return 0, 0, false
	}
	if need < 1 {
		need = 1
	}
	s := g.getBallScratch()
	defer g.ballPool.Put(s)
	mark, epoch := s.mark, s.epoch
	mark[v] = epoch
	frontier := append(s.front[:0], int32(v))
	next := s.nextFr[:0]
	total := 1
	for t := 1; t <= maxT; t++ {
		if len(frontier) > 0 && total < n {
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
		}
		if int64(t)*int64(total) >= need {
			s.front, s.nextFr = frontier, next
			return t, total, true
		}
		if len(frontier) == 0 || total == n {
			// The ball is maximal: sizes are constant from here, so the
			// first qualifying radius is ⌈need/total⌉ (> t, since t just
			// failed the condition).
			s.front, s.nextFr = frontier, next
			tq := int((need + int64(total) - 1) / int64(total))
			if tq <= maxT {
				return tq, total, true
			}
			return 0, 0, false
		}
	}
	s.front, s.nextFr = frontier, next
	return 0, 0, false
}
