package graph

// The batched ball-profile kernel (DESIGN.md §10). NQ_k (Definition 3.1)
// and its relatives are all functions of one family of curves: the
// per-node ball-size profiles t ↦ |B_t(v)|. Growing those balls
// node-by-node inside every NQ query is the hottest remaining path of
// the harness — an nqscaling grid re-derives the same curves for every
// k on the same graph. BallProfiles computes all n truncated
// profiles in one parallel pass of the 64-source hop kernel
// (hopkernel.go) and packages them as an immutable, codec-friendly
// Profiles artifact; eccentricities (and hence the exact hop diameter)
// fall out as a byproduct whenever the truncation radius covers the
// graph. BallReach is the companion
// single-k kernel: one ball growth that stops the moment the
// Definition 3.1 condition t·|B_t(v)| ≥ k is decided, for callers that
// ask about a single k and should not pay for a full profile.

import "runtime"

// EccUnknown marks an eccentricity the truncated kernel could not
// determine: the node's BFS was cut off by maxR before exhausting its
// component. A disconnected node's eccentricity is Inf, not EccUnknown.
const EccUnknown int64 = -1

// Profiles is the batch artifact of BallProfiles: every node's
// truncated ball-size profile in one flat CSR-style layout, plus the
// per-node eccentricities and the diameter when the truncation radius
// resolved them. A Profiles is immutable after construction and safe
// to share between goroutines and graph instances with identical
// topology (it depends only on hop structure, never on edge weights).
type Profiles struct {
	n        int
	maxR     int
	rowStart []int32 // len n+1; node v's profile is sizes[rowStart[v]:rowStart[v+1]]
	sizes    []int32 // sizes[rowStart[v]+t] = |B_t(v)|, truncated as in BallSizes
	ecc      []int64 // exact ecc, Inf (component exhausted below n), or EccUnknown
	diam     int64   // max ecc; EccUnknown when any ecc is unknown
}

// N returns the number of nodes profiled.
func (p *Profiles) N() int { return p.n }

// MaxR returns the truncation radius the profiles were computed to.
func (p *Profiles) MaxR() int { return p.maxR }

// Len returns the number of stored entries of node v's profile
// (|B_t(v)| for t = 0..Len(v)-1).
func (p *Profiles) Len(v int) int { return int(p.rowStart[v+1] - p.rowStart[v]) }

// Size returns |B_t(v)|. Entries past the stored profile repeat the
// final stored value, which is exact whenever the node's BFS exhausted
// (Ecc(v) != EccUnknown) or t ≤ MaxR; beyond both the true ball may be
// larger.
func (p *Profiles) Size(v, t int) int {
	lo, hi := p.rowStart[v], p.rowStart[v+1]
	if int32(t) < hi-lo {
		return int(p.sizes[lo+int32(t)])
	}
	return int(p.sizes[hi-1])
}

// Ecc returns node v's exact hop eccentricity, Inf when v's component
// excludes part of the graph, or EccUnknown when the truncation radius
// cut the search off first.
func (p *Profiles) Ecc(v int) int64 { return p.ecc[v] }

// Eccentricities returns the per-node eccentricity vector. The slice
// is owned by the Profiles and must not be modified.
func (p *Profiles) Eccentricities() []int64 { return p.ecc }

// Diameter returns the exact hop diameter (Inf for a disconnected
// graph). ok is false when any eccentricity is EccUnknown, i.e. the
// truncation radius did not cover the graph.
func (p *Profiles) Diameter() (diam int64, ok bool) {
	if p.diam == EccUnknown {
		return 0, false
	}
	return p.diam, true
}

// Complete reports that every node's BFS exhausted within MaxR, making
// every profile entry, eccentricity and the diameter exact for all t.
func (p *Profiles) Complete() bool { return p.diam != EccUnknown }

// Covers reports whether p answers ball sizes exactly for every radius
// up to r (it always does up to MaxR, and for every radius at all once
// complete).
func (p *Profiles) Covers(r int) bool { return p.Complete() || r <= p.maxR }

// ProfileRadius is the canonical truncation radius of the shared
// profile artifacts (runner.ProfileCache, DESIGN.md §10):
// min{D, 3⌈√n⌉+8}. By Lemma 3.6-style growth, a profile of this depth
// answers NQ_k exactly for every k ≤ 9n — the first radius t with
// t·|B_t(v)| ≥ k satisfies t ≤ max{⌈√k⌉, ⌈k/n⌉} whenever the graph is
// connected — while costing O(n·√n) space instead of the O(n·D) of a
// full profile (quadratic on paths). A negative diam means unknown; a
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

// Profiles returns the ball profiles memoized on the graph, or nil if
// none were attached yet. Like the cached diameter, attachment is
// idempotent content: profiles are a pure function of the topology, so
// any attached instance is interchangeable with a recomputation.
func (g *Graph) Profiles() *Profiles {
	return g.profiles.Load()
}

// AttachProfiles memoizes p on the graph for later Profiles callers,
// keeping whichever of p and the already-attached profiles sees
// farther (a complete one beats any truncated one). It returns the
// winning instance. Attaching profiles of a different node count is a
// programming error and panics.
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
			return cur
		}
		if g.profiles.CompareAndSwap(cur, p) {
			return p
		}
	}
}

// BallProfiles computes every node's ball-size profile truncated at
// maxR on a GOMAXPROCS-sized worker pool. See BallProfilesWorkers.
func (g *Graph) BallProfiles(maxR int) *Profiles {
	return g.BallProfilesWorkers(maxR, 0)
}

// BallProfilesWorkers is BallProfiles with an explicit worker count
// (≤ 0 means GOMAXPROCS). Workers claim 64-node chunks from an atomic
// cursor and profile each chunk with one call of the bit-parallel hop
// kernel (hopkernel.go); the result is assembled in node order, so the
// artifact — including its EncodeProfiles bytes — is identical at any
// worker count. Eccentricities are exact for nodes whose search
// exhausted within maxR (EccUnknown otherwise, Inf when the component
// excludes part of the graph), and the exact diameter is available
// whenever every node resolved.
func (g *Graph) BallProfilesWorkers(maxR, workers int) *Profiles {
	n := g.N()
	if maxR < 0 {
		maxR = 0
	}
	p := &Profiles{
		n:        n,
		maxR:     maxR,
		rowStart: make([]int32, n+1),
		ecc:      make([]int64, n),
		diam:     0,
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Each chunk writes its row lengths into rowStart[lo+1:hi+1] (summed
	// into offsets below) and its eccentricities into ecc[lo:hi]; only
	// the rows themselves wait in per-chunk slices for assembly.
	chunks := make([][]int32, (n+hopBatch-1)/hopBatch)
	forEachHopBatch(n, workers, nil, func(lo, hi int) {
		chunks[lo/hopBatch] = g.hopKernel(lo, hi, maxR, p.ecc[lo:hi], p.rowStart[lo+1:hi+1])
	})
	for v := 0; v < n; v++ {
		p.rowStart[v+1] += p.rowStart[v]
	}
	p.sizes = make([]int32, 0, p.rowStart[n])
	for _, rows := range chunks {
		p.sizes = append(p.sizes, rows...)
	}
	for _, e := range p.ecc {
		if e == EccUnknown {
			p.diam = EccUnknown
			break
		}
		if e > p.diam {
			p.diam = e
		}
	}
	return p
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
