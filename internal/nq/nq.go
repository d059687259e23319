// Package nq implements the paper's central graph parameter, the
// neighborhood quality NQ_k (Definition 3.1):
//
//	NQ_k(v) = min({t : |B_t(v)| ≥ k/t} ∪ {D})   and   NQ_k(G) = max_v NQ_k(v),
//
// together with the distributed eÕ(NQ_k)-round computation of Lemma 3.3 and
// the small-neighborhood witness of Lemma 3.8 used by the lower bounds.
//
// Two evaluation paths back every query (DESIGN.md §10). When the graph
// carries a ball-profile artifact (graph.BallProfiles, shared across
// sweep cells by runner.ProfileCache) that decides k, each node
// answers in O(log) time by binary search on the strictly increasing
// sequence t·|B_t(v)|. Otherwise the early-exit kernel
// graph.BallReach grows each ball only until the Definition 3.1
// condition is decided. Both paths return identical values.
package nq

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/overlay"
)

// parallelMinN is the node count from which the per-node evaluation
// loops shard across graph.MaxKernelWorkers() workers (matching the
// graph kernels' threshold); below it the sequential loop keeps the
// allocation-free guarantee TestCoreNQOfAllocFree pins.
const parallelMinN = 1 << 15

// parallelNodes reports whether the per-node evaluation of an n-node
// graph shards across workers. The dispatch lives at the call sites
// (profileMax, kernelMax) rather than inside one maxOverNodes
// function: a closure passed to the parallel loop is captured by
// goroutines and must live on the heap, and Go's escape analysis is
// per-parameter, so a single function serving both regimes would heap-
// allocate the closure even on the sequential path — breaking the
// zero-allocation guarantee TestCoreNQOfAllocFree pins for small n.
func parallelNodes(n int) bool {
	return n >= parallelMinN && graph.MaxKernelWorkers() > 1
}

// maxOverNodesSeq evaluates value(v) for every node sequentially,
// storing into perNode when non-nil and returning the maximum. It must
// not leak value (see parallelNodes).
func maxOverNodesSeq(n int, perNode []int, value func(v int) int) int {
	best := 0
	for v := 0; v < n; v++ {
		q := value(v)
		if perNode != nil {
			perNode[v] = q
		}
		if q > best {
			best = q
		}
	}
	return best
}

// maxOverNodesParallel is the sharded counterpart: nodes fan out
// across a chunk-claiming worker pool; each worker writes only its own
// indices and the maximum is an order-free reduction, so the result is
// byte-identical to maxOverNodesSeq at any worker count.
func maxOverNodesParallel(n int, perNode []int, value func(v int) int) int {
	workers := graph.MaxKernelWorkers()
	const grain = 256
	chunks := (n + grain - 1) / grain
	if workers > chunks {
		workers = chunks
	}
	maxes := make([]int, workers)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			best := 0
			for {
				ci := int(cursor.Add(1)) - 1
				if ci >= chunks {
					break
				}
				lo := ci * grain
				hi := lo + grain
				if hi > n {
					hi = n
				}
				for v := lo; v < hi; v++ {
					q := value(v)
					if perNode != nil {
						perNode[v] = q
					}
					if q > best {
						best = q
					}
				}
			}
			maxes[w] = best
		}(w)
	}
	wg.Wait()
	best := 0
	for _, m := range maxes {
		if m > best {
			best = m
		}
	}
	return best
}

// profileMax evaluates NQ_k(v) over all nodes from an attached profile,
// dispatching between the sequential and sharded loops (parallelNodes).
func profileMax(p *graph.Profiles, n int, perNode []int, k, hi, d int) int {
	if parallelNodes(n) {
		return maxOverNodesParallel(n, perNode, func(v int) int { return profileValue(p, v, k, hi, d) })
	}
	return maxOverNodesSeq(n, perNode, func(v int) int { return profileValue(p, v, k, hi, d) })
}

// kernelMax is profileMax's counterpart on the early-exit ball kernel
// path (no profile decides k).
func kernelMax(g *graph.Graph, n int, perNode []int, k, d int) int {
	if parallelNodes(n) {
		return maxOverNodesParallel(n, perNode, func(v int) int { return kernelValue(g, v, k, d) })
	}
	return maxOverNodesSeq(n, perNode, func(v int) int { return kernelValue(g, v, k, d) })
}

// ceilSqrt returns ⌈√k⌉ (1 for k ≤ 1).
func ceilSqrt(k int) int {
	s := 1
	for int64(s)*int64(s) < int64(k) {
		s++
	}
	return s
}

// reqRadius returns the smallest truncation radius guaranteed to decide
// NQ_k on a connected graph: the first t with t·|B_t(v)| ≥ k satisfies
// t ≤ max{⌈√k⌉, ⌈k/n⌉}, since |B_t(v)| ≥ t+1 until the ball covers the
// graph and equals n afterwards.
func reqRadius(k, n int) int {
	s := ceilSqrt(k)
	if n > 0 {
		if q := (k + n - 1) / n; q > s {
			s = q
		}
	}
	return s
}

// profileFor returns the graph's attached ball-profile artifact if it
// decides NQ_k exactly (Profiles.Decides), plus the search bound
// hi = min{D, reqRadius} every per-node query shares (the min because
// values are capped at D). nil when no deciding profile is attached.
func profileFor(g *graph.Graph, k, d int) (p *graph.Profiles, hi int) {
	p = g.Profiles()
	if p == nil || !p.Decides(k) {
		return nil, 0
	}
	return p, min(reqRadius(k, p.N()), d)
}

// profileValue answers NQ_k(v) from a deciding profile: binary search
// for the smallest t with t·|B_t(v)| ≥ k over [1, hi] (the bound
// profileFor computed once per query) — the sequence is strictly
// increasing in t, and past a row's end Size keeps the test's answer —
// falling back to the D cap when no radius in range qualifies.
func profileValue(p *graph.Profiles, v, k, hi, d int) int {
	if int64(hi)*int64(p.Size(v, hi)) < int64(k) {
		return d
	}
	lo := 1
	for lo < hi {
		mid := (lo + hi) / 2
		if int64(mid)*int64(p.Size(v, mid)) >= int64(k) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// kernelValue answers NQ_k(v) with the early-exit ball growth.
func kernelValue(g *graph.Graph, v, k, d int) int {
	if t, _, ok := g.BallReach(v, d, int64(k)); ok {
		return t
	}
	return d
}

// validate applies the shared entry checks and returns the effective
// diameter cap d.
func validate(g *graph.Graph, k int) (d int, err error) {
	if g.N() == 0 {
		return 0, errors.New("nq: empty graph")
	}
	if k <= 0 {
		return 0, fmt.Errorf("nq: non-positive k=%d", k)
	}
	diam := g.Diameter()
	if diam >= graph.Inf {
		return 0, graph.ErrDisconnected
	}
	d = int(diam)
	if d == 0 {
		d = 1 // single-node graph: NQ_k(v) is capped at D, use 1 as in NQ_k ≥ 1
	}
	return d, nil
}

// PerNode returns NQ_k(v) for every node, plus NQ_k(G) = max_v NQ_k(v).
// The diameter D is computed exactly (one all-sources sweep of the
// 64-source hop kernel, cached on the graph); the per-node values come
// from the attached profile when one decides k and from the early-exit
// kernel otherwise.
func PerNode(g *graph.Graph, k int) (perNode []int, nq int, err error) {
	d, err := validate(g, k)
	if err != nil {
		return nil, 0, err
	}
	n := g.N()
	perNode = make([]int, n)
	if p, hi := profileFor(g, k, d); p != nil {
		nq = profileMax(p, n, perNode, k, hi, d)
		return perNode, nq, nil
	}
	nq = kernelMax(g, n, perNode, k, d)
	return perNode, nq, nil
}

// Of returns NQ_k(G). Unlike PerNode it tracks only the running
// maximum — no per-node slice — so the call is allocation-free in
// steady state on both evaluation paths.
func Of(g *graph.Graph, k int) (int, error) {
	d, err := validate(g, k)
	if err != nil {
		return 0, err
	}
	n := g.N()
	if p, hi := profileFor(g, k, d); p != nil {
		return profileMax(p, n, nil, k, hi, d), nil
	}
	return kernelMax(g, n, nil, k, d), nil
}

// Witness returns a node v maximizing NQ_k(v) — by Lemma 3.8 it
// satisfies |B_r(v)| < k/r for every r < NQ_k, which the lower-bound
// constructions of Section 7 exploit. Ties resolve to the smallest
// node index.
func Witness(g *graph.Graph, k int) (v, nqv int, err error) {
	per, _, err := PerNode(g, k)
	if err != nil {
		return 0, 0, err
	}
	for u, q := range per {
		if q > nqv {
			v, nqv = u, q
		}
	}
	return v, nqv, nil
}

// ensureProfiles attaches a profile that decides k, computed with the
// parallel batch kernel, when the graph carries none (the computed
// radius is at least the canonical ProfileRadius, so one computation
// serves every later k ≤ K = ProfileStop on the same instance). A
// k > K is left to the early-exit kernel: no profile's rows reach it
// unless they are complete.
func ensureProfiles(g *graph.Graph, k, d int) {
	if p, _ := profileFor(g, k, d); p != nil || k > g.ProfileStop() {
		return
	}
	r := max(graph.ProfileRadius(g.N(), int64(d)), reqRadius(k, g.N()))
	g.AttachProfiles(g.BallProfiles(min(r, d)))
}

// Distributed computes NQ_k in the HYBRID₀ model following Lemma 3.3:
// every node explores its neighborhood to increasing depth t (one local
// round per step) and after each step the network computes
// N_t = min_v |B_t(v)| with a Lemma 4.4 aggregation, stopping at the first
// t with N_t ≥ k/t. Total cost eÕ(NQ_k) rounds, which the engine records.
// The returned value always equals the centralized one.
func Distributed(net *hybrid.Net, k int) (int, error) {
	if k <= 0 {
		return 0, fmt.Errorf("nq: non-positive k=%d", k)
	}
	g := net.Graph()
	d, err := validate(g, k)
	if err != nil {
		return 0, err
	}
	// Every t·|B_t(v)| grows with t, so the first t with N_t ≥ k/t is
	// max_v NQ_k(v) = NQ_k(G) (d when no depth qualifies): Of reads it
	// from the profile, and the run charges that many steps, each one
	// explore round and one aggregation over one reused overlay tree,
	// built first as a phase of its own.
	tree := overlay.Build(net, "nq")
	// Once computed, NQ_k is global knowledge for the rest of the
	// execution (Lemma 3.3 is run once); later calls are free.
	return hybrid.Once(net, hybrid.Phase{Name: "nq", K: k}, func() (int, error) {
		ensureProfiles(g, k, d)
		q, err := Of(g, k)
		if err != nil {
			return 0, err
		}
		for t := 1; t <= q; t++ {
			net.TickLocal("nq/explore", 1)
			if _, err := tree.Aggregate("nq", 1); err != nil {
				return 0, err
			}
		}
		return q, nil
	})
}
