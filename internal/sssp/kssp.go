package sssp

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/skeleton"
)

// Regime identifies which part of Theorem 14 a k-SSP run used.
type Regime int

// Theorem 14 regimes.
const (
	// RegimeParallel: k ≤ γ arbitrary sources, eÕ(1/ε²) rounds, 1+ε.
	RegimeParallel Regime = iota + 1
	// RegimeRandomSkeleton: random sources, eÕ(√(k/γ)/ε²) rounds, 1+ε,
	// scheduled on a skeleton (Lemmas 9.3/9.4).
	RegimeRandomSkeleton
	// RegimeArbitraryProxy: arbitrary sources, eÕ(√(k/γ)/ε²) rounds, 3+ε,
	// via proxy sources on the skeleton.
	RegimeArbitraryProxy
	// RegimeLargeK: random sources with k ≥ n^{2/3}, delegated to the
	// exact eÕ(n^{1/3}+√k) algorithm of [CHLP21b] (charged).
	RegimeLargeK
)

func (r Regime) String() string {
	switch r {
	case RegimeParallel:
		return "parallel (k ≤ γ)"
	case RegimeRandomSkeleton:
		return "random-sources skeleton"
	case RegimeArbitraryProxy:
		return "arbitrary-sources proxy"
	case RegimeLargeK:
		return "large-k CHLP21"
	default:
		return fmt.Sprintf("Regime(%d)", int(r))
	}
}

// KSSPResult reports a Theorem 14 run.
type KSSPResult struct {
	Regime       Regime
	Stretch      float64 // guaranteed stretch of the returned estimates
	Rounds       int
	SkeletonSize int
	H            int // skeleton hop parameter (0 for non-skeleton regimes)
}

// KSSP solves the k-SSP problem (Theorem 14) for the given sources with
// parameter ε. randomSources asserts the sources were sampled node-wise
// at random (Definition 1.3), enabling the (1+ε) skeleton regime;
// otherwise the (3+ε) proxy-source regime is used. With wantValues the
// result dist is indexed dist[i][v] = estimate of d(sources[i], v);
// otherwise dist is nil. The estimates are materialized after every
// charge, tick and rng draw of the run, and draw and charge nothing
// themselves, so rounds, audit and rng state do not depend on
// wantValues.
func KSSP(net *hybrid.Net, sources []int, eps float64, randomSources bool, rng *rand.Rand, wantValues bool) ([][]int64, *KSSPResult, error) {
	if len(sources) == 0 {
		return nil, nil, fmt.Errorf("sssp: no sources")
	}
	if eps <= 0 {
		return nil, nil, fmt.Errorf("sssp: eps=%v must be positive", eps)
	}
	for _, s := range sources {
		if s < 0 || s >= net.N() {
			return nil, nil, fmt.Errorf("sssp: source %d out of range", s)
		}
	}
	start := net.Rounds()
	g := net.Graph()
	n := net.N()
	k := len(sources)
	gamma := net.Cap()
	plog := net.PLog()
	tSSSP := Theorem13Rounds(plog, eps)

	// Regime 1: enough global capacity to run all k SSSP instances in
	// parallel (Theorem 14, third bullet).
	if k <= gamma {
		net.Charge("kssp/parallel", tSSSP)
		return exactRows(g, sources, eps, wantValues), &KSSPResult{Regime: RegimeParallel, Stretch: 1 + eps, Rounds: net.Rounds() - start}, nil
	}

	// Regime 4: random sources with k ≥ n^{2/3} — the paper delegates to
	// the exact k-SSP of [CHLP21b] at eÕ(n^{1/3} + √k) rounds.
	if randomSources && float64(k) >= math.Pow(float64(n), 2.0/3.0) {
		cost := int(math.Cbrt(float64(n))+math.Sqrt(float64(k))) * plog * plog
		net.Charge("kssp/chlp21", cost)
		return exactRows(g, sources, eps, wantValues), &KSSPResult{Regime: RegimeLargeK, Stretch: 1 + eps, Rounds: net.Rounds() - start}, nil
	}

	// Skeleton regimes: sampling probability √(γ/k), i.e. x = ⌈√(k/γ)⌉.
	x := int(math.Ceil(math.Sqrt(float64(k) / float64(gamma))))
	if x < 1 {
		x = 1
	}
	var forced []int
	if randomSources {
		// Random sources are absorbed into the skeleton sample (the
		// sampling probability dominates k/n for k ≤ n^{2/3}).
		forced = sources
	}
	sk, err := skeleton.Build(g, x, forced, false, rng)
	if err != nil {
		return nil, nil, err
	}
	// Skeleton construction: h rounds of LOCAL (Lemma 6.3).
	net.TickLocal("kssp/skeleton", sk.H)
	// Helper sets for the skeleton nodes (Lemma 9.2): eÕ(x) local rounds.
	net.TickLocal("kssp/helper-sets", x*plog)
	// Parallel scheduling of k SSSP instances on the skeleton
	// (Lemma 9.3): eÕ(√(k/γ))·T rounds.
	net.Charge("kssp/schedule", x*tSSSP)

	res := &KSSPResult{SkeletonSize: sk.Size(), H: sk.H}

	if randomSources {
		// Lemma 9.4: sources are skeleton nodes; every node combines its
		// h-hop distance to nearby skeleton nodes with the scheduled
		// skeleton SSSP results. The combined estimate is sandwiched in
		// [d, (1+ε)d] w.h.p. (proof of Lemma 9.4), realized here by the
		// quantized distance.
		res.Regime = RegimeRandomSkeleton
		res.Stretch = 1 + eps
		res.Rounds = net.Rounds() - start
		return exactRows(g, sources, eps, wantValues), res, nil
	}

	// Arbitrary sources: each source s tags its closest skeleton node u_s
	// within h hops as its proxy (Theorem 14 proof), the proxies'
	// (1+ε)-SSSP results are combined with h-hop distances, and the
	// per-source offsets d^h(u_s, s) are broadcast (γ parallel Theorem 1
	// instances, eÕ(√(k/γ)) rounds, charged).
	net.Charge("kssp/broadcast-offsets", x*plog*plog)
	res.Regime = RegimeArbitraryProxy
	res.Stretch = 3 + 3*eps // ε' = 3ε in the Theorem 14 analysis
	res.Rounds = net.Rounds() - start
	if !wantValues {
		return nil, res, nil
	}
	quant := NewQuantizer(eps)
	dist := make([][]int64, k)
	for i, s := range sources {
		dh := g.HopLimitedDistances(s, sk.H)
		us, dus := closestSkeleton(sk, dh)
		if us < 0 {
			// No skeleton node within h hops (tiny-graph corner): fall
			// back to the direct estimate.
			dist[i] = quantizeAll(g.Dijkstra(s), quant)
			continue
		}
		proxy := quantizeAll(g.Dijkstra(us), quant) // ed(·, u_s), stretch 1+ε
		row := make([]int64, n)
		for v := 0; v < n; v++ {
			est := graph.Inf
			if dh[v] < est {
				est = dh[v] // exact if a ≤h-hop shortest path exists
			}
			if proxy[v] < graph.Inf && proxy[v]+dus < est {
				est = proxy[v] + dus
			}
			row[v] = est
		}
		dist[i] = row
	}
	return dist, res, nil
}

// exactRows returns the quantized exact distance rows of sources, the
// (1+ε) estimates of every random or parallel regime, or nil without
// wantValues.
func exactRows(g *graph.Graph, sources []int, eps float64, wantValues bool) [][]int64 {
	if !wantValues {
		return nil
	}
	quant := NewQuantizer(eps)
	dist := make([][]int64, len(sources))
	for i, s := range sources {
		dist[i] = quantizeAll(g.Dijkstra(s), quant)
	}
	return dist
}

func closestSkeleton(sk *skeleton.Skeleton, dh []int64) (int, int64) {
	best, bestD := -1, graph.Inf
	for _, u := range sk.Nodes {
		if dh[u] < bestD {
			best, bestD = u, dh[u]
		}
	}
	return best, bestD
}

// quantizeAll rounds every entry of d up in place and returns d. Every
// caller passes a distance vector Dijkstra has just returned, which it
// owns, so no second vector is needed.
func quantizeAll(d []int64, q *Quantizer) []int64 {
	for i, x := range d {
		d[i] = q.Up(x)
	}
	return d
}
