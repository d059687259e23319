// Package sssp implements the paper's existentially optimal shortest-path
// building blocks:
//
//   - Theorem 13: a deterministic (1+ε)-approximate SSSP in eÕ(1/ε²)
//     HYBRID₀ rounds. The paper realizes it by simulating the
//     Minor-Aggregation model of [RGH+22] plus an Eulerian-orientation
//     oracle (Section 8); per the substitution rule in DESIGN.md the
//     library charges that machinery's published cost and produces a
//     genuinely (1+ε)-stretched output by quantizing exact distances up
//     to powers of (1+ε) (so downstream stretch arithmetic stays honest).
//     The Minor-Aggregation interface and the Eulerian-orientation solver
//     themselves are implemented in minoragg.go.
//   - Theorem 14: (1+ε)- and (3+ε)-approximate k-SSP in eÕ(√(k/γ)/ε²)
//     rounds via skeleton graphs (Definition 6.2) and the parallel
//     scheduling framework of Section 9 (Lemmas 9.2–9.4).
package sssp

import (
	"fmt"
	"math"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/hybrid"
)

// QuantizeUp rounds d up to the next power of (1+eps): the returned value
// q satisfies d ≤ q ≤ (1+eps)·d (up to float rounding at the boundary).
// 0 and Inf are preserved. This is the paper-faithful way to realize a
// (1+ε)-approximate distance that never underestimates. Loops that
// round many distances at one eps use a Quantizer instead.
func QuantizeUp(d int64, eps float64) int64 {
	q := Quantizer{eps: eps, step: math.Log1p(eps)}
	return q.Up(d)
}

// quantizerTableCap bounds a Quantizer's tables: exponents at or above
// it (distances beyond (1+eps)^4096) compute their power directly, and
// distances at or above it are rounded without the per-distance memo.
const quantizerTableCap = 1 << 12

// Quantizer is QuantizeUp for one fixed eps. It computes log(1+eps) once
// and memoizes ⌊exp(i·log(1+eps))⌋ per exponent i, so rounding a
// distance costs one Log instead of a Log and an Exp; a distance below
// quantizerTableCap is rounded once and then read back from a
// per-distance table. Every table entry is computed by the direct
// path's float expressions, so Up(d) equals QuantizeUp(d, eps) bit for
// bit. A Quantizer is not safe for concurrent use.
type Quantizer struct {
	eps, step float64
	memo      bool
	pow       []int64 // pow[i] = ⌊exp(i·step)⌋ once computed, 0 before
	byD       []int64 // byD[d] = Up(d) once computed, 0 before (Up(d) ≥ d > 0)
}

// NewQuantizer returns a memoizing Quantizer for eps.
func NewQuantizer(eps float64) *Quantizer {
	return &Quantizer{eps: eps, step: math.Log1p(eps), memo: true}
}

// Up returns QuantizeUp(d, eps).
func (z *Quantizer) Up(d int64) int64 {
	if !z.memo || d <= 0 || d >= quantizerTableCap {
		return z.up(d)
	}
	if d >= int64(len(z.byD)) {
		z.byD = append(z.byD, make([]int64, d+1-int64(len(z.byD)))...)
	}
	if z.byD[d] == 0 {
		z.byD[d] = z.up(d)
	}
	return z.byD[d]
}

// up is Up without the per-distance memo.
func (z *Quantizer) up(d int64) int64 {
	if d <= 0 || d >= graph.Inf || z.eps <= 0 {
		return d
	}
	q := z.power(math.Ceil(math.Log(float64(d)) / z.step))
	if q < d {
		q = d
	}
	if lim := int64(float64(d) * (1 + z.eps)); q > lim && lim >= d {
		q = lim
	}
	return q
}

// power returns ⌊exp(i·step)⌋ for the exponent i ≥ 0 Up chose, from
// the table when memoizing and i is below the cap (a NaN eps makes i
// NaN, which takes the direct path).
func (z *Quantizer) power(i float64) int64 {
	if !z.memo || !(i < quantizerTableCap) {
		return int64(math.Floor(math.Exp(i * z.step)))
	}
	k := int(i)
	if k >= len(z.pow) {
		z.pow = append(z.pow, make([]int64, k+1-len(z.pow))...)
	}
	if z.pow[k] == 0 {
		z.pow[k] = int64(math.Floor(math.Exp(i * z.step)))
	}
	return z.pow[k]
}

// Approx computes a (1+eps)-approximation of SSSP from source
// (Theorem 13), charging eÕ(1/ε²) rounds. The returned estimates d̃
// satisfy d ≤ d̃ ≤ (1+eps)·d and are identical on every node, matching
// the deterministic guarantee.
func Approx(net *hybrid.Net, source int, eps float64) ([]int64, error) {
	if source < 0 || source >= net.N() {
		return nil, fmt.Errorf("sssp: source %d out of range", source)
	}
	if eps <= 0 {
		return nil, fmt.Errorf("sssp: eps=%v must be positive", eps)
	}
	net.Charge(hybrid.CostTheorem13, hybrid.CostArgs{Eps: eps})
	return quantizeAll(net.Graph().Dijkstra(source), NewQuantizer(eps)), nil
}

// ExactBFS runs the unweighted exact SSSP as a genuinely distributed
// message-passing BFS over the local network (the D-round LOCAL
// baseline): every announcement crosses a real edge through the engine.
func ExactBFS(net *hybrid.Net, source int) ([]int64, error) {
	if source < 0 || source >= net.N() {
		return nil, fmt.Errorf("sssp: source %d out of range", source)
	}
	dist, _, err := congest.BFS(net, source)
	return dist, err
}

// VerifyStretch checks d ≤ est ≤ stretch·d entrywise (Inf must match),
// returning a descriptive error on the first violation. Shared by the
// package tests and the APSP tests.
func VerifyStretch(exact, est []int64, stretch float64) error {
	if len(exact) != len(est) {
		return fmt.Errorf("sssp: length mismatch %d vs %d", len(exact), len(est))
	}
	for v := range exact {
		d, e := exact[v], est[v]
		if d >= graph.Inf {
			if e < graph.Inf {
				return fmt.Errorf("sssp: node %d unreachable but estimate %d", v, e)
			}
			continue
		}
		if e < d {
			return fmt.Errorf("sssp: node %d underestimated: %d < %d", v, e, d)
		}
		if float64(e) > stretch*float64(d)+1e-6 {
			return fmt.Errorf("sssp: node %d overestimated: %d > %.2f·%d", v, e, stretch, d)
		}
	}
	return nil
}
