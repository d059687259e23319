// Package experiments is the benchmark harness that regenerates every
// table and figure of the paper's results section on concrete graph
// families:
//
//   - Table 1  — information dissemination (Theorems 1–4 vs [AHK+20]/[KS20]),
//   - Table 2  — APSP (Theorems 6–9, Corollary 2.2 vs eΘ(√n) prior work),
//   - Table 3  — (k,ℓ)-SP (Theorem 5 vs eΩ(√k)),
//   - Table 4  — SSSP (Theorem 13 vs eÕ(√n), eÕ(n^{5/17}), eÕ(n^ε)),
//   - Figure 1 — the k-SSP complexity landscape (Theorem 14),
//   - the Theorem 15/16/17 NQ_k-scaling analyses.
//
// Every row pairs the measured round count of a universal algorithm run
// in the simulator with the evaluated prior-work formulas and the
// Section 7 lower bounds on the same instance.
//
// Each artifact is declared as a runner.Scenario (TableNScenario,
// Figure1Scenario, …) — a family × n × seed × parameter grid plus a
// per-cell measurement — and swept concurrently by internal/runner with
// deterministic per-cell seeding, so the regenerated tables are
// byte-identical at any worker count. Each output table is declared once
// as a tableSpec, through which both the finished document and the
// per-cell stream render. WriteReport drives the registered scenarios
// into a markdown, CSV, or JSONL sink.
package experiments

import (
	"math"
	"math/rand"
	"strconv"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/unicast"
)

// DefaultFamilies are the graph families every table sweeps by default:
// all eleven built-in families, from the path (where NQ_k = Θ(√k) and
// universal ties existential) through grids and tori (polynomial
// separation), cliquey topologies (ring of cliques, lollipop), trees,
// and the small-diameter regime (hypercube, random, expander).
func DefaultFamilies() []graph.Family {
	return graph.Families()
}

func params(net *hybrid.Net, k, l int, eps float64) baseline.Params {
	return baseline.Params{
		N:    net.N(),
		K:    k,
		L:    l,
		PLog: net.PLog(),
		Eps:  eps,
		Diam: net.Graph().Diameter(),
	}
}

// Table values format with strconv into a stack buffer, so each value
// takes one allocation, its string (fmt.Sprintf boxes its operands and
// strconv.FormatFloat takes two). The bytes are fmt's for the verb each
// helper names (TestValueFormatsMatchFmt).

// itoa formats x as %d.
func itoa[I ~int | ~int64](x I) string {
	var b [24]byte
	return string(strconv.AppendInt(b[:0], int64(x), 10))
}

// fixed formats x as %.<prec>f.
func fixed(x float64, prec int) string {
	var b [32]byte
	return string(appendFixed(b[:0], x, prec))
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// appendFixed appends x as strconv.AppendFloat(b, x, 'f', prec, 64)
// does, which rounds the exact binary value of x to prec decimals, ties
// to even, through a multi-precision decimal. Most table values take a
// shorter path. s = |x|·10^prec is the correctly rounded product
// (10^prec is exact), and rounding is monotone, so the exact product
// lies on the same side as s of every float64 other than s. Below 2^52
// the integers and half-way points around s are float64s, so unless s
// lands on a half-way point the exact product rounds to the integer
// nearest s, and that integer's digits with a decimal point inserted
// are the answer. Half-way s, s ≥ 2^52, NaN and ±Inf fall back to
// strconv.
func appendFixed(b []byte, x float64, prec int) []byte {
	if prec < 0 || prec >= len(exactPow10) {
		return strconv.AppendFloat(b, x, 'f', prec, 64)
	}
	s := math.Abs(x) * exactPow10[prec]
	if !(s < 1<<52) { // also catches NaN and ±Inf
		return strconv.AppendFloat(b, x, 'f', prec, 64)
	}
	i := math.Floor(s)
	switch frac := s - i; { // exact below 2^52
	case frac == 0.5:
		return strconv.AppendFloat(b, x, 'f', prec, 64)
	case frac > 0.5:
		i++
	}
	var d [20]byte
	digits := strconv.AppendUint(d[:0], uint64(i), 10)
	if math.Signbit(x) {
		b = append(b, '-')
	}
	if n := len(digits); n <= prec {
		b = append(b, '0', '.')
		for range prec - n {
			b = append(b, '0')
		}
		return append(b, digits...)
	}
	b = append(b, digits[:len(digits)-prec]...)
	if prec > 0 {
		b = append(b, '.')
		b = append(b, digits[len(digits)-prec:]...)
	}
	return b
}

// f1 formats x as %.1f, or "-" when x is infinite or NaN.
func f1(x float64) string {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return "-"
	}
	return fixed(x, 1)
}

// sampleNodes returns every node independently with probability p, but
// never an empty set (it falls back to node 0).
func sampleNodes(n int, p float64, rng *rand.Rand) []int {
	if out := unicast.SampleNodes(n, p, rng); len(out) > 0 {
		return out
	}
	return []int{0}
}

func firstK(k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = i
	}
	return out
}
