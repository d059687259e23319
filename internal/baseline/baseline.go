// Package baseline provides the prior-work comparators that Tables 1–4
// and Figure 1 of the paper measure the universal algorithms against.
//
// Each comparator is an explicit round-cost formula with the library's
// uniform eÕ(1) convention (polylog factors written as powers of
// plog = ⌈log₂ n⌉, matching DESIGN.md §2), so that the benchmark harness
// can print measured universal rounds next to the existential bounds of
// [AHK+20], [KS20], [AG21a], [CHLP21a/b] and the trivial LOCAL flood.
// One NCC-only baseline is implemented as an actual charged pipeline
// over the overlay tree (NaiveTreeBroadcast).
package baseline

import (
	"math"

	"repro/internal/hybrid"
	"repro/internal/overlay"
)

// Params feeds the round formulas.
type Params struct {
	N     int     // nodes
	K     int     // workload (tokens / sources)
	L     int     // targets
	Gamma int     // global capacity per node per round
	PLog  int     // ⌈log₂ n⌉
	Eps   float64 // approximation parameter where applicable
	Diam  int64   // hop diameter
}

// Formula is one prior-work bound.
type Formula struct {
	// Name is a short label for table headers.
	Name string
	// Reference cites the original work.
	Reference string
	// Kind is "upper" or "lower".
	Kind string
	// Rounds evaluates the bound.
	Rounds func(Params) float64
}

func plogf(p Params) float64 { return float64(p.PLog) }

// AHKDissemination is the randomized eÕ(√k+ℓ) k-dissemination of
// [AHK+20] (Table 1), with ℓ the maximum tokens initially per node.
func AHKDissemination() Formula {
	return Formula{
		Name:      "AHK+20 broadcast",
		Reference: "[AHK+20], Table 1",
		Kind:      "upper",
		Rounds: func(p Params) float64 {
			return (math.Sqrt(float64(p.K)) + float64(p.L)) * plogf(p)
		},
	}
}

// KS20Unicast is the randomized eÕ(√k + kℓ/n) unicast of [KS20] (Table 1).
func KS20Unicast() Formula {
	return Formula{
		Name:      "KS20 unicast",
		Reference: "[KS20], Table 1",
		Kind:      "upper",
		Rounds: func(p Params) float64 {
			return (math.Sqrt(float64(p.K)) + float64(p.K)*float64(p.L)/float64(p.N)) * plogf(p)
		},
	}
}

// KS20APSP is the exact randomized eÕ(√n) APSP of [KS20] (Table 2),
// matching the eΩ(√n) existential lower bound of [AHK+20].
func KS20APSP() Formula {
	return Formula{
		Name:      "KS20 APSP",
		Reference: "[KS20], Table 2",
		Kind:      "upper",
		Rounds:    func(p Params) float64 { return math.Sqrt(float64(p.N)) * plogf(p) },
	}
}

// AG21APSP is the deterministic eÕ(√n) O(log n/log log n)-approximate
// APSP of [AG21a] (Table 2).
func AG21APSP() Formula {
	return Formula{
		Name:      "AG21 APSP",
		Reference: "[AG21a], Table 2",
		Kind:      "upper",
		Rounds:    func(p Params) float64 { return math.Sqrt(float64(p.N)) * plogf(p) },
	}
}

// AG21SSSP is the deterministic eÕ(√n) SSSP of [AG21a] (Table 4).
func AG21SSSP() Formula {
	return Formula{
		Name:      "AG21 SSSP",
		Reference: "[AG21a], Table 4",
		Kind:      "upper",
		Rounds:    func(p Params) float64 { return math.Sqrt(float64(p.N)) * plogf(p) },
	}
}

// CHLP21SSSP is the randomized (1+ε) eÕ(n^{5/17}) SSSP of [CHLP21b]
// (Table 4).
func CHLP21SSSP() Formula {
	return Formula{
		Name:      "CHLP21 SSSP",
		Reference: "[CHLP21b], Table 4",
		Kind:      "upper",
		Rounds:    func(p Params) float64 { return math.Pow(float64(p.N), 5.0/17.0) * plogf(p) },
	}
}

// AHKSSSP is the randomized eÕ(n^ε) SSSP of [AHK+20] with (large)
// constant stretch (1/ε)^{O(1/ε)} (Table 4); ε defaults to 1/4.
func AHKSSSP() Formula {
	return Formula{
		Name:      "AHK+20 SSSP",
		Reference: "[AHK+20], Table 4",
		Kind:      "upper",
		Rounds: func(p Params) float64 {
			eps := p.Eps
			if eps <= 0 {
				eps = 0.25
			}
			return math.Pow(float64(p.N), eps) * plogf(p)
		},
	}
}

// CHLP21KSSP is the exact eÕ(n^{1/3}+√k) k-SSP of [CHLP21a] (Figure 1).
func CHLP21KSSP() Formula {
	return Formula{
		Name:      "CHLP21 k-SSP",
		Reference: "[CHLP21a], Figure 1",
		Kind:      "upper",
		Rounds: func(p Params) float64 {
			return (math.Cbrt(float64(p.N)) + math.Sqrt(float64(p.K))) * plogf(p)
		},
	}
}

// NaiveTreeBroadcast charges the idealized NCC-only pipeline: all k
// tokens converge to the overlay-tree root and are pipelined down
// (⌈k/γ⌉ + depth each way). It is the measured stand-in for a
// global-mode-only broadcast and ignores the local network entirely.
func NaiveTreeBroadcast(net *hybrid.Net, k int) int {
	start := net.Rounds()
	tree := overlay.Build(net, "baseline/naive")
	per := (k + net.Cap() - 1) / net.Cap()
	net.Charge("baseline/naive-upcast", per+tree.Depth())
	net.Charge("baseline/naive-downcast", per+tree.Depth())
	return net.Rounds() - start
}
