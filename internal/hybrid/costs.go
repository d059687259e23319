package hybrid

import "math"

// Cost is one entry of the charge table below: a subroutine that the
// library computes functionally and charges its published round cost
// (DESIGN.md §2). An entry holds its audit phase, its citation, its
// kind — "cited" prior work that the paper invokes as a black box, the
// paper's "own" lemma or theorem (charged until the repository composes
// it from simulated parts), or a "baseline" comparator's pipeline — and
// its formula in ⌈log₂ n⌉ and CostArgs. Only this file makes entries,
// and Charge takes nothing else.
type Cost struct {
	phase, cite, kind string
	rounds            func(plog int, a CostArgs) int
}

// CostArgs are the named parameters of the formulas; an entry reads
// only those it names. Prefix is the caller's phase, which entries
// whose phase starts with "/" are recorded under. N and K count nodes
// and sources, Gamma is the capacity γ, Depth a tree's depth, T the
// skeleton's sampling parameter, Runs a count of sequential runs or
// batches, NQ the clustering's NQ_k, Alpha the ruling set's separation
// and Rounds the rounds of a measured run.
type CostArgs struct {
	Prefix                                         string
	Eps                                            float64
	N, K, Gamma, Depth, T, Runs, NQ, Alpha, Rounds int
}

// Charge records the rounds of entry c's formula under a (Kind Charged).
func (net *Net) Charge(c *Cost, a CostArgs) {
	rounds := c.rounds(net.plog, a)
	net.record(a.Prefix+c.phase, rounds, Charged)
	net.stats.GlobalRounds += int64(rounds)
}

// oneSSSP is one (1+ε)-SSSP run of Theorem 13, eÕ(1/ε²) rounds.
func oneSSSP(plog int, a CostArgs) int { return plog * plog * max(1, int(math.Ceil(1/(a.Eps*a.Eps)))) }

func ssspRuns(plog int, a CostArgs) int { return a.Runs * oneSSSP(plog, a) }

func plog2(plog int, _ CostArgs) int { return plog * plog }

func naiveCast(_ int, a CostArgs) int { return (a.K+a.Gamma-1)/a.Gamma + a.Depth }

// The charge table; DESIGN.md §2 states each formula in words. eÕ(1)
// is ⌈log₂ n⌉² throughout.
var (
	CostOverlayBuild    = &Cost{"/overlay-build", "Lemma 4.3, [GHSS17]", "cited", plog2}
	CostRulingSet       = &Cost{"cluster/ruling-set", "[KMW18]", "cited", func(p int, a CostArgs) int { return a.Alpha * p }}
	CostSpanner         = &Cost{"spanner/rg20", "[RG20]", "cited", plog2}
	CostSkeletonSpanner = &Cost{"apsp/skeleton-spanner", "[RG20]", "cited", func(p int, a CostArgs) int { return a.T * p * p }}
	CostSparsifier      = &Cost{"cuts/kx16", "[KX16]", "cited", oneSSSP}
	// CostKSSPLargeK charges [CHLP21a]'s eÕ(n^{1/3}+√k) as
	// ⌊n^{1/3}+√k⌋·plog², while baseline.CHLP21KSSP evaluates the same
	// bound as (n^{1/3}+√k)·plog: a Figure 1 row with k ≥ n^{2/3} sits
	// about plog× above its own comparator.
	CostKSSPLargeK = &Cost{"kssp/chlp21", "[CHLP21a]", "cited", func(p int, a CostArgs) int {
		return int(math.Cbrt(float64(a.N))+math.Sqrt(float64(a.K))) * p * p
	}}

	CostPrune            = &Cost{"/prune", "Lemma 4.5", "own", func(_ int, a CostArgs) int { return (a.Depth + 1) * (a.Depth + 1) }}
	CostRetrace          = &Cost{"unicast/retrace", "Theorem 3", "own", func(_ int, a CostArgs) int { return a.Rounds }}
	CostHashSeed         = &Cost{"unicast/hash-seed", "Lemma 5.3", "own", func(p int, a CostArgs) int { return a.NQ * p }}
	CostLemma54Map       = &Cost{"unicast/lemma54-map", "Lemma 5.4", "own", func(p int, a CostArgs) int { return a.NQ * p }}
	CostMinorAggregation = &Cost{"minor-aggregation/round", "Lemma 8.2", "own", plog2}
	CostOracleEuler      = &Cost{"sssp/oracle-euler", "Lemma 8.6", "own", plog2}
	CostTheorem13        = &Cost{"sssp/theorem13", "Theorem 13", "own", oneSSSP}
	CostLeaderSSSP       = &Cost{"apsp/leader-sssp", "Theorem 13", "own", ssspRuns}
	CostTargetSSSP       = &Cost{"klsp/target-sssp", "Theorem 13", "own", ssspRuns}
	CostKSSPParallel     = &Cost{"kssp/parallel", "Theorem 13", "own", oneSSSP}
	CostKSSPSchedule     = &Cost{"kssp/schedule", "Lemma 9.3", "own", ssspRuns}
	CostKSSPOffsets      = &Cost{"kssp/broadcast-offsets", "Theorem 1", "own", func(p int, a CostArgs) int { return a.Runs * p * p }}

	CostNaiveUpcast   = &Cost{"baseline/naive-upcast", "baseline", "baseline", naiveCast}
	CostNaiveDowncast = &Cost{"baseline/naive-downcast", "baseline", "baseline", naiveCast}
)
