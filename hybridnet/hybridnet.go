// Package hybridnet is the public API of the HYBRID-model library: a
// simulator of the HYBRID/HYBRID₀ models of distributed computing
// together with the universally optimal information-dissemination and
// shortest-paths algorithms of Chang, Hecht, Leitersdorf and Schneider
// (PODC 2024), their prior-work baselines, and the matching lower bounds.
//
// A typical session builds a local communication graph, wraps it in a
// Network, and runs algorithms against it; every run reports the exact
// synchronous-round cost under the model's communication constraints:
//
//	g := hybridnet.Grid2D(32)                       // 1024-node grid
//	net, _ := hybridnet.NewNetwork(g, hybridnet.Config{})
//	res, _ := net.Disseminate(tokensPerNode)        // Theorem 1
//	fmt.Println(res.Rounds, "rounds; NQ_k =", res.NQ)
//
// The package re-exports the graph generators and the graph parameter
// NQ_k (Definition 3.1), which governs every universal bound in the
// paper: eÕ(NQ_k) rounds for broadcasting k messages, routing k·ℓ
// point-to-point messages, and the shortest-paths problems built on them.
package hybridnet

import (
	"math/rand"

	"repro/internal/apsp"
	"repro/internal/broadcast"
	"repro/internal/cuts"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/lower"
	"repro/internal/nq"
	"repro/internal/sssp"
	"repro/internal/unicast"
)

// Graph is an undirected, weighted local communication graph.
type Graph = graph.Graph

// Config parameterizes a Network (see hybrid.Config).
type Config = hybrid.Config

// Model variants.
const (
	// HYBRID: identifiers are [n] and globally known (Section 1.3).
	HYBRID = hybrid.VariantHybrid
	// HYBRID0: identifiers from a polynomial range, initially only
	// neighbors known.
	HYBRID0 = hybrid.VariantHybrid0
)

// Graph generators (Section 1.2 / Definition 3.9).
var (
	NewGraph      = graph.NewBuilder
	Path          = graph.Path
	Cycle         = graph.Cycle
	Grid          = graph.Grid
	Grid2D        = graph.Grid2D
	Torus         = graph.Torus
	Complete      = graph.Complete
	Star          = graph.Star
	BinaryTree    = graph.BinaryTree
	RingOfCliques = graph.RingOfCliques
	Lollipop      = graph.Lollipop
	RandomGraph   = graph.RandomConnected
	RandomWeights = graph.RandomWeights
)

// NQ returns the neighborhood quality NQ_k(G) (Definition 3.1), the graph
// parameter that captures the universal complexity of dissemination and
// shortest paths in HYBRID: 1 ≤ NQ_k ≤ min{D, √k} (Lemma 3.6).
func NQ(g *Graph, k int) (int, error) { return nq.Of(g, k) }

// NQPerNode returns NQ_k(v) for every node plus NQ_k(G).
func NQPerNode(g *Graph, k int) ([]int, int, error) { return nq.PerNode(g, k) }

// Network is a HYBRID network instance over a local graph. All algorithm
// methods account their rounds on the network's audit trail (Audit).
type Network struct {
	net *hybrid.Net
}

// NewNetwork wraps g in a HYBRID network. The zero Config defaults to the
// HYBRID variant with global capacity γ = ⌈log₂ n⌉.
func NewNetwork(g *Graph, cfg Config) (*Network, error) {
	net, err := hybrid.New(g, cfg)
	if err != nil {
		return nil, err
	}
	return &Network{net: net}, nil
}

// Raw exposes the underlying engine for advanced use (audit inspection,
// custom phases).
func (n *Network) Raw() *hybrid.Net { return n.net }

// N returns the number of nodes.
func (n *Network) N() int { return n.net.N() }

// Cap returns γ, the global messages per node per round.
func (n *Network) Cap() int { return n.net.Cap() }

// Rounds returns the rounds consumed so far.
func (n *Network) Rounds() int { return n.net.Rounds() }

// Audit renders the per-phase round breakdown.
func (n *Network) Audit() string { return n.net.FormatAudit() }

// ResetRounds clears the audit trail between experiments.
func (n *Network) ResetRounds() { n.net.ResetRounds() }

// BroadcastResult reports a Theorem 1/2 run.
type BroadcastResult = broadcast.Result

// Disseminate solves k-dissemination (Theorem 1): tokensAt[v] tokens
// start at node v; afterwards every node knows all of them. Runs in
// eÕ(NQ_k) deterministic HYBRID₀ rounds.
func (n *Network) Disseminate(tokensAt []int) (*BroadcastResult, error) {
	return broadcast.Disseminate(n.net, tokensAt)
}

// AggregateFunc is an associative and commutative operator.
type AggregateFunc = broadcast.AggregateFunc

// Aggregate solves k-aggregation (Theorem 2): values[v][i] = f_i(v); the
// returned slice holds F(f_i(v_1),…,f_i(v_n)) for every i. Pass nil
// values for a cost-only run.
func (n *Network) Aggregate(k int, values [][]int64, f AggregateFunc) ([]int64, *BroadcastResult, error) {
	return broadcast.Aggregate(n.net, k, values, f)
}

// BCCRound simulates one Broadcast Congested Clique round
// (Corollary 2.1) in eÕ(NQ_n) rounds.
func (n *Network) BCCRound() (*BroadcastResult, error) {
	return broadcast.SimulateBCCRound(n.net)
}

// TrackedBroadcastResult extends BroadcastResult with data-plane evidence.
type TrackedBroadcastResult = broadcast.TrackedResult

// DisseminateVerified runs Theorem 1 while moving explicit token
// identifiers (suitable for moderate n·k), certifying that every node
// ends up with every token and that the Lemma 4.1 per-member load caps
// hold throughout. Same round accounting as Disseminate.
func (n *Network) DisseminateVerified(tokensAt []int) (*TrackedBroadcastResult, error) {
	return broadcast.DisseminateTracked(n.net, tokensAt)
}

// Routing re-exports (Theorem 3 / Definition 1.3).
type (
	// RoutingSpec describes a (k,ℓ)-routing instance.
	RoutingSpec = unicast.Spec
	// RoutingResult reports a Theorem 3 run.
	RoutingResult = unicast.Result
	// RoutingCase selects the source/target regime.
	RoutingCase = unicast.Case
)

// Routing cases of Theorem 3.
const (
	ArbitrarySourcesRandomTargets = unicast.ArbitrarySourcesRandomTargets
	RandomSourcesArbitraryTargets = unicast.RandomSourcesArbitraryTargets
	RandomSourcesRandomTargets    = unicast.RandomSourcesRandomTargets
)

// SampleNodes returns a random node set: every node joins independently
// with probability p (Definition 1.3).
func SampleNodes(n int, p float64, rng *rand.Rand) []int {
	return unicast.SampleNodes(n, p, rng)
}

// Route solves the (k,ℓ)-routing problem (Theorem 3) in eÕ(NQ_k) rounds
// under the case conditions.
func (n *Network) Route(spec RoutingSpec, rng *rand.Rand) (*RoutingResult, error) {
	return unicast.Route(n.net, spec, rng)
}

// SSSP computes a (1+eps)-approximation of single-source shortest paths
// (Theorem 13) in eÕ(1/ε²) rounds. Estimates never underestimate.
func (n *Network) SSSP(source int, eps float64) ([]int64, error) {
	return sssp.Approx(n.net, source, eps)
}

// KSSPResult reports a Theorem 14 run.
type KSSPResult = sssp.KSSPResult

// KSSP solves k-source shortest paths (Theorem 14). randomSources
// selects the (1+eps) skeleton regime; arbitrary sources get stretch
// 3+O(eps) via proxy sources. dist[i][v] estimates d(sources[i], v).
func (n *Network) KSSP(sources []int, eps float64, randomSources bool, rng *rand.Rand) ([][]int64, *KSSPResult, error) {
	return sssp.KSSP(n.net, sources, eps, randomSources, rng)
}

// APSPResult reports an APSP-family run.
type APSPResult = apsp.Result

// UnweightedAPSP computes a (1+eps)-approximation of unweighted APSP
// (Theorem 6) in eÕ(NQ_n/ε²) rounds. wantValues materializes the n×n
// estimate matrix.
func (n *Network) UnweightedAPSP(eps float64, wantValues bool) ([][]int64, *APSPResult, error) {
	return apsp.Unweighted(n.net, eps, wantValues)
}

// SparseAPSP solves exact APSP by broadcasting the whole (sparse) graph
// (Corollary 2.2) in eÕ(NQ_m) rounds.
func (n *Network) SparseAPSP(wantValues bool) ([][]int64, *APSPResult, error) {
	return apsp.SparseExact(n.net, wantValues)
}

// SpannerAPSP computes a (1+eps·log n)-approximation of weighted APSP by
// broadcasting a spanner (Theorem 7).
func (n *Network) SpannerAPSP(eps float64, wantValues bool) ([][]int64, *APSPResult, error) {
	return apsp.SpannerBroadcast(n.net, eps, wantValues)
}

// SkeletonAPSP computes a (4α−1)-approximation of weighted APSP
// (Theorem 8).
func (n *Network) SkeletonAPSP(alpha int, rng *rand.Rand, wantValues bool) ([][]int64, *APSPResult, error) {
	return apsp.Skeleton(n.net, alpha, rng, wantValues)
}

// KLSP cases of Theorem 5.
const (
	KLSPArbitrarySources = apsp.KLSPArbitrarySources
	KLSPRandomBoth       = apsp.KLSPRandomBoth
)

// KLSP solves the (1+eps)-approximate (k,ℓ)-SP problem (Theorem 5);
// dist[ti][si] estimates d(targets[ti], sources[si]).
func (n *Network) KLSP(sources, targets []int, eps float64, c apsp.KLSPCase, rng *rand.Rand) ([][]int64, *APSPResult, error) {
	return apsp.KLSP(n.net, sources, targets, eps, c, rng)
}

// CutSparsifier is a broadcastable (1±ε) cut sparsifier.
type CutSparsifier = cuts.Sparsifier

// CutsResult reports a Theorem 9 run.
type CutsResult = cuts.Result

// ApproxCuts runs Theorem 9: after eÕ(NQ_n/ε + 1/ε²) rounds every node
// can locally (1+ε)-approximate every cut size via the returned
// sparsifier.
func (n *Network) ApproxCuts(eps float64, rng *rand.Rand) (*CutSparsifier, *CutsResult, error) {
	return cuts.ApproxCuts(n.net, eps, rng, cuts.Options{})
}

// LowerBound is an evaluated universal lower bound.
type LowerBound = lower.Bound

// DisseminationLowerBound evaluates the Theorem 4 eΩ(NQ_k) lower bound
// for k-dissemination on g (success probability p, global capacity γ).
func DisseminationLowerBound(g *Graph, k, gamma int, p float64) (*LowerBound, error) {
	return lower.Dissemination(g, k, gamma, p)
}

// ShortestPathsLowerBound evaluates the Theorem 11/12 eΩ(NQ_k) lower
// bound for the weighted (k,ℓ)-SP problem on g.
func ShortestPathsLowerBound(g *Graph, k, gamma int, p float64) (*LowerBound, error) {
	return lower.WeightedKLSP(g, k, gamma, p)
}
