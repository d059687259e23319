// Package apsp implements the paper's universally optimal shortest-paths
// algorithms (Section 6), all built on the Theorem 1 broadcast and the
// Theorem 13/14 SSSP substrates:
//
//   - Theorem 6:  (1+ε)-approximate unweighted APSP in eÕ(NQ_n/ε²),
//     deterministic, HYBRID₀ (Algorithm 3).
//   - Corollary 2.2: exact APSP on sparse graphs by broadcasting the graph.
//   - Theorem 7:  (1+ε·log n)-approximate weighted APSP in eÕ(2^{1/ε}·NQ_n)
//     by broadcasting a spanner; Corollary 2.3 instantiates
//     ε = 1/log log n for an O(log n/log log n) stretch.
//   - Theorem 8:  (4α−1)-approximate weighted APSP via skeleton + spanner
//     (Algorithm 4).
//   - Theorem 5:  (1+ε)-approximate (k,ℓ)-SP via per-target SSSP or k-SSP
//     followed by a Theorem 3 routing step that reverses the direction of
//     knowledge.
//
// Full n×n distance output is optional (wantValues); cost accounting and
// stretch certification run either way, with values enabled in tests.
package apsp

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/broadcast"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/nq"
	"repro/internal/skeleton"
	"repro/internal/spanner"
	"repro/internal/sssp"
	"repro/internal/unicast"
)

// Result reports an APSP-family run.
type Result struct {
	// NQ is the NQ parameter driving the run (NQ_n, or NQ_k for (k,ℓ)-SP).
	NQ int
	// Rounds is the total round cost.
	Rounds int
	// Stretch is the guaranteed approximation factor of the output.
	Stretch float64
	// PayloadTokens is the number of tokens pushed through the Theorem 1
	// broadcast (spanner edges, graph edges, per-node announcements, …).
	PayloadTokens int
}

// Unweighted computes a (1+ε)-approximation of unweighted APSP
// (Theorem 6 / Algorithm 3). With wantValues the full estimate matrix
// δ[v][w] is returned (O(n²) memory); otherwise dist is nil and only the
// cost/stretch report is produced (the data flow is value-independent).
func Unweighted(net *hybrid.Net, eps float64, wantValues bool) ([][]int64, *Result, error) {
	if eps <= 0 || eps >= 1 {
		return nil, nil, fmt.Errorf("apsp: eps=%v outside (0,1)", eps)
	}
	start := net.Rounds()
	g := net.Graph().Unweighted()
	n := net.N()

	// Broadcast all identifiers (enables HYBRID-style addressing).
	ones := make([]int, n)
	for i := range ones {
		ones[i] = 1
	}
	if _, err := broadcast.Disseminate(net, ones); err != nil {
		return nil, nil, err
	}
	net.LearnAll()

	// Cluster with k = n; leaders R satisfy |R| ≤ NQ_n·(1+o(1)).
	cl, err := cluster.Build(net, n)
	if err != nil {
		return nil, nil, err
	}
	leaders := cl.Leaders()

	// (1+ε)-SSSP from every leader.
	net.Charge(hybrid.CostLeaderSSSP, hybrid.CostArgs{Eps: eps, Runs: len(leaders)})

	// Local exploration radius x = 4·NQ_n·⌈log n⌉/ε.
	x := int(math.Ceil(float64(4*cl.NQ*net.PLog()) / eps))
	if d := int(g.Diameter()); x > d {
		x = d
	}
	net.TickLocal("apsp/explore", x)

	// Every node broadcasts its closest leader and the distance to it:
	// 2 tokens per node through Theorem 1.
	twos := make([]int, n)
	for i := range twos {
		twos[i] = 2
	}
	if _, err := broadcast.Disseminate(net, twos); err != nil {
		return nil, nil, err
	}

	res := &Result{
		NQ:            cl.NQ,
		Stretch:       1 + eps, // after the ε → ε/4 re-parameterization of Theorem 6
		PayloadTokens: 3 * n,
		Rounds:        net.Rounds() - start,
	}
	if !wantValues {
		return nil, res, nil
	}

	// δ(v,w) = d(v,w) if w ∈ B_x(v), else d̂(v, c_w) + d(w, c_w),
	// with d̂ the quantized (1+ε/4) leader distances. The paper's analysis
	// gives stretch 1+ε'' with ε'' = 3ε̃+ε̃², ε̃ = ε/4 ⇒ ε'' < ε.
	epsT := eps / 4
	leaderDist := make([][]int64, len(leaders))
	quant := sssp.NewQuantizer(epsT)
	for i, r := range leaders {
		bfs := g.BFS(r)
		leaderDist[i] = make([]int64, n)
		for v, d := range bfs {
			leaderDist[i][v] = quant.Up(d)
		}
	}
	// Closest leader per node (exact unweighted distance).
	dToLeader, nearest := g.MultiSourceBFS(leaders)

	dist := make([][]int64, n)
	for v := 0; v < n; v++ {
		bfs := g.BFS(v)
		row := make([]int64, n)
		for w := 0; w < n; w++ {
			if bfs[w] <= int64(x) {
				row[w] = bfs[w]
			} else {
				cw := nearest[w]
				row[w] = leaderDist[cw][v] + dToLeader[w]
			}
		}
		dist[v] = row
	}
	return dist, res, nil
}

// addEdgeTokens makes every edge of g one token, announced by its
// smaller endpoint: for each node u of g it adds the number of edges
// {u, v} with u < v (parallel edges count once each) to tokensAt[u], or
// to tokensAt[nodes[u]] when g's nodes stand for the nodes listed in
// nodes.
func addEdgeTokens(tokensAt []int, g *graph.Graph, nodes []int) {
	for u := range g.N() {
		at := u
		if nodes != nil {
			at = nodes[u]
		}
		to, _ := g.Row(u)
		for _, v := range to {
			if u < int(v) {
				tokensAt[at]++
			}
		}
	}
}

// SparseExact solves exact weighted APSP on sparse graphs by broadcasting
// the whole graph (Corollary 2.2): m tokens through Theorem 1, then local
// computation.
func SparseExact(net *hybrid.Net, wantValues bool) ([][]int64, *Result, error) {
	start := net.Rounds()
	g := net.Graph()
	tokensAt := make([]int, net.N())
	addEdgeTokens(tokensAt, g, nil)
	bres, err := broadcast.Disseminate(net, tokensAt)
	if err != nil {
		return nil, nil, err
	}
	res := &Result{
		NQ:            bres.NQ,
		Stretch:       1,
		PayloadTokens: g.M(),
		Rounds:        net.Rounds() - start,
	}
	if !wantValues {
		return nil, res, nil
	}
	return g.APSPExact(), res, nil
}

// SpannerBroadcast computes a (1+ε·log n)-approximation of weighted APSP
// (Theorem 7): build the Lemma 6.1 spanner with k = ⌈ε·log n/2⌉,
// broadcast its m* ∈ eÕ(4^{1/ε}·n) edges, and answer queries from the
// spanner locally.
func SpannerBroadcast(net *hybrid.Net, eps float64, wantValues bool) ([][]int64, *Result, error) {
	if eps <= 0 {
		return nil, nil, fmt.Errorf("apsp: eps=%v must be positive", eps)
	}
	start := net.Rounds()
	k := int(math.Ceil(eps * float64(net.PLog()) / 2))
	if k < 1 {
		k = 1
	}
	h, err := spanner.Distributed(net, k)
	if err != nil {
		return nil, nil, err
	}
	tokensAt := make([]int, net.N())
	addEdgeTokens(tokensAt, h, nil)
	bres, err := broadcast.Disseminate(net, tokensAt)
	if err != nil {
		return nil, nil, err
	}
	res := &Result{
		NQ:            bres.NQ,
		Stretch:       float64(2*k - 1),
		PayloadTokens: h.M(),
		Rounds:        net.Rounds() - start,
	}
	if !wantValues {
		return nil, res, nil
	}
	return h.APSPExact(), res, nil
}

// LogOverLogLog computes the O(log n/log log n)-approximation of
// Corollary 2.3 by running Theorem 7 with ε = 1/log log n.
func LogOverLogLog(net *hybrid.Net, wantValues bool) ([][]int64, *Result, error) {
	ll := math.Log2(float64(net.PLog()))
	if ll < 1 {
		ll = 1
	}
	return SpannerBroadcast(net, 1/ll, wantValues)
}

// Skeleton computes a (4α−1)-approximation of weighted APSP (Theorem 8 /
// Algorithm 4) with the paper's skeleton parameter
// t = n^{1/(3α+1)}·NQ_n^{2/(3+1/α)}. SkeletonWithT lets callers (and
// tests) override t.
func Skeleton(net *hybrid.Net, alpha int, rng *rand.Rand, wantValues bool) ([][]int64, *Result, error) {
	if alpha < 1 {
		return nil, nil, fmt.Errorf("apsp: alpha=%d < 1", alpha)
	}
	q, err := clusterNQ(net)
	if err != nil {
		return nil, nil, err
	}
	return SkeletonWithT(net, alpha, skeletonT(net.N(), q, alpha), rng, wantValues)
}

// skeletonT is Theorem 8's skeleton parameter
// t = n^{1/(3α+1)}·NQ_n^{2/(3+1/α)}, at least 1.
func skeletonT(n, q, alpha int) int {
	a := float64(alpha)
	return max(1, int(math.Ceil(math.Pow(float64(n), 1/(3*a+1))*math.Pow(float64(q), 2/(3+1/a)))))
}

func clusterNQ(net *hybrid.Net) (int, error) {
	cl, err := cluster.Build(net, net.N())
	if err != nil {
		return 0, err
	}
	return cl.NQ, nil
}

// SkeletonWithT is Theorem 8 with an explicit skeleton parameter t.
func SkeletonWithT(net *hybrid.Net, alpha, t int, rng *rand.Rand, wantValues bool) ([][]int64, *Result, error) {
	if alpha < 1 || t < 1 {
		return nil, nil, fmt.Errorf("apsp: alpha=%d, t=%d must be ≥ 1", alpha, t)
	}
	start := net.Rounds()
	g := net.Graph()
	n := net.N()

	// Broadcast identifiers.
	ones := make([]int, n)
	for i := range ones {
		ones[i] = 1
	}
	if _, err := broadcast.Disseminate(net, ones); err != nil {
		return nil, nil, err
	}
	net.LearnAll()

	// Skeleton with sampling probability 1/t; h local construction rounds.
	sk, err := skeleton.Build(g, t, nil, true, rng)
	if err != nil {
		return nil, nil, err
	}
	net.TickLocal("apsp/skeleton", sk.H)

	// (2α−1)-spanner of the skeleton; each [RG20] CONGEST round is
	// simulated over skeleton edges, i.e. eÕ(t) rounds in G.
	kSp, err := spanner.Compute(sk.S, alpha)
	if err != nil {
		return nil, nil, err
	}
	net.Charge(hybrid.CostSkeletonSpanner, hybrid.CostArgs{T: t})

	// Broadcast the spanner edges (tokens live at skeleton nodes).
	tokensAt := make([]int, n)
	addEdgeTokens(tokensAt, kSp, sk.Nodes)
	var bNQ int
	if kSp.M() > 0 {
		bres, err := broadcast.Disseminate(net, tokensAt)
		if err != nil {
			return nil, nil, err
		}
		bNQ = bres.NQ
	}

	// Every node learns its h-hop neighborhood, finds its closest
	// skeleton node, and broadcasts (v_s, d^h(v, v_s)): 2n tokens.
	net.TickLocal("apsp/explore", sk.H)
	twos := make([]int, n)
	for i := range twos {
		twos[i] = 2
	}
	if _, err := broadcast.Disseminate(net, twos); err != nil {
		return nil, nil, err
	}

	res := &Result{
		NQ:            bNQ,
		Stretch:       float64(4*alpha - 1),
		PayloadTokens: kSp.M() + 2*n,
		Rounds:        net.Rounds() - start,
	}
	if !wantValues {
		return nil, res, nil
	}

	// Local estimates: δ(v,w) = min{d^h(v,w), d^h(v,v_s) + d̂(v_s,w_s) +
	// d^h(w_s,w)} with d̂ the spanner distances.
	spannerDist := kSp.APSPExact()
	hop := make([][]int64, n) // d^h from every node
	vs := make([]int, n)      // closest skeleton node (index into sk.Nodes)
	vsD := make([]int64, n)
	for v := 0; v < n; v++ {
		hop[v] = g.HopLimitedDistances(v, sk.H)
		best, bestD := -1, graph.Inf
		for si, u := range sk.Nodes {
			if hop[v][u] < bestD {
				best, bestD = si, hop[v][u]
			}
		}
		vs[v], vsD[v] = best, bestD
	}
	dist := make([][]int64, n)
	for v := 0; v < n; v++ {
		row := make([]int64, n)
		for w := 0; w < n; w++ {
			est := hop[v][w]
			if vs[v] >= 0 && vs[w] >= 0 {
				sd := spannerDist[vs[v]][vs[w]]
				if sd < graph.Inf {
					if alt := vsD[v] + sd + vsD[w]; alt < est {
						est = alt
					}
				}
			}
			row[w] = est
		}
		dist[v] = row
	}
	return dist, res, nil
}

// KLSPCase selects which Theorem 5 condition a (k,ℓ)-SP run targets.
type KLSPCase int

// Theorem 5 cases.
const (
	// KLSPArbitrarySources: arbitrary sources, random targets, ℓ ≤ NQ_k.
	KLSPArbitrarySources KLSPCase = iota + 1
	// KLSPRandomBoth: random sources and targets, ℓ ≤ NQ_k², ℓ·k ≤ NQ_k·n.
	KLSPRandomBoth
)

// KLSP solves the (1+ε)-approximate (k,ℓ)-SP problem (Theorem 5): every
// target learns its approximate distance to every source. With
// wantValues dist is indexed dist[ti][si]; otherwise it is nil.
func KLSP(net *hybrid.Net, sources, targets []int, eps float64, c KLSPCase, rng *rand.Rand, wantValues bool) ([][]int64, *Result, error) {
	if len(sources) == 0 || len(targets) == 0 {
		return nil, nil, fmt.Errorf("apsp: empty sources or targets")
	}
	if eps <= 0 {
		return nil, nil, fmt.Errorf("apsp: eps=%v must be positive", eps)
	}
	start := net.Rounds()
	g := net.Graph()
	k, l := len(sources), len(targets)
	var (
		dist    [][]int64
		stretch float64
	)
	switch c {
	case KLSPArbitrarySources:
		net.Charge(hybrid.CostTargetSSSP, hybrid.CostArgs{Eps: eps, Runs: l})
		if wantValues {
			dist = make([][]int64, l)
			quant := sssp.NewQuantizer(eps)
			for ti, t := range targets {
				d := g.Dijkstra(t)
				row := make([]int64, k)
				for si, s := range sources {
					row[si] = quant.Up(d[s])
				}
				dist[ti] = row
			}
		}
		stretch = 1 + eps
		// Reverse the knowledge: each source sends ed(s,t) to t via
		// (k,ℓ)-routing case (1).
		spec := unicast.Spec{Case: unicast.ArbitrarySourcesRandomTargets, Sources: sources, Targets: targets, K: k, L: l}
		if _, err := unicast.Route(net, spec, rng); err != nil {
			return nil, nil, err
		}
	case KLSPRandomBoth:
		// ℓ-SSP for the targets as sources (Theorem 14, random regime).
		kdist, kres, err := sssp.KSSP(net, targets, eps, true, rng, wantValues)
		if err != nil {
			return nil, nil, err
		}
		if wantValues {
			dist = make([][]int64, l)
			for ti := range targets {
				row := make([]int64, k)
				for si, s := range sources {
					row[si] = kdist[ti][s]
				}
				dist[ti] = row
			}
		}
		stretch = kres.Stretch
		spec := unicast.Spec{Case: unicast.RandomSourcesRandomTargets, Sources: sources, Targets: targets, K: k, L: l}
		if _, err := unicast.Route(net, spec, rng); err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("apsp: unknown KLSP case %d", int(c))
	}
	q, err := clusterNQValue(net, k)
	if err != nil {
		return nil, nil, err
	}
	return dist, &Result{
		NQ:      q,
		Stretch: stretch,
		Rounds:  net.Rounds() - start,
	}, nil
}

// clusterNQValue returns NQ_k without charging rounds (reporting only).
func clusterNQValue(net *hybrid.Net, k int) (int, error) {
	return nq.Of(net.Graph(), k)
}
