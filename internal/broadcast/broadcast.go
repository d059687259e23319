// Package broadcast implements the universally optimal multi-message
// broadcast algorithms of Section 4 of the paper:
//
//   - Theorem 1: k-dissemination in eÕ(NQ_k) deterministic HYBRID₀ rounds,
//   - Theorem 2: k-aggregation in eÕ(NQ_k) deterministic HYBRID₀ rounds,
//   - Corollary 2.1: simulation of one Broadcast Congested Clique round.
//
// The pipeline follows the proof of Theorem 1 (see Fig. 2 of the paper):
// cluster the graph by NQ_k (Lemma 3.5), build logical binary trees inside
// each cluster and a cluster tree over the leaders (Lemma 4.6), match tree
// slots of adjacent clusters so they can talk globally ("cluster
// chaining"), load-balance tokens inside clusters (Lemma 4.1), converge-
// cast all tokens to the root cluster, cast them back down, and finally
// flood within each cluster. Token movement is tracked as per-cluster
// token sets, and every transfer is charged through the engine's
// capacity-constrained scheduler, so the reported rounds reflect real
// congestion.
package broadcast

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/cluster"
	"repro/internal/hybrid"
	"repro/internal/overlay"
)

// Result reports the outcome and cost of a dissemination or aggregation.
type Result struct {
	// K is the number of tokens (or aggregation indices).
	K int
	// NQ is NQ_k(G) as computed by the run.
	NQ int
	// Rounds is the total rounds consumed (simulated + charged).
	Rounds int
	// SimulatedRounds and ChargedRounds split Rounds by audit kind.
	SimulatedRounds, ChargedRounds int
	// Clusters is the number of clusters of the Lemma 3.5 partition
	// (0 when the small-k fast path skipped clustering).
	Clusters int
	// MaxNodeLoad is the largest number of words any single node sent or
	// received in one up-/down-cast level — the quantity the Theorem 1
	// proof bounds by O(NQ_k) via the Lemma 4.1 load balancing.
	MaxNodeLoad int
}

// Disseminate solves k-dissemination (Definition 1.1): tokensAt[v] is the
// number of tokens initially held by node v (token contents do not affect
// the algorithm; identities are tracked to certify delivery). On return,
// every node knows every token. The engine's audit trail records the cost
// of each phase.
func Disseminate(net *hybrid.Net, tokensAt []int) (*Result, error) {
	per, err := disseminate(net, tokensAt)
	if err != nil {
		return nil, err
	}
	return per.result(net), nil
}

// run captures the internal state of one Theorem 1 execution.
type run struct {
	startRounds int
	k           int
	nq          int
	clusters    int
	maxLoad     int
}

func (r *run) result(net *hybrid.Net) *Result {
	sim, ch := net.RoundsByKind()
	return &Result{
		K:               r.k,
		NQ:              r.nq,
		Rounds:          net.Rounds() - r.startRounds,
		SimulatedRounds: sim,
		ChargedRounds:   ch,
		Clusters:        r.clusters,
		MaxNodeLoad:     r.maxLoad,
	}
}

func disseminate(net *hybrid.Net, tokensAt []int) (*run, error) {
	n := net.N()
	if len(tokensAt) != n {
		return nil, fmt.Errorf("broadcast: tokensAt has %d entries, want %d", len(tokensAt), n)
	}
	r := &run{startRounds: net.Rounds()}
	k := 0
	for v, c := range tokensAt {
		if c < 0 {
			return nil, fmt.Errorf("broadcast: negative token count at node %d", v)
		}
		k += c
	}
	r.k = k
	// Counting k is a 1-aggregation (Lemma 4.4).
	if _, err := overlay.BasicAggregate(net, "disseminate/count"); err != nil {
		return nil, err
	}
	if k == 0 {
		return r, nil
	}
	plog := net.PLog()

	// Small-k fast path (remark after Lemma 4.4): k ∈ eÕ(1) tokens are
	// broadcast directly over the Lemma 4.3 tree in parallel.
	if k <= plog*plog {
		tree := overlay.Build(net, "disseminate/small")
		if _, err := tree.Aggregate("disseminate/small", k); err != nil {
			return nil, err
		}
		r.nq = 1
		return r, nil
	}

	// Phase 1: clustering (Lemma 3.5, includes the Lemma 3.3 NQ_k rounds).
	cl, err := cluster.Build(net, k)
	if err != nil {
		return nil, err
	}
	r.nq = cl.NQ
	r.clusters = len(cl.Clusters)

	state, err := newTreeState(net, cl)
	if err != nil {
		return nil, err
	}

	// Initial per-cluster token sets.
	sets := make([]bitset.Set, len(cl.Clusters))
	for i := range sets {
		sets[i] = bitset.New(k)
	}
	tid := 0
	for v := 0; v < n; v++ {
		for j := 0; j < tokensAt[v]; j++ {
			sets[cl.Of[v]].Add(tid)
			tid++
		}
	}

	// Phase 3: initial load balancing inside each cluster (Lemma 4.1):
	// 2×(weak diameter) local rounds.
	state.loadBalance("disseminate/loadbalance")

	// Phase 4: converge-cast all tokens to the root cluster, deepest
	// cluster-tree level first, load balancing before each level.
	if err := state.convergeCastSets("disseminate/upcast", sets, k); err != nil {
		return nil, err
	}

	// Phase 5: cast all tokens down the cluster tree.
	if err := state.broadcastDownAll("disseminate/downcast", sets, k); err != nil {
		return nil, err
	}
	r.maxLoad = state.maxLoad

	// Phase 6: intra-cluster flood so each member learns everything its
	// cluster holds.
	net.TickLocal("disseminate/flood", state.weakDiam)

	// Delivery certificate: every cluster must now hold all k tokens.
	for ci := range sets {
		if missing, held, ok := certifyFullSet(sets[ci], k); !ok {
			return nil, fmt.Errorf("broadcast: internal error: cluster %d holds %d/%d tokens after downcast (first missing: %d)",
				ci, held, k, missing)
		}
	}
	return r, nil
}

// treeState holds the cluster tree, slot matching, and cost parameters
// shared by dissemination and aggregation.
type treeState struct {
	net      *hybrid.Net
	cl       *cluster.Clustering
	ctree    *overlay.Tree // tree over cluster leaders
	slots    int           // logical binary tree size per cluster (uniform)
	weakDiam int           // 4·NQ_k upper bound used for local phases
	maxLoad  int           // largest per-node word load of any level
	// out/in are the per-node word-load vectors of the current up-/down-
	// cast level, allocated once per run and re-zeroed between levels.
	out, in []int
}

// certifyFullSet checks that s, a set of capacity k, holds exactly the
// tokens 0..k-1 — the delivery invariant of the Theorem 1 data flow. A
// set of capacity k holds k tokens only if it holds all of them, so a
// popcount decides; only on failure are the bits probed, to report the
// first missing token and how many the set actually holds.
func certifyFullSet(s bitset.Set, k int) (missing, held int, ok bool) {
	if held = s.Count(); held == k {
		return 0, held, true
	}
	for s.Has(missing) {
		missing++
	}
	return missing, held, false
}

// loads returns the level load vectors, zeroed for the next level.
func (st *treeState) loads() (out, in []int) {
	if st.out == nil {
		st.out = make([]int, st.net.N())
		st.in = make([]int, st.net.N())
		return st.out, st.in
	}
	for i := range st.out {
		st.out[i] = 0
		st.in[i] = 0
	}
	return st.out, st.in
}

// newTreeState builds the Theorem 1 cluster tree over cl's leaders and
// chains the clusters along it. The tree is a pure function of cl, so
// its charges replay from the cell's transcript (hybrid.Each) and the
// recorded tree is shared read-only.
func newTreeState(net *hybrid.Net, cl *cluster.Clustering) (*treeState, error) {
	// Uniform logical tree size: the largest cluster size, so that every
	// cluster simulates a tree of the exact same shape (members of smaller
	// clusters simulate up to ⌈slots/|C|⌉ ≤ 2 tree nodes).
	slots := 0
	for _, c := range cl.Clusters {
		if len(c.Members) > slots {
			slots = len(c.Members)
		}
	}
	st := &treeState{net: net, cl: cl, slots: slots, weakDiam: max(4*cl.NQ, 1)}
	ctree, err := hybrid.Each(net, hybrid.Phase{Name: "broadcast/cluster-tree", K: cl.K}, func() (*overlay.Tree, error) {
		// Phase 2a: cluster tree over the leaders (Lemma 4.6).
		t, err := overlay.BuildOn(net, cl.Leaders(), "disseminate/clustertree")
		if err != nil {
			return nil, err
		}
		st.ctree = t
		st.chainClusters()
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	st.ctree = ctree.On(net)
	return st, nil
}

// leaderCluster maps a leader node back to its cluster index.
func (st *treeState) clusterOfLeader(leader int) int { return st.cl.Of[leader] }

// slotNode returns the member of cluster ci simulating logical slot s.
func (st *treeState) slotNode(ci, s int) int {
	members := st.cl.Clusters[ci].Members
	return members[s%len(members)]
}

// chainClusters performs the "cluster chaining" subphase 2 of Theorem 1:
// for every cluster-tree edge, matched slots of the two clusters learn
// each other's identifiers top-down through the intra-cluster trees. This
// costs O(depth of intra-cluster tree) global rounds with O(1)-word
// messages per matched pair per level.
func (st *treeState) chainClusters() {
	net := st.net
	depth := 1
	for s := 1; s < st.slots; s <<= 1 {
		depth++
	}
	// Per level: each node participating in a matching for some tree edge
	// sends/receives O(1) identifiers per incident cluster-tree edge.
	for level := 0; level < depth; level++ {
		out, in := st.loads()
		lo := (1 << level) - 1
		hi := (1 << (level + 1)) - 1
		if hi > st.slots {
			hi = st.slots
		}
		for i, leader := range st.ctree.Members {
			ci := st.clusterOfLeader(leader)
			parentLeader := st.ctree.Parent(i)
			if parentLeader < 0 {
				continue
			}
			pi := st.clusterOfLeader(parentLeader)
			for s := lo; s < hi; s++ {
				a, b := st.slotNode(ci, s), st.slotNode(pi, s)
				net.Learn(a, b)
				net.Learn(b, a)
				out[a] += 2 // forwards the IDs of its two children slots
				out[b] += 2
				in[a] += 2
				in[b] += 2
			}
		}
		st.net.LoadRounds("disseminate/chaining", out, in)
	}
}

// loadBalance charges one Lemma 4.1 balancing step: 2×(weak diameter)
// local rounds.
func (st *treeState) loadBalance(phase string) {
	st.net.TickLocal(phase, 2*st.weakDiam)
}

// addTransferLoad accumulates the global transfer of `tokens` words from
// cluster ci to cluster pi over the slot matching, with tokens spread
// evenly over the slots (the state of affairs after the Lemma 4.1
// balancing), and tracks the per-node load maximum for the Theorem 1
// O(NQ_k)-per-level invariant.
func (st *treeState) addTransferLoad(out, in []int, ci, pi, tokens int) {
	if tokens <= 0 {
		return
	}
	perSlot := (tokens + st.slots - 1) / st.slots
	for s := 0; s < st.slots; s++ {
		a, b := st.slotNode(ci, s), st.slotNode(pi, s)
		out[a] += perSlot
		in[b] += perSlot
		if out[a] > st.maxLoad {
			st.maxLoad = out[a]
		}
		if in[b] > st.maxLoad {
			st.maxLoad = in[b]
		}
	}
}

// convergeCastSets moves every cluster's token set up to the root cluster,
// processing cluster-tree levels deepest first with a load-balancing step
// before each level (the paper's O(log n) up-cast iterations), then
// certifies that the root holds all k tokens.
func (st *treeState) convergeCastSets(phase string, sets []bitset.Set, k int) error {
	levels := st.treeLevels()
	for li := len(levels) - 1; li >= 1; li-- {
		st.loadBalance(phase + "/loadbalance")
		out, in := st.loads()
		type edge struct{ child, parent int }
		var edges []edge
		for j, leader := range levels[li] {
			ci := st.clusterOfLeader(leader)
			pi := st.parentCluster(li, j)
			edges = append(edges, edge{ci, pi})
			st.addTransferLoad(out, in, ci, pi, sets[ci].Count())
		}
		st.net.LoadRounds(phase, out, in)
		for _, e := range edges {
			sets[e.parent].UnionWith(sets[e.child])
		}
	}
	// Up-cast invariant: the root cluster now holds the union of every
	// initial placement — all k tokens. (broadcastDownAll re-checks its
	// precondition, but failing here pins a bug to the up-cast.)
	rootCi := st.clusterOfLeader(st.ctree.Root())
	if missing, held, ok := certifyFullSet(sets[rootCi], k); !ok {
		return fmt.Errorf("broadcast: internal error: root cluster holds %d/%d tokens after upcast (first missing: %d)", held, k, missing)
	}
	return nil
}

// broadcastDownAll pushes the root cluster's full token set down the
// cluster tree level by level (k words per edge, slot-balanced).
func (st *treeState) broadcastDownAll(phase string, sets []bitset.Set, k int) error {
	levels := st.treeLevels()
	rootCi := st.clusterOfLeader(st.ctree.Root())
	if missing, held, ok := certifyFullSet(sets[rootCi], k); !ok {
		return fmt.Errorf("broadcast: root cluster holds %d/%d tokens before downcast (first missing: %d)", held, k, missing)
	}
	for li := 0; li+1 < len(levels); li++ {
		st.loadBalance(phase + "/loadbalance")
		out, in := st.loads()
		for j, leader := range levels[li+1] {
			ci := st.clusterOfLeader(leader)
			pi := st.parentCluster(li+1, j)
			st.addTransferLoad(out, in, pi, ci, k)
		}
		st.net.LoadRounds(phase, out, in)
		for j, leader := range levels[li+1] {
			ci := st.clusterOfLeader(leader)
			pi := st.parentCluster(li+1, j)
			sets[ci].UnionWith(sets[pi])
		}
	}
	return nil
}

// parentCluster returns the cluster of the parent of the j-th leader of
// tree level li ≥ 1, which sits at heap position 2^li − 1 + j.
func (st *treeState) parentCluster(li, j int) int {
	return st.clusterOfLeader(st.ctree.Parent(1<<li - 1 + j))
}

// treeLevels groups the cluster-tree member leaders by depth, root first.
func (st *treeState) treeLevels() [][]int {
	var out [][]int
	members := st.ctree.Members
	for start := 0; start < len(members); {
		size := 1 << len(out)
		end := start + size
		if end > len(members) {
			end = len(members)
		}
		out = append(out, members[start:end])
		start = end
	}
	return out
}

// AggregateFunc is an associative, commutative aggregation operator
// (Definition 1.2), e.g. min, max, or sum.
type AggregateFunc func(a, b int64) int64

// Aggregate solves k-aggregation (Theorem 2): values[v][i] is f_i(v); on
// return every node knows F(f_i(v_1),…,f_i(v_n)) for all i ∈ [k]. If
// values is nil the run is cost-only for the given k (the data flow and
// rounds are value-independent). It returns the k aggregation results
// (nil in cost-only mode) and the run report.
func Aggregate(net *hybrid.Net, k int, values [][]int64, f AggregateFunc) ([]int64, *Result, error) {
	n := net.N()
	if values != nil {
		if len(values) != n {
			return nil, nil, fmt.Errorf("broadcast: values has %d rows, want %d", len(values), n)
		}
		for v := range values {
			if len(values[v]) != k {
				return nil, nil, fmt.Errorf("broadcast: values[%d] has %d entries, want k=%d", v, len(values[v]), k)
			}
		}
		if f == nil {
			return nil, nil, fmt.Errorf("broadcast: nil aggregation function with values")
		}
	}
	if k <= 0 {
		return nil, nil, fmt.Errorf("broadcast: non-positive k=%d", k)
	}
	r := &run{startRounds: net.Rounds(), k: k}

	plog := net.PLog()
	combineAll := func() []int64 {
		if values == nil {
			return nil
		}
		acc := append([]int64(nil), values[0]...)
		for v := 1; v < n; v++ {
			for i := 0; i < k; i++ {
				acc[i] = f(acc[i], values[v][i])
			}
		}
		return acc
	}

	// Small-k fast path: k parallel Lemma 4.4 aggregations.
	if k <= plog*plog {
		tree := overlay.Build(net, "aggregate/small")
		if _, err := tree.Aggregate("aggregate/small", k); err != nil {
			return nil, nil, err
		}
		r.nq = 1
		return combineAll(), r.result(net), nil
	}

	cl, err := cluster.Build(net, k)
	if err != nil {
		return nil, nil, err
	}
	r.nq = cl.NQ
	r.clusters = len(cl.Clusters)
	st, err := newTreeState(net, cl)
	if err != nil {
		return nil, nil, err
	}

	// Intra-cluster aggregation: flood values within the cluster (weak
	// diameter local rounds), every member computes the k partial results,
	// then the results are load-balanced over members.
	net.TickLocal("aggregate/intra", st.weakDiam)
	st.loadBalance("aggregate/loadbalance")

	// Converge-cast: every cluster sends k partial aggregates up, level by
	// level; internal clusters combine, so each edge carries exactly k
	// words (unlike dissemination no dedup is possible).
	levels := st.treeLevels()
	for li := len(levels) - 1; li >= 1; li-- {
		st.loadBalance("aggregate/upcast/loadbalance")
		out, in := st.loads()
		for j, leader := range levels[li] {
			ci := st.clusterOfLeader(leader)
			pi := st.parentCluster(li, j)
			st.addTransferLoad(out, in, ci, pi, k)
		}
		net.LoadRounds("aggregate/upcast", out, in)
	}
	// Root cluster floods internally and computes the k final results.
	net.TickLocal("aggregate/root", st.weakDiam)

	// Disseminate the k results from the root cluster (Theorem 1 down-cast
	// + flood; the root already holds everything so the up-cast is free).
	sets := make([]bitset.Set, len(cl.Clusters))
	for i := range sets {
		sets[i] = bitset.New(k)
	}
	rootCi := st.clusterOfLeader(st.ctree.Root())
	for i := 0; i < k; i++ {
		sets[rootCi].Add(i)
	}
	if err := st.broadcastDownAll("aggregate/downcast", sets, k); err != nil {
		return nil, nil, err
	}
	net.TickLocal("aggregate/flood", st.weakDiam)
	return combineAll(), r.result(net), nil
}

// SimulateBCCRound simulates one round of the Broadcast Congested Clique
// (Corollary 2.1): every node broadcasts one O(log n)-bit message to the
// entire network, i.e. an n-dissemination with one token per node,
// costing eÕ(NQ_n) rounds.
func SimulateBCCRound(net *hybrid.Net) (*Result, error) {
	tokensAt := make([]int, net.N())
	for v := range tokensAt {
		tokensAt[v] = 1
	}
	return Disseminate(net, tokensAt)
}
