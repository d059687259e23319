// Package unicast implements the universally optimal multi-message
// unicast — the (k,ℓ)-routing problem (Definition 1.3) — of Section 5 of
// the paper (Theorem 3):
//
//	(1) eÕ(NQ_k) rounds for ℓ ≤ NQ_k, arbitrary sources, random targets;
//	(2) eÕ(NQ_ℓ) rounds for k ≤ NQ_ℓ, random sources, arbitrary targets;
//	(3) eÕ(max{NQ_k, NQ_ℓ}) rounds for k·ℓ ≤ NQ_k·n, random/random.
//
// The implementation follows Algorithm 2: adaptive helper sets
// (Lemma 5.2) raise each endpoint's effective global bandwidth; messages
// travel source → source-helper (local) → intermediate node chosen by a
// κ-wise independent hash (Lemma 5.3) → target-helper (request/reply) →
// target (local). Case (2) and the ℓ > k half of case (3) reverse roles
// using the paper's logging-message retrace, and the k > √(n·NQ_k) regime
// of case (3) first applies the super-source/sub-target reduction of
// Lemma 5.4. All transfers are charged through the engine's capacity
// scheduler, so congestion at intermediates and helpers is real.
package unicast

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/broadcast"
	"repro/internal/cluster"
	"repro/internal/hybrid"
)

// Case selects the source/target regime of Definition 1.3 handled by the
// three parts of Theorem 3.
type Case int

// Theorem 3 cases.
const (
	// ArbitrarySourcesRandomTargets is Theorem 3 (1): ℓ ≤ NQ_k.
	ArbitrarySourcesRandomTargets Case = iota + 1
	// RandomSourcesArbitraryTargets is Theorem 3 (2): k ≤ NQ_ℓ.
	RandomSourcesArbitraryTargets
	// RandomSourcesRandomTargets is Theorem 3 (3): k·ℓ ≤ NQ_k·n.
	RandomSourcesRandomTargets
)

func (c Case) String() string {
	switch c {
	case ArbitrarySourcesRandomTargets:
		return "arbitrary-sources/random-targets"
	case RandomSourcesArbitraryTargets:
		return "random-sources/arbitrary-targets"
	case RandomSourcesRandomTargets:
		return "random-sources/random-targets"
	default:
		return fmt.Sprintf("Case(%d)", int(c))
	}
}

// Spec describes one (k,ℓ)-routing instance: every source has one message
// for every target.
type Spec struct {
	Case    Case
	Sources []int
	Targets []int
	// K and L are the nominal parameters of Definition 1.3 (for randomly
	// sampled sets these are the expected sizes); 0 means use the actual
	// set sizes.
	K, L int
}

// Result reports the outcome of a routing run.
type Result struct {
	K, L int
	// NQ is the neighborhood-quality parameter the run was driven by
	// (NQ_k, or NQ_ℓ after role reversal).
	NQ int
	// Rounds is the total round cost, including clustering and the
	// Theorem 1 broadcast of the source identifiers.
	Rounds int
	// Pairs is the number of (source, target) messages delivered.
	Pairs int64
	// MaxIntermediateLoad is the largest number of pairs hashed onto a
	// single intermediate node (Lemma 5.3 property (1)).
	MaxIntermediateLoad int
	// ConditionsMet reports whether the Theorem 3 parameter-range
	// condition of the selected case held.
	ConditionsMet bool
	// Reduced reports that the Lemma 5.4 super-source/sub-target
	// reduction was applied.
	Reduced bool
	// Reversed reports that roles were reversed (case (2), or case (3)
	// with ℓ > k) and the retrace cost doubled.
	Reversed bool
}

// SampleNodes returns the random node set of Definition 1.3: every node
// joins independently with probability p.
func SampleNodes(n int, p float64, rng *rand.Rand) []int {
	var out []int
	for v := 0; v < n; v++ {
		if rng.Float64() < p {
			out = append(out, v)
		}
	}
	return out
}

// Route solves the (k,ℓ)-routing instance described by spec (Theorem 3).
// It requires at least one source and one target.
func Route(net *hybrid.Net, spec Spec, rng *rand.Rand) (*Result, error) {
	if len(spec.Sources) == 0 || len(spec.Targets) == 0 {
		return nil, fmt.Errorf("unicast: empty sources (%d) or targets (%d)", len(spec.Sources), len(spec.Targets))
	}
	for _, v := range append(append([]int(nil), spec.Sources...), spec.Targets...) {
		if v < 0 || v >= net.N() {
			return nil, fmt.Errorf("unicast: node %d out of range", v)
		}
	}
	k, l := spec.K, spec.L
	if k <= 0 {
		k = len(spec.Sources)
	}
	if l <= 0 {
		l = len(spec.Targets)
	}
	start := net.Rounds()

	switch spec.Case {
	case ArbitrarySourcesRandomTargets:
		res, err := routeForward(net, spec.Sources, spec.Targets, k, false, rng)
		if err != nil {
			return nil, err
		}
		res.K, res.L = k, l
		res.ConditionsMet = l <= res.NQ
		res.Rounds = net.Rounds() - start
		return res, nil

	case RandomSourcesArbitraryTargets:
		// Reverse roles: route logging messages T → S (which is case (1)
		// with parameters swapped), then retrace at equal cost.
		res, err := routeForward(net, spec.Targets, spec.Sources, l, false, rng)
		if err != nil {
			return nil, err
		}
		net.Charge("unicast/retrace", res.Rounds)
		res.K, res.L = k, l
		res.Reversed = true
		res.ConditionsMet = k <= res.NQ // condition k ≤ NQ_ℓ
		res.Rounds = net.Rounds() - start
		return res, nil

	case RandomSourcesRandomTargets:
		if l > k {
			// Reverse to ℓ ≤ k and retrace.
			res, err := routeCase3(net, spec.Targets, spec.Sources, l, k, rng)
			if err != nil {
				return nil, err
			}
			net.Charge("unicast/retrace", res.Rounds)
			res.K, res.L = k, l
			res.Reversed = true
			res.Rounds = net.Rounds() - start
			return res, nil
		}
		res, err := routeCase3(net, spec.Sources, spec.Targets, k, l, rng)
		if err != nil {
			return nil, err
		}
		res.K, res.L = k, l
		res.Rounds = net.Rounds() - start
		return res, nil

	default:
		return nil, fmt.Errorf("unicast: unknown case %v", spec.Case)
	}
}

// routeForward is Algorithm 2 for Theorem 3 case (1): sources send their
// own messages (H_s = {s}); helpers are drafted for the targets only.
// When sourceHelpers is true it is the case (3) variant with helper sets
// on both sides.
func routeForward(net *hybrid.Net, sources, targets []int, k int, sourceHelpers bool, rng *rand.Rand) (*Result, error) {
	begin := net.Rounds()
	cl, err := cluster.Build(net, k)
	if err != nil {
		return nil, err
	}
	// The targets must learn the source identifiers: a Theorem 1
	// broadcast of |S| tokens.
	tokensAt := make([]int, net.N())
	for _, s := range sources {
		tokensAt[s]++
	}
	if _, err := broadcast.Disseminate(net, tokensAt); err != nil {
		return nil, err
	}

	targetHelpers, err := HelperSets(net, cl, targets, k, rng)
	if err != nil {
		return nil, err
	}
	var srcHelpers map[int][]int
	if sourceHelpers {
		if srcHelpers, err = HelperSets(net, cl, sources, k, rng); err != nil {
			return nil, err
		}
		// Sources stream their messages to their helpers locally.
		net.TickLocal("unicast/spread-sources", 4*cl.NQ)
	}

	snd, rcv := newSide(sources, srcHelpers), newSide(targets, targetHelpers)
	res, err := relayPairs(net, cl, snd, rcv, allPairs(snd, rcv), rng)
	if err != nil {
		return nil, err
	}
	res.Rounds = net.Rounds() - begin
	return res, nil
}

// routeCase3 handles Theorem 3 case (3) with ℓ ≤ k, applying the
// Lemma 5.4 reduction when k exceeds √(n·NQ_k).
func routeCase3(net *hybrid.Net, sources, targets []int, k, l int, rng *rand.Rand) (*Result, error) {
	begin := net.Rounds()
	cl, err := cluster.Build(net, k)
	if err != nil {
		return nil, err
	}
	n := net.N()
	condition := int64(k)*int64(l) <= int64(cl.NQ)*int64(n)
	threshold := math.Sqrt(float64(n) * float64(cl.NQ))

	tokensAt := make([]int, n)
	for _, s := range sources {
		tokensAt[s]++
	}
	if _, err := broadcast.Disseminate(net, tokensAt); err != nil {
		return nil, err
	}

	if float64(k) <= threshold {
		// Direct regime: helper sets on both sides.
		srcHelpers, err := HelperSets(net, cl, sources, k, rng)
		if err != nil {
			return nil, err
		}
		tgtHelpers, err := HelperSets(net, cl, targets, k, rng)
		if err != nil {
			return nil, err
		}
		net.TickLocal("unicast/spread-sources", 4*cl.NQ)
		snd, rcv := newSide(sources, srcHelpers), newSide(targets, tgtHelpers)
		res, err := relayPairs(net, cl, snd, rcv, allPairs(snd, rcv), rng)
		if err != nil {
			return nil, err
		}
		res.ConditionsMet = condition
		res.Rounds = net.Rounds() - begin
		return res, nil
	}

	// Lemma 5.4 reduction: consolidate sources into super-sources S' and
	// fan targets out into sub-targets T', both within clusters, then
	// solve the reduced instance.
	superOf, superSet := consolidateSources(net, cl, sources, k, rng)
	subsOf, subSet := fanOutTargets(net, cl, targets, k, rng)

	// Local consolidation: sources stream to their super-source; targets
	// brief their sub-targets. One weak-diameter flood each.
	net.TickLocal("unicast/lemma54-consolidate", 2*4*cl.NQ)
	// The super-source responsibility map is made public via Theorem 1
	// (eÕ(NQ_k) charged; the identifier broadcast above already carried S).
	net.Charge("unicast/lemma54-map", cl.NQ*net.PLog())

	srcHelpers, err := HelperSets(net, cl, superSet, k, rng)
	if err != nil {
		return nil, err
	}
	tgtHelpers, err := HelperSets(net, cl, subSet, k, rng)
	if err != nil {
		return nil, err
	}
	supers := make([]int, len(sources))
	for i, s := range sources {
		supers[i] = superOf[s]
	}
	snd, rcv := newSide(supers, srcHelpers), newSide(subSet, tgtHelpers)
	subs := make([][]int32, len(targets))
	for ti, t := range targets {
		subs[ti] = subsOf[t]
	}
	pairs := make([]pairMsg, 0, len(sources)*len(targets))
	for i, s := range sources {
		for ti, sub := range subs {
			at := sub[(s+ti)%len(sub)] // balanced sub-target choice
			pairs = append(pairs, pairMsg{snd.of(i), rcv.of(int(at))})
		}
	}
	res, err := relayPairs(net, cl, snd, rcv, pairs, rng)
	if err != nil {
		return nil, err
	}
	// Sub-targets forward to their targets through the local network.
	net.TickLocal("unicast/lemma54-collect", 4*cl.NQ)
	res.ConditionsMet = condition
	res.Reduced = true
	res.Rounds = net.Rounds() - begin
	return res, nil
}

// consolidateSources samples the super-source set S' (Lemma 5.4): within
// each cluster holding sources, members of S join S' with probability
// p = min(1, NQ_k·n/k²·8·ln n), at least one per such cluster, and every
// source is assigned to a super-source of its cluster in a balanced way.
func consolidateSources(net *hybrid.Net, cl *cluster.Clustering, sources []int, k int, rng *rand.Rand) (superOf map[int]int, superSet []int) {
	n := net.N()
	p := float64(cl.NQ) * float64(n) / (float64(k) * float64(k)) * 8 * math.Log(float64(n))
	if p > 1 {
		p = 1
	}
	// Sources per cluster, visited in cluster order so that the sampling
	// below draws from rng in the same order on every run.
	perCluster := make([][]int, len(cl.Clusters))
	for _, s := range sources {
		ci := cl.Of[s]
		perCluster[ci] = append(perCluster[ci], s)
	}
	superOf = make(map[int]int, len(sources))
	for _, ss := range perCluster {
		if len(ss) == 0 {
			continue
		}
		var supers []int
		for _, s := range ss {
			if rng.Float64() < p {
				supers = append(supers, s)
			}
		}
		if len(supers) == 0 {
			supers = []int{ss[0]} // w.h.p. unused; determinism fallback
		}
		for i, s := range ss {
			superOf[s] = supers[i%len(supers)]
		}
		superSet = append(superSet, supers...)
	}
	return superOf, superSet
}

// fanOutTargets samples the sub-target set T' (Lemma 5.4): every node
// joins T' with probability q = min(1, k/n·8·ln n); each target is
// assigned the sub-targets of its cluster in a balanced way (at least
// itself). subsOf lists a target's sub-targets as positions in subSet.
func fanOutTargets(net *hybrid.Net, cl *cluster.Clustering, targets []int, k int, rng *rand.Rand) (subsOf map[int][]int32, subSet []int) {
	n := net.N()
	q := float64(k) / float64(n) * 8 * math.Log(float64(n))
	if q > 1 {
		q = 1
	}
	perCluster := make(map[int][]int32)
	for v := 0; v < n; v++ {
		if rng.Float64() < q {
			perCluster[cl.Of[v]] = append(perCluster[cl.Of[v]], int32(len(subSet)))
			subSet = append(subSet, v)
		}
	}
	subsOf = make(map[int][]int32, len(targets))
	for _, t := range targets {
		subs := perCluster[cl.Of[t]]
		if len(subs) == 0 {
			subs = []int32{int32(len(subSet))}
			subSet = append(subSet, t)
		}
		subsOf[t] = subs
	}
	return subsOf, subSet
}

// endpoint is a node with a helper set: its messages are balanced over
// the helpers round-robin.
type endpoint struct {
	helpers []int
	node    int32
	next    int32 // helpers[next % len(helpers)] carries the next message
}

// side is one end of the relayed pairs. Without helper sets every node
// relays its own messages, and a pair names the node itself; with them a
// pair names an endpoint, and at[i] is the endpoint of nodes[i].
type side struct {
	nodes []int
	eps   []endpoint
	at    []int32
}

// newSide looks up each listed node's helper set once. A node listed
// twice shares one endpoint, so it keeps one round-robin counter.
func newSide(nodes []int, helpers map[int][]int) side {
	s := side{nodes: nodes}
	if helpers == nil {
		return s
	}
	s.eps = make([]endpoint, 0, len(nodes))
	s.at = make([]int32, len(nodes))
	seen := make(map[int]int32, min(len(nodes), len(helpers)))
	for i, v := range nodes {
		j, ok := seen[v]
		if !ok {
			j = int32(len(s.eps))
			seen[v] = j
			s.eps = append(s.eps, endpoint{helpers: helpers[v], node: int32(v)})
		}
		s.at[i] = j
	}
	return s
}

// of returns how a pair names the i-th listed node.
func (s *side) of(i int) int32 {
	if s.at == nil {
		return int32(s.nodes[i])
	}
	return s.at[i]
}

// node returns the node a pair's name e stands for.
func (s *side) node(e int32) int {
	if s.eps == nil {
		return int(e)
	}
	return int(s.eps[e].node)
}

// relay returns the node that carries the next message of e.
func (s *side) relay(e int32) int {
	if s.eps == nil {
		return int(e)
	}
	ep := &s.eps[e]
	if len(ep.helpers) == 0 {
		return int(ep.node)
	}
	v := ep.helpers[int(ep.next)%len(ep.helpers)]
	ep.next++
	return v
}

// pairMsg is one message, its sender and receiver named as by side.of.
type pairMsg struct{ s, t int32 }

// allPairs returns every (sender, receiver) pair of listed nodes,
// sender-major.
func allPairs(snd, rcv side) []pairMsg {
	pairs := make([]pairMsg, 0, len(snd.nodes)*len(rcv.nodes))
	for i := range snd.nodes {
		s := snd.of(i)
		for j := range rcv.nodes {
			pairs = append(pairs, pairMsg{s, rcv.of(j)})
		}
	}
	return pairs
}

// relayPairs runs the global half of Algorithm 2: every pair's message
// goes sender → intermediate h(ID(s), ID(t)) → target helper (via a
// request/reply exchange), followed by local collection at the targets.
// The hash is evaluated on blocks of four pairs; the pairs of a block are
// then tallied in order, so the round-robin choices match a pair-at-a-time
// loop.
func relayPairs(net *hybrid.Net, cl *cluster.Clustering, snd, rcv side, pairs []pairMsg, rng *rand.Rand) (*Result, error) {
	n := net.N()
	plog := net.PLog()
	// κ-wise independent hash; seed of eÕ(NQ_k) words is broadcast with
	// Theorem 1 (Lemma 5.3 property (3)) — charged.
	kappa := cl.NQ * plog
	h, err := NewHash(n, kappa, rng)
	if err != nil {
		return nil, err
	}
	net.Charge("unicast/hash-seed", cl.NQ*plog)

	// Every pair adds one word to its sender's stage-A send, to its
	// intermediate's stage-A receive, stage-B receive and stage-C send,
	// and to its target helper's stage-B send and stage-C receive, so
	// three load arrays describe all three stages.
	sent := make([]int, n)   // sender → intermediate
	inter := make([]int, n)  // pairs hashed onto each intermediate
	helper := make([]int, n) // requests sent, and replies received, by target helpers
	var x [4]uint64
	for b := 0; b < len(pairs); b += 4 {
		block := pairs[b:min(b+4, len(pairs))]
		for q, p := range block {
			x[q] = pairPoint(net.ID(snd.node(p.s)), net.ID(rcv.node(p.t)))
		}
		mids := h.eval4(&x) // a short last block reuses stale points
		for q, p := range block {
			sent[snd.relay(p.s)]++
			helper[rcv.relay(p.t)]++
			inter[mids[q]]++
		}
	}
	// Targets distribute their requests to their helpers locally before
	// stage B, and collect the delivered messages afterwards.
	net.TickLocal("unicast/spread-requests", 4*cl.NQ)
	net.LoadRounds("unicast/send-to-intermediate", sent, inter)
	net.LoadRounds("unicast/request", helper, inter)
	net.LoadRounds("unicast/reply", inter, helper)
	net.TickLocal("unicast/collect", 4*cl.NQ)

	return &Result{
		NQ:                  cl.NQ,
		Pairs:               int64(len(pairs)),
		MaxIntermediateLoad: slices.Max(inter),
	}, nil
}
