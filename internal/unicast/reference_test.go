package unicast

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/hybrid"
)

// This file keeps Route as it was before the pair loop evaluated the
// hash four points at a time and read helper sets from per-endpoint
// slices, as the differential reference for Route: the same phases, but
// pairs hold node numbers, helper sets and round-robin counters live in
// maps keyed by node, and every pair runs the scalar %-based Horner
// chain of referenceEval.

type referencePair struct{ s, t int32 }

// referenceRoute is Route with the reference relay.
func referenceRoute(net *hybrid.Net, spec Spec, rng *rand.Rand) (*Result, error) {
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
		res, err := referenceForward(net, spec.Sources, spec.Targets, k, false, rng)
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
		res, err := referenceForward(net, spec.Targets, spec.Sources, l, false, rng)
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
			res, err := referenceCase3(net, spec.Targets, spec.Sources, l, k, rng)
			if err != nil {
				return nil, err
			}
			net.Charge("unicast/retrace", res.Rounds)
			res.K, res.L = k, l
			res.Reversed = true
			res.Rounds = net.Rounds() - start
			return res, nil
		}
		res, err := referenceCase3(net, spec.Sources, spec.Targets, k, l, rng)
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

// referenceForward is Algorithm 2 for Theorem 3 case (1): sources send their
// own messages (H_s = {s}); helpers are drafted for the targets only.
// When sourceHelpers is true it is the case (3) variant with helper sets
// on both sides.
func referenceForward(net *hybrid.Net, sources, targets []int, k int, sourceHelpers bool, rng *rand.Rand) (*Result, error) {
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

	pairs := make([]referencePair, 0, len(sources)*len(targets))
	for _, s := range sources {
		for _, t := range targets {
			pairs = append(pairs, referencePair{int32(s), int32(t)})
		}
	}
	res, err := referenceRelay(net, cl, pairs, srcHelpers, targetHelpers, rng)
	if err != nil {
		return nil, err
	}
	res.Rounds = net.Rounds() - begin
	return res, nil
}

// referenceCase3 handles Theorem 3 case (3) with ℓ ≤ k, applying the
// Lemma 5.4 reduction when k exceeds √(n·NQ_k).
func referenceCase3(net *hybrid.Net, sources, targets []int, k, l int, rng *rand.Rand) (*Result, error) {
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
		pairs := make([]referencePair, 0, len(sources)*len(targets))
		for _, s := range sources {
			for _, t := range targets {
				pairs = append(pairs, referencePair{int32(s), int32(t)})
			}
		}
		res, err := referenceRelay(net, cl, pairs, srcHelpers, tgtHelpers, rng)
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
	subsOf, subSet := referenceFanOut(net, cl, targets, k, rng)

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
	pairs := make([]referencePair, 0, len(sources)*len(targets))
	for _, s := range sources {
		for ti, t := range targets {
			subs := subsOf[t]
			sub := subs[(s+ti)%len(subs)] // balanced sub-target choice
			pairs = append(pairs, referencePair{int32(superOf[s]), int32(sub)})
		}
	}
	res, err := referenceRelay(net, cl, pairs, srcHelpers, tgtHelpers, rng)
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

// referenceFanOut samples the sub-target set T' (Lemma 5.4): every node
// joins T' with probability q = min(1, k/n·8·ln n); each target is
// assigned the sub-targets of its cluster in a balanced way (at least
// itself).
func referenceFanOut(net *hybrid.Net, cl *cluster.Clustering, targets []int, k int, rng *rand.Rand) (subsOf map[int][]int, subSet []int) {
	n := net.N()
	q := float64(k) / float64(n) * 8 * math.Log(float64(n))
	if q > 1 {
		q = 1
	}
	perCluster := make(map[int][]int)
	for v := 0; v < n; v++ {
		if rng.Float64() < q {
			perCluster[cl.Of[v]] = append(perCluster[cl.Of[v]], v)
			subSet = append(subSet, v)
		}
	}
	subsOf = make(map[int][]int, len(targets))
	for _, t := range targets {
		subs := perCluster[cl.Of[t]]
		if len(subs) == 0 {
			subs = []int{t}
			subSet = append(subSet, t)
		}
		subsOf[t] = subs
	}
	return subsOf, subSet
}

// referenceRelay runs the global half of Algorithm 2: every pair's message
// goes sender → intermediate h(ID(s), ID(t)) → target helper (via a
// request/reply exchange), followed by local collection at the targets.
// srcHelpers may be nil (senders transmit their own messages, case (1)).
func referenceRelay(net *hybrid.Net, cl *cluster.Clustering, pairs []referencePair, srcHelpers, tgtHelpers map[int][]int, rng *rand.Rand) (*Result, error) {
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

	// Requests are balanced over each target's helpers; source messages
	// over each source's helpers (if any).
	rrSrc := make(map[int]int)
	rrTgt := make(map[int]int)
	sender := func(s int) int {
		hs := srcHelpers[s]
		if len(hs) == 0 {
			return s
		}
		i := rrSrc[s]
		rrSrc[s] = i + 1
		return hs[i%len(hs)]
	}
	receiver := func(t int) int {
		ht := tgtHelpers[t]
		if len(ht) == 0 {
			return t
		}
		i := rrTgt[t]
		rrTgt[t] = i + 1
		return ht[i%len(ht)]
	}

	outA := make([]int, n) // message sender → intermediate
	inA := make([]int, n)
	outB := make([]int, n) // helper request → intermediate
	inB := make([]int, n)
	outC := make([]int, n) // intermediate reply → helper
	inC := make([]int, n)
	interLoad := make([]int, n)

	for _, p := range pairs {
		mid := referenceEval(h, net.ID(int(p.s)), net.ID(int(p.t)))
		snd := sender(int(p.s))
		rcv := receiver(int(p.t))
		outA[snd]++
		inA[mid]++
		outB[rcv]++
		inB[mid]++
		outC[mid]++
		inC[rcv]++
		interLoad[mid]++
	}
	// Targets distribute their requests to their helpers locally before
	// stage B, and collect the delivered messages afterwards.
	net.TickLocal("unicast/spread-requests", 4*cl.NQ)
	net.LoadRounds("unicast/send-to-intermediate", outA, inA)
	net.LoadRounds("unicast/request", outB, inB)
	net.LoadRounds("unicast/reply", outC, inC)
	net.TickLocal("unicast/collect", 4*cl.NQ)

	maxInter := 0
	for _, x := range interLoad {
		if x > maxInter {
			maxInter = x
		}
	}
	return &Result{
		NQ:                  cl.NQ,
		Pairs:               int64(len(pairs)),
		MaxIntermediateLoad: maxInter,
	}, nil
}

// TestRouteMatchesReference: Route returns the reference's Result and
// leaves the same Audit, Stats, Rounds and rng state on fresh networks,
// on every family under HYBRID and tracked HYBRID₀, for Theorem 3
// case (1), case (2) (reversed), case (3) direct, reversed and through
// the Lemma 5.4 reduction, and for case (3) with repeated endpoints.
func TestRouteMatchesReference(t *testing.T) {
	configs := []hybrid.Config{
		{},
		{Variant: hybrid.VariantHybrid0, TrackKnowledge: true, Seed: 5},
	}
	type instance struct {
		name     string
		spec     Spec
		reversed bool
		reduced  bool // the Lemma 5.4 reduction must fire
	}
	instances := func(n int, rng *rand.Rand) []instance {
		sample := func(p float64) []int {
			if s := SampleNodes(n, p, rng); len(s) > 0 {
				return s
			}
			return []int{n / 2}
		}
		all := rng.Perm(n)
		few := sample(3 / float64(n))
		return []instance{
			{name: "case1", spec: Spec{Case: ArbitrarySourcesRandomTargets, Sources: all, Targets: sample(4 / float64(n)), K: n, L: 4}},
			{name: "case2", spec: Spec{Case: RandomSourcesArbitraryTargets, Sources: few, Targets: all[:n/2], K: 3, L: n / 2}, reversed: true},
			{name: "case3", spec: Spec{Case: RandomSourcesRandomTargets, Sources: sample(8 / float64(n)), Targets: sample(2 / float64(n)), K: 8, L: 2}},
			{name: "case3-reversed", spec: Spec{Case: RandomSourcesRandomTargets, Sources: few, Targets: sample(16 / float64(n)), K: 2, L: 16}, reversed: true},
			{name: "case3-lemma54", spec: Spec{Case: RandomSourcesRandomTargets, Sources: sample(0.9), Targets: sample(2 / float64(n)), K: n, L: 2}, reduced: true},
			{name: "case3-repeats", spec: Spec{Case: RandomSourcesRandomTargets, Sources: []int{1, 2, 1, 3, 2}, Targets: []int{0, 4, 0}, K: 5, L: 3}},
		}
	}
	for _, f := range graph.Families() {
		for _, size := range []int{64, 256} {
			g, err := graph.Build(f, size, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range instances(g.N(), rand.New(rand.NewSource(2))) {
				for _, cfg := range configs {
					got, err := hybrid.New(g, cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, err := hybrid.New(g, cfg)
					if err != nil {
						t.Fatal(err)
					}
					gotRng, wantRng := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
					res, err := Route(got, in.spec, gotRng)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := referenceRoute(want, in.spec, wantRng)
					if err != nil {
						t.Fatal(err)
					}
					if *res != *ref || !slices.Equal(got.Audit(), want.Audit()) || got.Stats() != want.Stats() ||
						got.Rounds() != want.Rounds() || gotRng.Int63() != wantRng.Int63() {
						t.Fatalf("%s/%d %s %v: result %+v audit %v stats %+v, reference %+v audit %v stats %+v",
							f, size, in.name, got.Variant(), *res, got.Audit(), got.Stats(), *ref, want.Audit(), want.Stats())
					}
					if res.Reversed != in.reversed || (in.reduced && !res.Reduced) {
						t.Fatalf("%s %s: reversed %v reduced %v, want reversed %v", f, in.name, res.Reversed, res.Reduced, in.reversed)
					}
				}
			}
		}
	}
}
