package cluster

import (
	"fmt"

	"repro/internal/hybrid"
)

// LoadBalance implements Lemma 4.1 (uniform load balancing) for one
// cluster: given load[i] items held by Members[i], it returns an
// assignment with every member holding at most ⌈total/|C|⌉ items, and
// charges the lemma's 2×(weak diameter) local rounds on net. The
// balancing is deterministic: the minimum-identifier member computes the
// allocation after a flood (as in the lemma's proof), which the
// simulation realizes by a greedy largest-surplus-to-largest-deficit
// transfer.
func LoadBalance(net *hybrid.Net, c Cluster, nq int, load []int) ([]int, error) {
	if len(load) != len(c.Members) {
		return nil, fmt.Errorf("cluster: load has %d entries for %d members", len(load), len(c.Members))
	}
	total := 0
	for i, l := range load {
		if l < 0 {
			return nil, fmt.Errorf("cluster: negative load %d at member %d", l, c.Members[i])
		}
		total += l
	}
	m := len(c.Members)
	capPer := (total + m - 1) / m
	net.TickLocal("cluster/loadbalance", 2*4*nq)

	out := append([]int(nil), load...)
	// Deterministic order: surplus and deficit members in member order;
	// move items greedily.
	type entry struct {
		idx, amount int
	}
	var surplus, deficit []entry
	for i, l := range out {
		switch {
		case l > capPer:
			surplus = append(surplus, entry{i, l - capPer})
		case l < capPer:
			deficit = append(deficit, entry{i, capPer - l})
		}
	}
	di := 0
	for _, s := range surplus {
		need := s.amount
		for need > 0 && di < len(deficit) {
			take := need
			if take > deficit[di].amount {
				take = deficit[di].amount
			}
			out[s.idx] -= take
			out[deficit[di].idx] += take
			deficit[di].amount -= take
			need -= take
			if deficit[di].amount == 0 {
				di++
			}
		}
	}
	return out, nil
}
