package broadcast

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/hybrid"
)

// TrackedResult extends Result with the data-plane evidence gathered by
// DisseminateTracked.
type TrackedResult struct {
	Result
	// MaxMemberTokens is the largest number of tokens any node held
	// right after a Lemma 4.1 balancing step — the proof of Theorem 1
	// bounds it by ⌈k/(k/NQ_k)⌉ = NQ_k (+1 for rounding).
	MaxMemberTokens int
	// PerNodeTokens[v] is the number of distinct tokens node v knows at
	// the end (must equal k for every node).
	PerNodeTokens []int
}

// DisseminateTracked runs the Theorem 1 pipeline while moving *explicit
// token identifiers* (suitable for moderate n·k): initial placement,
// Lemma 4.1 balancing inside every cluster (via cluster.LoadBalance),
// level-by-level converge-cast of the concrete token sets, down-cast,
// and the final intra-cluster flood. It verifies at every step that no
// member exceeds the Lemma 4.1 cap and that in the end every node knows
// every token. The engine charges the same rounds as Disseminate; this
// variant exists to certify the data plane, not to re-measure it.
func DisseminateTracked(net *hybrid.Net, tokensAt []int) (*TrackedResult, error) {
	n := net.N()
	if len(tokensAt) != n {
		return nil, fmt.Errorf("broadcast: tokensAt has %d entries, want %d", len(tokensAt), n)
	}
	k := 0
	for v, c := range tokensAt {
		if c < 0 {
			return nil, fmt.Errorf("broadcast: negative token count at node %d", v)
		}
		k += c
	}
	if k == 0 {
		return &TrackedResult{PerNodeTokens: make([]int, n)}, nil
	}
	r := &run{startRounds: net.Rounds(), k: k}

	cl, err := cluster.Build(net, k)
	if err != nil {
		return nil, err
	}
	r.nq = cl.NQ
	r.clusters = len(cl.Clusters)
	st, err := newTreeState(net, cl)
	if err != nil {
		return nil, err
	}

	// held[ci][mi] = token IDs at member mi of cluster ci.
	held := make([][][]int32, len(cl.Clusters))
	for ci, c := range cl.Clusters {
		held[ci] = make([][]int32, len(c.Members))
	}
	memberIdx := make(map[int]int, n) // node -> index within its cluster
	for _, c := range cl.Clusters {
		for mi, v := range c.Members {
			memberIdx[v] = mi
		}
	}
	tid := int32(0)
	for v := 0; v < n; v++ {
		ci, mi := cl.Of[v], memberIdx[v]
		for j := 0; j < tokensAt[v]; j++ {
			held[ci][mi] = append(held[ci][mi], tid)
			tid++
		}
	}

	tracked := &TrackedResult{}
	balance := func(ci int) error {
		c := cl.Clusters[ci]
		load := make([]int, len(c.Members))
		for mi := range c.Members {
			load[mi] = len(held[ci][mi])
		}
		want, err := cluster.LoadBalance(net, c, cl.NQ, load)
		if err != nil {
			return err
		}
		// Realize the balanced counts by moving concrete tokens from
		// surplus members to deficit members (deterministic order).
		var pool []int32
		for mi := range c.Members {
			if len(held[ci][mi]) > want[mi] {
				pool = append(pool, held[ci][mi][want[mi]:]...)
				held[ci][mi] = held[ci][mi][:want[mi]]
			}
		}
		for mi := range c.Members {
			for len(held[ci][mi]) < want[mi] {
				if len(pool) == 0 {
					return fmt.Errorf("broadcast: balancing lost tokens in cluster %d", ci)
				}
				held[ci][mi] = append(held[ci][mi], pool[0])
				pool = pool[1:]
			}
			if len(held[ci][mi]) > tracked.MaxMemberTokens {
				tracked.MaxMemberTokens = len(held[ci][mi])
			}
		}
		if len(pool) != 0 {
			return fmt.Errorf("broadcast: %d tokens unassigned in cluster %d", len(pool), ci)
		}
		return nil
	}
	for ci := range cl.Clusters {
		if err := balance(ci); err != nil {
			return nil, err
		}
	}

	// Converge-cast the concrete sets, deepest level first: the child's
	// members ship their tokens to the matched parent members.
	levels := st.treeLevels()
	transfer := func(fromCi, toCi int) {
		for mi := range held[fromCi] {
			dst := memberIdx[st.slotNode(toCi, mi%st.slots)]
			held[toCi][dst] = append(held[toCi][dst], held[fromCi][mi]...)
		}
	}
	for li := len(levels) - 1; li >= 1; li-- {
		out := make([]int, n)
		in := make([]int, n)
		for j, leader := range levels[li] {
			ci := st.clusterOfLeader(leader)
			pi := st.parentCluster(li, j)
			st.addTransferLoad(out, in, ci, pi, countTokens(held[ci]))
			transfer(ci, pi)
		}
		net.LoadRounds("tracked/upcast", out, in)
		for j := range levels[li] {
			pi := st.parentCluster(li, j)
			if err := balance(pi); err != nil {
				return nil, err
			}
		}
	}
	// The root cluster must now hold all k tokens (with duplicates from
	// multi-copy placements collapsed per member at flood time).
	rootCi := st.clusterOfLeader(st.ctree.Root())
	if got := distinctTokens(held[rootCi], k); got != k {
		return nil, fmt.Errorf("broadcast: root cluster holds %d/%d tokens", got, k)
	}

	// Down-cast: parents replicate their full holdings to each child.
	for li := 0; li+1 < len(levels); li++ {
		out := make([]int, n)
		in := make([]int, n)
		for j, leader := range levels[li+1] {
			ci := st.clusterOfLeader(leader)
			pi := st.parentCluster(li+1, j)
			st.addTransferLoad(out, in, pi, ci, k)
			transfer(pi, ci)
		}
		net.LoadRounds("tracked/downcast", out, in)
	}
	// Final flood: every member learns its cluster's union.
	net.TickLocal("tracked/flood", st.weakDiam)

	tracked.PerNodeTokens = make([]int, n)
	for ci, c := range cl.Clusters {
		got := distinctTokens(held[ci], k)
		for _, v := range c.Members {
			tracked.PerNodeTokens[v] = got
		}
		if got != k {
			return nil, fmt.Errorf("broadcast: cluster %d delivered %d/%d tokens", ci, got, k)
		}
	}
	r.maxLoad = st.maxLoad
	tracked.Result = *r.result(net)
	return tracked, nil
}

func countTokens(members [][]int32) int {
	total := 0
	for _, m := range members {
		total += len(m)
	}
	return total
}

func distinctTokens(members [][]int32, k int) int {
	seen := make([]bool, k)
	count := 0
	for _, m := range members {
		for _, t := range m {
			if !seen[t] {
				seen[t] = true
				count++
			}
		}
	}
	return count
}
