package unicast

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/hybrid"
)

// HelperSets computes the adaptive helper sets of Definition 5.1 via
// Algorithm 1 (Lemma 5.2): for each w ∈ W, every node of w's cluster joins
// H_w with probability q_C = min(1, (k/NQ_k)·(8·ln n)/|C|), so that w.h.p.
//
//	(1) |H_w| ≥ k/NQ_k,
//	(2) every u ∈ H_w is within eÕ(NQ_k) hops of w (the weak diameter),
//	(3) every node serves in eÕ(1) helper sets,
//
// provided W was sampled with probability ≤ NQ_k/k per node. The
// intra-cluster coordination costs one weak-diameter local flood, which is
// charged on net.
func HelperSets(net *hybrid.Net, cl *cluster.Clustering, w []int, k int, rng *rand.Rand) (map[int][]int, error) {
	if k <= 0 {
		return nil, fmt.Errorf("unicast: non-positive k=%d", k)
	}
	n := net.N()
	inW := make([]bool, n)
	for _, v := range w {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("unicast: helper-set owner %d out of range", v)
		}
		inW[v] = true
	}
	net.TickLocal("unicast/helper-sets", 4*cl.NQ)
	lnN := math.Log(float64(n))
	if lnN < 1 {
		lnN = 1
	}
	want := float64(k) / float64(cl.NQ)
	out := make(map[int][]int, len(w))
	for _, c := range cl.Clusters {
		qC := want * 8 * lnN / float64(len(c.Members))
		if qC > 1 {
			qC = 1
		}
		for _, owner := range c.Members {
			if !inW[owner] {
				continue
			}
			var hw []int
			if qC >= 1 {
				hw = append([]int(nil), c.Members...)
			} else {
				for _, v := range c.Members {
					if rng.Float64() < qC {
						hw = append(hw, v)
					}
				}
				if len(hw) == 0 {
					hw = []int{owner} // degenerate fallback; w.h.p. unused
				}
			}
			out[owner] = hw
			// Owners and helpers know each other after the local flood.
			for _, v := range hw {
				net.Learn(owner, v)
				net.Learn(v, owner)
			}
		}
	}
	return out, nil
}
