// Package rulingset computes (α, β)-ruling sets (Definition 3.4): subsets
// W ⊆ V with pairwise hop distance ≥ α such that every node is within β
// hops of W.
//
// The paper cites the deterministic O(µ log n)-round CONGEST construction
// of [KMW18] for (µ+1, µ⌈log n⌉)-ruling sets. Per the substitution rule we
// compute a greedy distance-α maximal independent set, which satisfies the
// strictly stronger guarantee β ≤ α−1, while callers charge the published
// [KMW18] round cost.
package rulingset

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Compute returns an (alpha, alpha-1)-ruling set of g. Nodes are
// considered in the given priority order (e.g. ascending identifier); nil
// means natural index order. alpha must be ≥ 1.
func Compute(g *graph.Graph, order []int, alpha int) ([]int, error) {
	if alpha < 1 {
		return nil, fmt.Errorf("rulingset: alpha=%d < 1", alpha)
	}
	n := g.N()
	if order == nil {
		order = make([]int, n)
		for i := range order {
			order[i] = i
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("rulingset: order has %d entries, want %d", len(order), n)
	}
	// blocked[v]: hop(v, W) ≤ alpha-1 already.
	blocked := make([]bool, n)
	var rulers []int
	// Scratch BFS buffers.
	depth := make([]int32, n)
	for i := range depth {
		depth[i] = -1
	}
	queue := make([]int32, 0, n)
	for _, v := range order {
		if blocked[v] {
			continue
		}
		rulers = append(rulers, v)
		// Block everything within alpha-1 hops of v.
		queue = queue[:0]
		queue = append(queue, int32(v))
		depth[v] = 0
		blocked[v] = true
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			if int(depth[u]) == alpha-1 {
				continue
			}
			row, _ := g.Row(int(u))
			for _, x := range row {
				if depth[x] < 0 {
					depth[x] = depth[u] + 1
					blocked[x] = true
					queue = append(queue, x)
				}
			}
		}
		for _, u := range queue {
			depth[u] = -1
		}
	}
	sort.Ints(rulers)
	return rulers, nil
}

// Verify checks the (alpha, beta) properties of W on g, returning a
// descriptive error on violation. Used by tests and the clustering code.
func Verify(g *graph.Graph, w []int, alpha, beta int) error {
	if len(w) == 0 {
		if g.N() == 0 {
			return nil
		}
		return fmt.Errorf("rulingset: empty ruling set on non-empty graph")
	}
	dist, _ := g.MultiSourceBFS(w)
	for v, d := range dist {
		if d > int64(beta) {
			return fmt.Errorf("rulingset: node %d at distance %d > beta=%d from W", v, d, beta)
		}
	}
	inW := make(map[int]bool, len(w))
	for _, v := range w {
		inW[v] = true
	}
	for _, v := range w {
		// BFS to depth alpha-1 must meet no other ruler.
		d := g.BFS(v)
		for _, u := range w {
			if u != v && d[u] < int64(alpha) {
				return fmt.Errorf("rulingset: rulers %d and %d at distance %d < alpha=%d", v, u, d[u], alpha)
			}
		}
	}
	return nil
}
