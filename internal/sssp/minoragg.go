package sssp

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/hybrid"
)

// This file implements the Section 8 machinery behind Theorem 13: the
// Minor-Aggregation model of [RGH+22] (one round of which HYBRID₀
// simulates in eÕ(1) rounds, Lemma 8.2) and the Eulerian-Orientation
// oracle O_Euler (Definition 8.4, solved in eÕ(1) rounds by Lemmas
// 8.5/8.6). The SSSP pipeline of [RGH+22] uses eÕ(1/ε²) such rounds and
// oracle calls; Approx charges exactly that budget. The implementations
// here make the two primitives concrete and testable.

// MinorAggregation exposes one contraction/consensus/aggregation round of
// the Minor-Aggregation model over the network's local graph.
type MinorAggregation struct {
	net *hybrid.Net
}

// NewMinorAggregation returns a Minor-Aggregation interface on net.
func NewMinorAggregation(net *hybrid.Net) *MinorAggregation {
	return &MinorAggregation{net: net}
}

// Round executes one Minor-Aggregation round (Lemma 8.2), charging the
// eÕ(1) simulation cost:
//
//   - contract[e] (indexed like net.Graph().Edges()) selects the edges
//     whose endpoints merge into supernodes;
//   - value[v] is node v's consensus contribution, combined per supernode
//     with combine;
//   - the returned supernode ids (per node) and consensus values (per
//     supernode id) realize the consensus step; the aggregation step over
//     minor edges is available to the caller through the supernode ids.
func (ma *MinorAggregation) Round(contract []bool, value []int64, combine func(a, b int64) int64) (super []int, consensus map[int]int64, err error) {
	g := ma.net.Graph()
	edges := g.Edges()
	if len(contract) != len(edges) {
		return nil, nil, fmt.Errorf("sssp: contract has %d entries, want %d", len(contract), len(edges))
	}
	if len(value) != g.N() {
		return nil, nil, fmt.Errorf("sssp: value has %d entries, want %d", len(value), g.N())
	}
	if combine == nil {
		return nil, nil, fmt.Errorf("sssp: nil combine")
	}
	uf := graph.NewUnionFind(g.N())
	for i, e := range edges {
		if contract[i] {
			uf.Union(e.U, e.V)
		}
	}
	super = make([]int, g.N())
	consensus = make(map[int]int64)
	for v := 0; v < g.N(); v++ {
		root := uf.Find(v)
		super[v] = root
		if cur, ok := consensus[root]; ok {
			consensus[root] = combine(cur, value[v])
		} else {
			consensus[root] = value[v]
		}
	}
	ma.net.Charge(hybrid.CostMinorAggregation, hybrid.CostArgs{})
	return super, consensus, nil
}

// EulerianOrientation orients every edge of an Eulerian graph (all
// degrees even) so that in-degree equals out-degree at every node —
// the task of the oracle O_Euler (Definition 8.4). The orientation is
// computed by walking edge-disjoint closed trails (the degree-2 cycle
// decomposition view of Lemma 8.5). Orient[i] reports whether edge i
// (in g.Edges() order) is oriented U→V (true) or V→U (false).
func EulerianOrientation(g *graph.Graph) ([]bool, error) {
	edges := g.Edges()
	// adjacency with edge indices
	type half struct {
		to  int
		idx int
	}
	adj := make([][]half, g.N())
	for i, e := range edges {
		adj[e.U] = append(adj[e.U], half{e.V, i})
		adj[e.V] = append(adj[e.V], half{e.U, i})
	}
	for v := 0; v < g.N(); v++ {
		if len(adj[v])%2 != 0 {
			return nil, fmt.Errorf("sssp: node %d has odd degree %d; graph not Eulerian", v, len(adj[v]))
		}
	}
	orient := make([]bool, len(edges))
	used := make([]bool, len(edges))
	next := make([]int, g.N()) // per-node cursor into adj
	for start := 0; start < g.N(); start++ {
		for {
			// Find an unused edge at start.
			for next[start] < len(adj[start]) && used[adj[start][next[start]].idx] {
				next[start]++
			}
			if next[start] >= len(adj[start]) {
				break
			}
			// Walk a closed trail from start, orienting along the walk.
			v := start
			for {
				for next[v] < len(adj[v]) && used[adj[v][next[v]].idx] {
					next[v]++
				}
				if next[v] >= len(adj[v]) {
					break // trail closed back at a saturated node
				}
				h := adj[v][next[v]]
				used[h.idx] = true
				orient[h.idx] = edges[h.idx].U == v // oriented v → h.to
				v = h.to
				if v == start {
					break
				}
			}
		}
	}
	return orient, nil
}

// OracleEuler wraps EulerianOrientation with the Lemma 8.6 round charge
// (eÕ(1)) on the network.
func OracleEuler(net *hybrid.Net, h *graph.Graph) ([]bool, error) {
	orient, err := EulerianOrientation(h)
	if err != nil {
		return nil, err
	}
	net.Charge(hybrid.CostOracleEuler, hybrid.CostArgs{})
	return orient, nil
}

// VerifyEulerian checks that orient balances in/out degree at each node.
func VerifyEulerian(g *graph.Graph, orient []bool) error {
	edges := g.Edges()
	if len(orient) != len(edges) {
		return fmt.Errorf("sssp: orientation has %d entries, want %d", len(orient), len(edges))
	}
	balance := make([]int, g.N())
	for i, e := range edges {
		if orient[i] {
			balance[e.U]++
			balance[e.V]--
		} else {
			balance[e.U]--
			balance[e.V]++
		}
	}
	for v, b := range balance {
		if b != 0 {
			return fmt.Errorf("sssp: node %d has in/out imbalance %d", v, b)
		}
	}
	return nil
}
