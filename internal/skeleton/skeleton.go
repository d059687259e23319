// Package skeleton implements skeleton graphs (Definition 6.2,
// Ullman–Yannakakis [UY91]), the sampling substrate of the paper's
// randomized APSP (Theorem 8) and k-SSP (Theorem 14, Section 9)
// algorithms.
//
// Given a parameter x, every node joins V_S independently with probability
// 1/x (plus any forced nodes, e.g. shortest-path sources); two skeleton
// nodes are joined by an edge iff they are within h = ⌈ξ·x·ln n⌉ hops in
// G, weighted by their h-hop distance d^h_G. Lemma 6.3 then guarantees
// w.h.p. that skeleton distances equal G distances and that every ≥h-hop
// shortest path meets the skeleton every h hops.
package skeleton

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// Xi is the sampling constant ξ of Definition 6.2. The paper requires a
// "sufficiently large" constant for the w.h.p. guarantees; 2 keeps h
// moderate at simulator scales while the tests validate the Lemma 6.3
// properties empirically.
const Xi = 2

// Skeleton is a sampled skeleton graph of some base graph.
type Skeleton struct {
	// Nodes lists the skeleton nodes as indices into the base graph,
	// ascending.
	Nodes []int
	// Index maps a base node to its position in Nodes, or -1.
	Index []int
	// H is the hop parameter h = min{⌈ξ·x·ln n⌉, D}.
	H int
	// X is the sampling parameter.
	X int
	// S is the skeleton graph on len(Nodes) nodes with h-hop-distance
	// weights; nil unless Build was called with materializeEdges.
	S *graph.Graph
}

// Build samples a skeleton with parameter x from g. Nodes in forced are
// always included (the paper adds shortest-path sources this way in
// Theorem 14). When materializeEdges is set, the weighted skeleton graph
// S is constructed explicitly via hop-limited searches (O(|V_S|·h·m);
// on unit weights ⌈|V_S|/64⌉ batches of the 64-source hop kernel);
// otherwise only the node sample is produced and distances should be read
// through g.HopLimitedDistances(v, sk.H).
func Build(g *graph.Graph, x int, forced []int, materializeEdges bool, rng *rand.Rand) (*Skeleton, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("skeleton: empty graph")
	}
	if x < 1 {
		return nil, fmt.Errorf("skeleton: x=%d < 1", x)
	}
	in := make([]bool, n)
	for _, v := range forced {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("skeleton: forced node %d out of range", v)
		}
		in[v] = true
	}
	p := 1 / float64(x)
	for v := 0; v < n; v++ {
		if !in[v] && rng.Float64() < p {
			in[v] = true
		}
	}
	sk := &Skeleton{X: x, Index: make([]int, n)}
	for v := range sk.Index {
		sk.Index[v] = -1
	}
	for v := 0; v < n; v++ {
		if in[v] {
			sk.Index[v] = len(sk.Nodes)
			sk.Nodes = append(sk.Nodes, v)
		}
	}
	if len(sk.Nodes) == 0 {
		// Degenerate sample; force the first node so the skeleton is usable.
		sk.Index[0] = 0
		sk.Nodes = []int{0}
	}
	h := int(math.Ceil(Xi * float64(x) * math.Log(float64(n))))
	if h < 1 {
		h = 1
	}
	if d := g.Diameter(); int64(h) > d && d > 0 {
		h = int(d)
	}
	sk.H = h
	if materializeEdges {
		edges, err := hopEdges(g, sk.Nodes, h)
		if err != nil {
			return nil, err
		}
		if sk.S, err = graph.FromEdges(len(sk.Nodes), edges); err != nil {
			return nil, err
		}
	}
	return sk, nil
}

// hopEdges returns the edge {i, j} of weight d^h(nodes[i], nodes[j])
// for every pair i < j within h hops, in (i, j) order. On unit weights
// d^h is the hop distance, and the pairs come from the 64-source hop
// kernel (graph.HopDistancesAmong); weighted graphs run one
// round-synchronous hop-limited Bellman–Ford per node
// (graph.HopLimitedDistancesInto), which returns d^h exactly at every n.
func hopEdges(g *graph.Graph, nodes []int, h int) ([]graph.UndirectedEdge, error) {
	var edges []graph.UndirectedEdge
	if !g.IsWeighted() {
		err := g.HopDistancesAmong(nodes, h, func(i, j int, d int64) error {
			edges = append(edges, graph.UndirectedEdge{U: i, V: j, W: d})
			return nil
		})
		return edges, err
	}
	dist := make([]int64, g.N())
	for i, v := range nodes {
		g.HopLimitedDistancesInto(dist, v, h)
		for j := i + 1; j < len(nodes); j++ {
			if d := dist[nodes[j]]; d < graph.Inf {
				edges = append(edges, graph.UndirectedEdge{U: i, V: j, W: d})
			}
		}
	}
	return edges, nil
}

// Size returns |V_S|.
func (sk *Skeleton) Size() int { return len(sk.Nodes) }
