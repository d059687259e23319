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
// S is constructed explicitly via hop-limited searches (O(|V_S|·h·m));
// otherwise only the node sample is produced and distances should be read
// through HopDistancesFrom.
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
		s := graph.NewBuilder(len(sk.Nodes))
		for i, v := range sk.Nodes {
			dist := g.HopLimitedDistances(v, h)
			for j := i + 1; j < len(sk.Nodes); j++ {
				u := sk.Nodes[j]
				if dist[u] < graph.Inf {
					if err := s.AddEdge(i, j, dist[u]); err != nil {
						return nil, err
					}
				}
			}
		}
		sk.S = s.Build()
	}
	return sk, nil
}

// HopDistancesFrom returns d^h_G(v, ·) for the skeleton's hop parameter.
func (sk *Skeleton) HopDistancesFrom(g *graph.Graph, v int) []int64 {
	return g.HopLimitedDistances(v, sk.H)
}

// ClosestSkeletonNode returns the skeleton node u minimizing d^h(v, u)
// together with that distance (ties by smaller index); (-1, Inf) if no
// skeleton node is within h hops.
func (sk *Skeleton) ClosestSkeletonNode(g *graph.Graph, v int) (int, int64) {
	dist := sk.HopDistancesFrom(g, v)
	best, bestD := -1, graph.Inf
	for _, u := range sk.Nodes {
		if dist[u] < bestD {
			best, bestD = u, dist[u]
		}
	}
	return best, bestD
}

// Size returns |V_S|.
func (sk *Skeleton) Size() int { return len(sk.Nodes) }
