// Package cuts implements the cut-size approximation of Theorem 9: build
// a (1±ε) cut sparsifier with eÕ(n/ε²) edges (the [KX16] CONGEST
// construction, Lemma 6.4), broadcast it with Theorem 1, and let every
// node answer all cut queries locally.
//
// Per the substitution rule (DESIGN.md), the sparsifier itself is
// realized by Nagamochi–Ibaraki forest-index importance sampling: edges in
// the i-th maximal spanning forest have connectivity ≥ i, and sampling
// edge e with probability p_e = min(1, ρ/i_e) at weight w_e/p_e preserves
// all cuts within 1±ε w.h.p. for ρ = Θ(log² n/ε²) (Fung et al.). The
// [KX16] round cost is charged.
//
// An edge {u,v} in forest i has i ≤ min(deg u, deg v): it joins forest
// i only because u and v were already connected in each of forests
// 1..i−1, so each endpoint has an edge in every one of them, and the
// forests are edge-disjoint. So when ρ ≥ Δ, the maximum degree, every
// p_e = ρ/i_e ≥ 1, every edge is kept at its own weight and nothing is
// sampled. The default ρ = 3·ln²n/ε² is about 485 at n = 576 and
// ε = 0.5, above Δ on every generated family, so Build skips the
// forests there and copies the edges straight from the CSR rows.
package cuts

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/hybrid"
)

// WeightedEdge is a sparsifier edge with a real-valued weight
// (importance sampling rescales by 1/p_e, which is not integral).
type WeightedEdge struct {
	U, V int
	W    float64
}

// Sparsifier is a cut sparsifier of an n-node graph.
type Sparsifier struct {
	N     int
	Edges []WeightedEdge
}

// CutValue returns the sparsifier weight crossing the cut defined by
// side (side[v] == true on one shore).
func (s *Sparsifier) CutValue(side []bool) float64 {
	var total float64
	for _, e := range s.Edges {
		if side[e.U] != side[e.V] {
			total += e.W
		}
	}
	return total
}

// ExactCutValue returns the total weight of g's edges crossing the cut.
func ExactCutValue(g *graph.Graph, side []bool) float64 {
	var total float64
	for _, e := range g.Edges() {
		if side[e.U] != side[e.V] {
			total += float64(e.W)
		}
	}
	return total
}

// Options tunes the sparsifier construction.
type Options struct {
	// Rho overrides the sampling multiplier ρ (default 3·ln²n/ε²).
	// Smaller values force real sampling on small graphs; used by tests.
	Rho float64
}

// niForestIndices returns, for every edge (in the order given), the
// index of the Nagamochi–Ibaraki maximal spanning forest of the n-node
// graph containing it (1-based). An edge in forest i has local edge
// connectivity ≥ i. Each forest is one pass over the edges no earlier
// forest took, filtered in place, with one union-find reset per forest.
func niForestIndices(n int, edges []graph.UndirectedEdge) []int32 {
	index := make([]int32, len(edges))
	remaining := make([]int32, len(edges))
	for i := range remaining {
		remaining[i] = int32(i)
	}
	uf := graph.NewUnionFind(n)
	for forest := int32(1); len(remaining) > 0; forest++ {
		uf.Reset()
		next := remaining[:0]
		for _, ei := range remaining {
			e := edges[ei]
			if uf.Union(e.U, e.V) {
				index[ei] = forest
			} else {
				next = append(next, ei)
			}
		}
		remaining = next
	}
	return index
}

// Build constructs the cut sparsifier of g for accuracy ε. When ρ is at
// least g's maximum degree Δ every p_e is 1 (see the package doc), so
// the sparsifier is g itself: its edges are read off the CSR rows and
// no forest is built and no random number drawn.
func Build(g *graph.Graph, eps float64, rng *rand.Rand, opts Options) (*Sparsifier, error) {
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("cuts: eps=%v outside (0,1)", eps)
	}
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("cuts: empty graph")
	}
	rho := opts.Rho
	if rho <= 0 {
		ln := math.Log(float64(n))
		if ln < 1 {
			ln = 1
		}
		rho = 3 * ln * ln / (eps * eps)
	}
	maxDeg := 0
	for v := range n {
		maxDeg = max(maxDeg, g.Degree(v))
	}
	sp := &Sparsifier{N: n}
	if rho >= float64(maxDeg) {
		sp.Edges = make([]WeightedEdge, 0, g.M())
		for u := range n {
			to, w := g.Row(u)
			for i, v := range to {
				if u < int(v) {
					sp.Edges = append(sp.Edges, WeightedEdge{u, int(v), float64(w[i])})
				}
			}
		}
		return sp, nil
	}
	// Decide every edge in Edges() order, drawing for each edge with
	// p_e < 1 and marking a dropped edge with forest index 0, then lay
	// the kept edges out in an exact-size slice.
	edges := g.Edges()
	indices := niForestIndices(n, edges)
	kept := 0
	for ei := range edges {
		if p := rho / float64(indices[ei]); p < 1 && rng.Float64() >= p {
			indices[ei] = 0
			continue
		}
		kept++
	}
	sp.Edges = make([]WeightedEdge, 0, kept)
	for ei, e := range edges {
		if indices[ei] == 0 {
			continue
		}
		w := float64(e.W)
		if p := rho / float64(indices[ei]); p < 1 {
			w /= p
		}
		sp.Edges = append(sp.Edges, WeightedEdge{e.U, e.V, w})
	}
	return sp, nil
}

// Result reports a Theorem 9 run.
type Result struct {
	// Rounds is the total round cost: the charged [KX16] construction
	// plus the Theorem 1 broadcast of the sparsifier.
	Rounds int
	// SparsifierEdges is the broadcast payload |Ê|.
	SparsifierEdges int
	// NQ is the NQ parameter of the broadcast.
	NQ int
}

// ApproxCuts runs Theorem 9 on the network: construct the sparsifier
// (charged eÕ(1/ε²)), broadcast its edges (Theorem 1), and return it —
// after which every node can locally (1+ε)-approximate every cut size
// (minimum cut, s-t cut, sparsest cut, maximum cut, …).
func ApproxCuts(net *hybrid.Net, eps float64, rng *rand.Rand, opts Options) (*Sparsifier, *Result, error) {
	start := net.Rounds()
	sp, err := Build(net.Graph(), eps, rng, opts)
	if err != nil {
		return nil, nil, err
	}
	net.Charge(hybrid.CostSparsifier, hybrid.CostArgs{Eps: eps})
	tokensAt := make([]int, net.N())
	for _, e := range sp.Edges {
		tokensAt[e.U]++
	}
	bres, err := broadcast.Disseminate(net, tokensAt)
	if err != nil {
		return nil, nil, err
	}
	return sp, &Result{
		Rounds:          net.Rounds() - start,
		SparsifierEdges: len(sp.Edges),
		NQ:              bres.NQ,
	}, nil
}
