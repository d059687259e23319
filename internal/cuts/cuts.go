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

// NIForestIndices returns, for every edge of g (in g.Edges() order), the
// index of the Nagamochi–Ibaraki maximal spanning forest containing it
// (1-based). An edge in forest i has local edge connectivity ≥ i.
func NIForestIndices(g *graph.Graph) []int {
	edges := g.Edges()
	index := make([]int, len(edges))
	remaining := make([]int, len(edges))
	for i := range remaining {
		remaining[i] = i
	}
	forest := 1
	for len(remaining) > 0 {
		uf := graph.NewUnionFind(g.N())
		var next []int
		for _, ei := range remaining {
			e := edges[ei]
			if uf.Union(e.U, e.V) {
				index[ei] = forest
			} else {
				next = append(next, ei)
			}
		}
		remaining = next
		forest++
	}
	return index
}

// Build constructs the cut sparsifier of g for accuracy ε.
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
	edges := g.Edges()
	indices := NIForestIndices(g)
	sp := &Sparsifier{N: n}
	for ei, e := range edges {
		p := rho / float64(indices[ei])
		if p >= 1 {
			sp.Edges = append(sp.Edges, WeightedEdge{e.U, e.V, float64(e.W)})
			continue
		}
		if rng.Float64() < p {
			sp.Edges = append(sp.Edges, WeightedEdge{e.U, e.V, float64(e.W) / p})
		}
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
