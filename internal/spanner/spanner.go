// Package spanner computes multiplicative graph spanners, the
// sparsification tool behind the paper's weighted APSP algorithms
// (Theorem 7 and Theorem 8).
//
// The paper cites the deterministic eÕ(1)-round CONGEST construction of
// [RG20, Corollary 3.16] (Lemma 6.1), producing a (2k−1)-spanner with
// O(k·n^{1+1/k}·log n) edges. Per the substitution rule the library uses
// the classical greedy spanner — which satisfies the same stretch bound
// and the stronger size bound O(n^{1+1/k}) — and charges the cited eÕ(1)
// rounds through Distributed.
//
// For k ≥ 2 Compute runs the greedy scan: one bounded shortest-path
// question per input edge, answered on the spanner kept so far with one
// dense search state (adjacency lists of the kept edges, epoch-stamped
// distance arrays of size n, one graph.DistHeap for weighted graphs and
// one BFS queue for unit-weight ones), so a search costs time only in
// the part of the spanner it reaches.
//
// For k = 1 (Theorem 8 at α = 1) the greedy result does not depend on
// the scan: since every weight is at least 1, a path of two or more
// edges of weight at most w uses only edges lighter than w, which the
// scan has already settled. So an edge {u,v} of weight w is kept iff it
// is the first copy of {u,v} in the scan order and no third node x has
// d_G(u,x) + w(x,v) ≤ w. Compute answers that with one Dijkstra per
// source u over G itself, cut off below u's heaviest undecided
// candidate edge: n searches instead of m (DESIGN.md §2).
package spanner

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/hybrid"
)

// Compute returns the greedy (2k-1)-spanner of g: edges are scanned in
// non-decreasing (weight, u, v) order and kept iff the spanner distance
// between the endpoints currently exceeds (2k-1)·w. The result has
// stretch at most 2k-1 and O(n^{1+1/k}) edges.
//
// For k ≥ 2 each candidate edge costs one bounded search from u on the
// spanner built so far, cut off at (2k-1)·w and stopped as soon as v is
// reached within it: a Dijkstra, or on a graph whose weights are all 1
// a BFS to depth 2k-1, which answers the same question. For k = 1 the
// kept edges follow from one Dijkstra per node on g (see exact). Either
// way the searches share one dense state (see search), and the kept
// edges are added in scan order, so both give the same spanner, byte
// for byte.
func Compute(g *graph.Graph, k int) (*graph.Graph, error) {
	return compute(g, k, !g.IsWeighted())
}

// compute is Compute with the greedy's search chosen by unit: a BFS if
// true, which is exact only when every weight of g is 1.
func compute(g *graph.Graph, k int, unit bool) (*graph.Graph, error) {
	if k < 1 {
		return nil, fmt.Errorf("spanner: k=%d < 1", k)
	}
	s := newSearch(g.N())
	var kept []graph.UndirectedEdge
	if k == 1 {
		kept = s.exact(g)
	} else {
		kept = s.greedy(g, int64(2*k-1), unit)
	}
	return graph.FromEdges(g.N(), kept)
}

// scanOrder is the greedy's edge order: by weight, then endpoints.
func scanOrder(a, b graph.UndirectedEdge) int {
	if a.W != b.W {
		return cmp.Compare(a.W, b.W)
	}
	if a.U != b.U {
		return cmp.Compare(a.U, b.U)
	}
	return cmp.Compare(a.V, b.V)
}

// greedy returns the edges the greedy scan keeps, in scan order: an
// edge is kept iff the kept edges do not already join its endpoints
// within stretch times its weight.
func (s *search) greedy(g *graph.Graph, stretch int64, unit bool) []graph.UndirectedEdge {
	edges := g.Edges()
	slices.SortFunc(edges, scanOrder)
	s.adj = make([][]arc, g.N())
	within := s.within
	if unit {
		within = s.withinHops
	}
	kept := edges[:0]
	for _, e := range edges {
		if within(e.U, e.V, stretch*e.W) {
			continue
		}
		kept = append(kept, e)
		s.add(e.U, e.V, e.W)
	}
	return kept
}

// exact returns the edges of g's greedy 1-spanner, in scan order, from
// one search per node instead of one per edge. Every weight is at least
// 1, so a u–v path of two or more edges and weight at most w uses only
// edges lighter than w; each of those the scan has kept, or dropped for
// a kept path no heavier. Hence the scan drops the edge {u,v} of weight
// w iff (a) another copy of {u,v} precedes it in scan order or (b) some
// node x ∉ {u,v} has d_g(u,x) + w(x,v) ≤ w.
//
// For each u, the candidates are the first lightest copies of the edges
// {u,v>u}. A Dijkstra from u on g settles nodes in distance order and
// drops a candidate when a settled x ≠ u gives it (b). It stops below
// the heaviest candidate still open: every x that could drop an open
// candidate of weight w has d_g(u,x) ≤ w-1 and is settled by then. The
// candidates left open are kept.
func (s *search) exact(g *graph.Graph) []graph.UndirectedEdge {
	n := g.N()
	// open[v] is the weight of the candidate {u,v} while it is open,
	// valid where seen[v] == u+1, and 0 once it is decided.
	open := make([]int64, n)
	seen := make([]int32, n)
	var cands []int32                          // u's candidates, heaviest first
	kept := make([]graph.UndirectedEdge, 0, n) // it holds a spanning forest
	for u := 0; u < n; u++ {
		to, w := g.Row(u)
		mark := int32(u + 1)
		cands = cands[:0]
		for i, v := range to {
			switch {
			case int(v) < u:
			case seen[v] != mark:
				seen[v], open[v] = mark, w[i]
				cands = append(cands, v)
			case w[i] < open[v]:
				open[v] = w[i]
			}
		}
		if len(cands) == 0 {
			continue
		}
		slices.SortFunc(cands, func(a, b int32) int { return cmp.Compare(open[b], open[a]) })
		s.begin(u)
		epoch, dist, stamp := s.epoch, s.dist, s.stamp
		s.heap.Reset()
		s.heap.Push(int32(u), 0)
		heaviest := 0 // cands[heaviest] is the heaviest open candidate
		for s.heap.Len() > 0 {
			for heaviest < len(cands) && open[cands[heaviest]] == 0 {
				heaviest++
			}
			if heaviest == len(cands) {
				break
			}
			limit := open[cands[heaviest]] - 1
			x, d := s.heap.Pop()
			if d > limit {
				break
			}
			if d > dist[x] {
				continue
			}
			xto, xw := g.Row(int(x))
			for i, y := range xto {
				nd := d + xw[i]
				if int(x) != u && seen[y] == mark && nd <= open[y] {
					open[y] = 0 // rule (b), through x
				}
				if nd > limit || (stamp[y] == epoch && nd >= dist[y]) {
					continue
				}
				dist[y], stamp[y] = nd, epoch
				s.heap.Push(y, nd)
			}
		}
		for i, v := range to {
			if int(v) > u && w[i] == open[v] {
				kept = append(kept, graph.UndirectedEdge{U: u, V: int(v), W: w[i]})
				open[v] = 0 // rule (a): later copies are dropped
			}
		}
	}
	slices.SortFunc(kept, scanOrder)
	return kept
}

// arc is one direction of a kept spanner edge.
type arc struct {
	to int32
	w  int64
}

// search is the bounded-search state Compute reuses for every search:
// the greedy's kept edges as adjacency lists, distances valid only where
// stamp equals the current epoch (so no per-search clearing), one heap
// emptied before each Dijkstra and one queue before each BFS.
type search struct {
	adj   [][]arc
	dist  []int64
	stamp []uint32
	epoch uint32
	heap  graph.DistHeap
	queue []int32
}

func newSearch(n int) *search {
	return &search{dist: make([]int64, n), stamp: make([]uint32, n)}
}

// add records the kept edge {u,v} of weight w.
func (s *search) add(u, v int, w int64) {
	s.adj[u] = append(s.adj[u], arc{int32(v), w})
	s.adj[v] = append(s.adj[v], arc{int32(u), w})
}

// begin starts a search from u: a fresh epoch with only u stamped, at
// distance 0.
func (s *search) begin(u int) {
	if s.epoch == math.MaxUint32 {
		clear(s.stamp)
		s.epoch = 0
	}
	s.epoch++
	s.dist[u], s.stamp[u] = 0, s.epoch
}

// within reports whether the kept edges join u and v by a path of
// weight at most limit.
func (s *search) within(u, v int, limit int64) bool {
	if u == v {
		return true
	}
	s.begin(u)
	epoch, dist, stamp := s.epoch, s.dist, s.stamp
	s.heap.Reset()
	s.heap.Push(int32(u), 0)
	for s.heap.Len() > 0 {
		x, d := s.heap.Pop()
		if d > dist[x] {
			continue
		}
		for _, a := range s.adj[x] {
			nd := d + a.w
			if nd > limit || (stamp[a.to] == epoch && nd >= dist[a.to]) {
				continue
			}
			if int(a.to) == v {
				return true
			}
			dist[a.to], stamp[a.to] = nd, epoch
			s.heap.Push(a.to, nd)
		}
	}
	return false
}

// withinHops is within for kept edges of weight 1: a FIFO BFS from u
// that expands no node at depth limit and stops as soon as it reaches v.
func (s *search) withinHops(u, v int, limit int64) bool {
	if u == v {
		return true
	}
	s.begin(u)
	epoch, dist, stamp := s.epoch, s.dist, s.stamp
	queue := append(s.queue[:0], int32(u))
	found := false
scan:
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		d := dist[x] + 1
		if d > limit {
			break // FIFO order: every later node is at least as deep
		}
		for _, a := range s.adj[x] {
			if stamp[a.to] == epoch {
				continue
			}
			if int(a.to) == v {
				found = true
				break scan
			}
			dist[a.to], stamp[a.to] = d, epoch
			queue = append(queue, a.to)
		}
	}
	s.queue = queue
	return found
}

// Distributed computes the spanner and charges the cited [RG20] eÕ(1)
// CONGEST rounds (⌈log n⌉²) on the network.
func Distributed(net *hybrid.Net, k int) (*graph.Graph, error) {
	h, err := Compute(net.Graph(), k)
	if err != nil {
		return nil, err
	}
	net.Charge(hybrid.CostSpanner, hybrid.CostArgs{})
	return h, nil
}

// VerifyStretch checks d_h(u,v) ≤ stretch·d_g(u,v) for all pairs by
// sampling sources (all of them if samples ≤ 0). Returns an error naming
// the first violated pair. Intended for tests.
func VerifyStretch(g, h *graph.Graph, stretch int64, samples int) error {
	n := g.N()
	if h.N() != n {
		return fmt.Errorf("spanner: node count mismatch %d vs %d", h.N(), n)
	}
	step := 1
	if samples > 0 && n > samples {
		step = n / samples
	}
	for u := 0; u < n; u += step {
		dg := g.Dijkstra(u)
		dh := h.Dijkstra(u)
		for v := 0; v < n; v++ {
			if dg[v] >= graph.Inf {
				continue
			}
			if dh[v] > stretch*dg[v] {
				return fmt.Errorf("spanner: stretch violated at (%d,%d): %d > %d·%d", u, v, dh[v], stretch, dg[v])
			}
		}
	}
	return nil
}
