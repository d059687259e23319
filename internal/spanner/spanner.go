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
// The greedy scan asks one bounded shortest-path question per input
// edge. Compute answers all of them with one dense search state: the
// kept edges as adjacency lists, epoch-stamped distance arrays of size
// n and one graph.DistHeap, so a search costs time only in the part of
// the spanner it reaches and reuses the memory of the searches before.
package spanner

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/hybrid"
)

// Compute returns the greedy (2k-1)-spanner of g: edges are scanned in
// non-decreasing weight order and kept iff the spanner distance between
// the endpoints currently exceeds (2k-1)·w. The result has stretch at
// most 2k-1 and O(n^{1+1/k}) edges.
//
// Each candidate edge costs one Dijkstra from u on the spanner built so
// far, cut off at (2k-1)·w and stopped as soon as v is reached within
// it. All of those searches share one dense state (see search), so the
// scan allocates only the spanner itself.
func Compute(g *graph.Graph, k int) (*graph.Graph, error) {
	if k < 1 {
		return nil, fmt.Errorf("spanner: k=%d < 1", k)
	}
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].W != edges[j].W {
			return edges[i].W < edges[j].W
		}
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	h := graph.NewBuilder(g.N())
	s := newSearch(g.N())
	stretch := int64(2*k - 1)
	for _, e := range edges {
		if s.within(e.U, e.V, stretch*e.W) {
			continue
		}
		if err := h.AddEdge(e.U, e.V, e.W); err != nil {
			return nil, err
		}
		s.add(e.U, e.V, e.W)
	}
	return h.Build(), nil
}

// arc is one direction of a kept spanner edge.
type arc struct {
	to int32
	w  int64
}

// search is the bounded-Dijkstra state Compute reuses for every
// candidate edge: the kept edges as adjacency lists, distances valid only
// where stamp equals the current epoch (so no per-search clearing), and
// one heap emptied before each search.
type search struct {
	adj   [][]arc
	dist  []int64
	stamp []uint32
	epoch uint32
	heap  graph.DistHeap
}

func newSearch(n int) *search {
	return &search{adj: make([][]arc, n), dist: make([]int64, n), stamp: make([]uint32, n)}
}

// add records the kept edge {u,v} of weight w.
func (s *search) add(u, v int, w int64) {
	s.adj[u] = append(s.adj[u], arc{int32(v), w})
	s.adj[v] = append(s.adj[v], arc{int32(u), w})
}

// within reports whether the kept edges join u and v by a path of
// weight at most limit.
func (s *search) within(u, v int, limit int64) bool {
	if u == v {
		return true
	}
	if s.epoch == math.MaxUint32 {
		clear(s.stamp)
		s.epoch = 0
	}
	s.epoch++
	epoch, dist, stamp := s.epoch, s.dist, s.stamp
	dist[u], stamp[u] = 0, epoch
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

// Distributed computes the spanner and charges the cited [RG20] eÕ(1)
// CONGEST rounds (⌈log n⌉²) on the network.
func Distributed(net *hybrid.Net, k int) (*graph.Graph, error) {
	h, err := Compute(net.Graph(), k)
	if err != nil {
		return nil, err
	}
	plog := net.PLog()
	net.Charge("spanner/rg20", plog*plog)
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
