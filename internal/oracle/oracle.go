// Package oracle is the sequential ground truth the HYBRID algorithms
// are differentially tested against. Its implementations are
// deliberately independent of the simulation core: every function
// builds its own adjacency from Graph.Edges() once per call (never
// touching the CSR arrays) and uses textbook algorithms with
// different data structures than internal/graph — BFS over an explicit
// queue, Dijkstra by O(n²) linear minimum scans instead of a binary
// heap. A bug in the CSR layout, the graph traversals, or the engine's
// scheduling therefore cannot cancel out against an identical bug here.
//
// All distances use graph.Inf for unreachable nodes, matching the
// convention of the rest of the library.
package oracle

import "repro/internal/graph"

// adjacency is the oracle's own edge-list-derived adjacency structure.
type adjacency struct {
	n  int
	to [][]int
	wt [][]int64
}

func build(g *graph.Graph) *adjacency {
	a := &adjacency{n: g.N()}
	a.to = make([][]int, a.n)
	a.wt = make([][]int64, a.n)
	for _, e := range g.Edges() {
		a.to[e.U] = append(a.to[e.U], e.V)
		a.wt[e.U] = append(a.wt[e.U], e.W)
		a.to[e.V] = append(a.to[e.V], e.U)
		a.wt[e.V] = append(a.wt[e.V], e.W)
	}
	return a
}

// BFS returns exact hop distances from src; graph.Inf marks unreachable
// nodes (and every node when src is out of range).
func BFS(g *graph.Graph, src int) []int64 {
	return build(g).bfs(src)
}

// bfs is BFS over an adjacency already built, so the all-sources
// functions build theirs once per call.
func (a *adjacency) bfs(src int) []int64 {
	dist := make([]int64, a.n)
	for i := range dist {
		dist[i] = graph.Inf
	}
	if src < 0 || src >= a.n {
		return dist
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range a.to[v] {
			if dist[u] == graph.Inf {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// Dijkstra returns exact weighted distances from src by repeated linear
// minimum scans (no heap): O(n² + m) time, n extractions.
func Dijkstra(g *graph.Graph, src int) []int64 {
	return build(g).dijkstra(src)
}

func (a *adjacency) dijkstra(src int) []int64 {
	dist := make([]int64, a.n)
	done := make([]bool, a.n)
	for i := range dist {
		dist[i] = graph.Inf
	}
	if src < 0 || src >= a.n {
		return dist
	}
	dist[src] = 0
	for {
		v, best := -1, graph.Inf
		for u := 0; u < a.n; u++ {
			if !done[u] && dist[u] < best {
				v, best = u, dist[u]
			}
		}
		if v < 0 {
			return dist
		}
		done[v] = true
		for i, u := range a.to[v] {
			if nd := best + a.wt[v][i]; nd < dist[u] {
				dist[u] = nd
			}
		}
	}
}

// APSP returns the exact n×n weighted distance matrix.
func APSP(g *graph.Graph) [][]int64 {
	a := build(g)
	out := make([][]int64, a.n)
	for v := range out {
		out[v] = a.dijkstra(v)
	}
	return out
}

// HopAPSP returns the exact n×n hop (unweighted) distance matrix.
func HopAPSP(g *graph.Graph) [][]int64 {
	a := build(g)
	out := make([][]int64, a.n)
	for v := range out {
		out[v] = a.bfs(v)
	}
	return out
}

// Eccentricities returns ecc(v) = max_w hop(v, w) for every node;
// graph.Inf on disconnected graphs.
func Eccentricities(g *graph.Graph) []int64 {
	return build(g).eccentricities()
}

func (a *adjacency) eccentricities() []int64 {
	out := make([]int64, a.n)
	for v := range out {
		var ecc int64
		for _, d := range a.bfs(v) {
			if d > ecc {
				ecc = d
			}
		}
		out[v] = ecc
	}
	return out
}

// Diameter returns max_v ecc(v) (0 for the empty graph, graph.Inf for
// disconnected graphs).
func Diameter(g *graph.Graph) int64 {
	return build(g).diameter()
}

func (a *adjacency) diameter() int64 {
	var d int64
	for _, e := range a.eccentricities() {
		if e > d {
			d = e
		}
	}
	return d
}

// BallSizes returns |B_t(v)| for t = 0..maxT straight from the BFS
// distance vector: a counting pass per radius, with none of the
// frontier bookkeeping of graph.BallSizes or the batch profile kernel.
func BallSizes(g *graph.Graph, v, maxT int) []int {
	dist := BFS(g, v)
	sizes := make([]int, maxT+1)
	for t := 0; t <= maxT; t++ {
		for _, d := range dist {
			if d <= int64(t) {
				sizes[t]++
			}
		}
	}
	return sizes
}

// NQPerNode computes NQ_k(v) for every node and NQ_k(G) directly from
// Definition 3.1 — min({t : |B_t(v)| ≥ k/t} ∪ {D}) via per-radius
// counting over BFS distances — independently of the library's
// early-exit and profile evaluation paths. The graph must be
// connected (graph.ErrDisconnected otherwise).
func NQPerNode(g *graph.Graph, k int) (perNode []int, nq int, err error) {
	a := build(g)
	n := a.n
	diam := a.diameter()
	if diam >= graph.Inf {
		return nil, 0, graph.ErrDisconnected
	}
	d := int(diam)
	if d == 0 {
		d = 1
	}
	perNode = make([]int, n)
	for v := 0; v < n; v++ {
		dist := a.bfs(v)
		perNode[v] = d
		for t := 1; t <= d; t++ {
			size := 0
			for _, dd := range dist {
				if dd <= int64(t) {
					size++
				}
			}
			if int64(t)*int64(size) >= int64(k) {
				perNode[v] = t
				break
			}
		}
		if perNode[v] > nq {
			nq = perNode[v]
		}
	}
	return perNode, nq, nil
}

// HopLimited returns d^h(src, ·), the lightest weight of any path with
// at most h edges, by h full relaxation sweeps over the edge list
// (classical Bellman–Ford, no frontier optimization). A sweep that
// changes nothing is a fixpoint every later sweep repeats, so the
// loop stops there.
func HopLimited(g *graph.Graph, src, h int) []int64 {
	n := g.N()
	cur := make([]int64, n)
	for i := range cur {
		cur[i] = graph.Inf
	}
	if src < 0 || src >= n {
		return cur
	}
	cur[src] = 0
	edges := g.Edges()
	next := make([]int64, n)
	for changed, round := true, 0; changed && round < h; round++ {
		copy(next, cur)
		changed = false
		for _, e := range edges {
			if cur[e.U] != graph.Inf {
				if nd := cur[e.U] + e.W; nd < next[e.V] {
					next[e.V], changed = nd, true
				}
			}
			if cur[e.V] != graph.Inf {
				if nd := cur[e.V] + e.W; nd < next[e.U] {
					next[e.U], changed = nd, true
				}
			}
		}
		cur, next = next, cur
	}
	return cur
}
