// Package cluster implements the NQ_k-clustering of Lemma 3.5: a
// deterministic eÕ(NQ_k)-round HYBRID₀ partition of V into clusters with
//
//   - weak diameter at most 4·NQ_k·⌈log n⌉,
//   - size between k/NQ_k and 2k/NQ_k (whenever NQ_k < D; see Degenerate),
//   - a designated leader per cluster, known to all members.
//
// The construction computes NQ_k (Lemma 3.3), a (2NQ_k+1, ·)-ruling set,
// assigns every node to its closest ruler with ties broken by smaller
// leader identifier, floods cluster membership locally, and finally splits
// oversized clusters along BFS order from the leader.
package cluster

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/nq"
	"repro/internal/rulingset"
)

// Cluster is one part of the partition.
type Cluster struct {
	// Leader is the cluster leader r(C).
	Leader int
	// Members lists the cluster's nodes in BFS order from the leader
	// (leader first).
	Members []int
}

// Clustering is the result of Build.
type Clustering struct {
	// K is the workload parameter the clustering was built for.
	K int
	// NQ is NQ_k(G) as computed during the build.
	NQ int
	// Clusters is the partition.
	Clusters []Cluster
	// Of maps every node to its cluster index.
	Of []int
	// Degenerate reports that NQ_k = D held, in which case the size lower
	// bound k/NQ_k may exceed n and cannot be met (Observation 3.2 needs
	// NQ_k < D); the weak-diameter bound still holds.
	Degenerate bool
}

// Build runs the Lemma 3.5 construction on net, charging/simulating its
// round costs: Lemma 3.3 for NQ_k, the cited [KMW18] ruling-set rounds,
// 2·NQ_k local rounds for closest-ruler assignment and 4·NQ_k local rounds
// for membership flooding.
func Build(net *hybrid.Net, k int) (*Clustering, error) {
	if k <= 0 {
		return nil, fmt.Errorf("cluster: non-positive k=%d", k)
	}
	// A clustering, once established and flooded, persists for the rest
	// of the execution; repeated requests for the same k are free.
	memoKey := fmt.Sprintf("cluster/k=%d", k)
	if cached, ok := net.Memo(memoKey); ok {
		return cached.(*Clustering), nil
	}
	g := net.Graph()
	q, err := nq.Distributed(net, k)
	if err != nil {
		return nil, err
	}
	diam := g.Diameter()
	degenerate := int64(q) >= diam

	alpha := 2*q + 1
	// Cited [KMW18] cost for a (µ+1, µ⌈log n⌉)-ruling set with µ = 2·NQ_k.
	net.Charge("cluster/ruling-set", alpha*net.PLog())
	rulers, err := rulingset.Compute(g, net.SortedIDs(), alpha)
	if err != nil {
		return nil, err
	}

	// Closest-ruler assignment with ties broken by smaller leader
	// identifier: lexicographic (hop distance, leader ID) label
	// propagation for β = alpha-1 local rounds.
	net.TickLocal("cluster/assign", alpha-1)
	of := assignClosestRuler(net, rulers, alpha-1)

	// Members flood their cluster through the local network for twice the
	// assignment radius, covering the weak diameter.
	net.TickLocal("cluster/flood", 2*(alpha-1))

	clusters := collectClusters(g, rulers, of)

	// Split oversized clusters locally (no communication, Lemma 3.5).
	clusters = splitClusters(net, clusters, k, q)

	final := &Clustering{
		K:          k,
		NQ:         q,
		Clusters:   clusters,
		Of:         make([]int, g.N()),
		Degenerate: degenerate,
	}
	for i, c := range clusters {
		for _, v := range c.Members {
			final.Of[v] = i
		}
	}
	// Every member knows every other member's identifier after the flood.
	for _, c := range clusters {
		for _, v := range c.Members {
			for _, u := range c.Members {
				net.Learn(v, u)
			}
		}
	}
	net.SetMemo(memoKey, final)
	return final, nil
}

// assignClosestRuler returns, per node, the index into rulers of its
// closest ruler (ties by smaller external identifier): Bellman–Ford over
// hop layers with lexicographic (dist, leaderID) keys, radius rounds.
func assignClosestRuler(net *hybrid.Net, rulers []int, radius int) []int {
	g := net.Graph()
	n := g.N()
	dist := make([]int64, n)
	leadID := make([]int64, n)
	leadIdx := make([]int, n)
	for v := 0; v < n; v++ {
		dist[v] = graph.Inf
		leadID[v] = 1<<62 - 1
		leadIdx[v] = -1
	}
	for i, r := range rulers {
		dist[r] = 0
		leadID[r] = net.ID(r)
		leadIdx[r] = i
	}
	for round := 0; round < radius; round++ {
		changed := false
		for v := 0; v < n; v++ {
			if leadIdx[v] < 0 {
				continue
			}
			nd := dist[v] + 1
			row, _ := g.Row(v)
			for _, u := range row {
				if nd < dist[u] || (nd == dist[u] && leadID[v] < leadID[u]) {
					dist[u] = nd
					leadID[u] = leadID[v]
					leadIdx[u] = leadIdx[v]
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return leadIdx
}

func collectClusters(g *graph.Graph, rulers []int, of []int) []Cluster {
	clusters := make([]Cluster, len(rulers))
	// BFS order from each leader restricted to its own cluster keeps
	// members sorted by hop distance from the leader. Clusters are
	// disjoint, so one seen array serves every BFS.
	seen := make([]bool, g.N())
	for i, r := range rulers {
		clusters[i].Leader = r
		clusters[i].Members = clusterBFSOrder(g, r, of, i, seen)
	}
	return clusters
}

func clusterBFSOrder(g *graph.Graph, leader int, of []int, ci int, seen []bool) []int {
	seen[leader] = true
	queue := []int{leader}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		g.ForEachNeighbor(v, func(u int, _ int64) {
			if of[u] == ci && !seen[u] {
				seen[u] = true
				queue = append(queue, u)
			}
		})
	}
	return queue
}

// splitClusters enforces the size upper bound 2k/NQ_k by splitting along
// BFS order from the leader; parts keep size ≥ k/NQ_k (Lemma 3.5's local
// splitting step). Weak diameter only shrinks under taking subsets.
func splitClusters(net *hybrid.Net, clusters []Cluster, k, q int) []Cluster {
	s := k / q
	if s < 1 {
		s = 1
	}
	var out []Cluster
	for _, c := range clusters {
		m := len(c.Members)
		if m < 2*s {
			out = append(out, c)
			continue
		}
		parts := m / s // each part gets m/parts ∈ [s, 2s) members
		base := m / parts
		extra := m % parts
		start := 0
		for p := 0; p < parts; p++ {
			size := base
			if p < extra {
				size++
			}
			members := c.Members[start : start+size]
			start += size
			leader := members[0]
			// Deterministic leader: smallest external ID in the part.
			for _, v := range members[1:] {
				if net.ID(v) < net.ID(leader) {
					leader = v
				}
			}
			out = append(out, Cluster{Leader: leader, Members: append([]int(nil), members...)})
		}
	}
	sort.Slice(out, func(a, b int) bool { return net.ID(out[a].Leader) < net.ID(out[b].Leader) })
	return out
}

// WeakDiameter returns the maximum hop distance in g between any two
// members of c (O(|C|·m); used by tests and audits).
func WeakDiameter(g *graph.Graph, c Cluster) int64 {
	var wd int64
	for _, v := range c.Members {
		d := g.BFS(v)
		for _, u := range c.Members {
			if d[u] > wd {
				wd = d[u]
			}
		}
	}
	return wd
}

// Leaders returns the leader of every cluster, in cluster order.
func (cl *Clustering) Leaders() []int {
	out := make([]int, len(cl.Clusters))
	for i, c := range cl.Clusters {
		out[i] = c.Leader
	}
	return out
}
