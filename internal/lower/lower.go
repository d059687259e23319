// Package lower implements the paper's universal lower-bound machinery
// (Section 7 and Appendix C): the node communication problem bound
// (Lemma 7.1), the eΩ(NQ_k) token-learning bound (Lemma 7.2) underlying
// the information-dissemination lower bounds (Theorem 4) and the
// unweighted k-SSP bound (Theorem 10), the weighted (k,ℓ)-SP bounds
// (Theorems 11/12), and the Lemma 7.4 partition-and-weights construction
// those proofs rely on.
//
// The bounds are numeric: given a concrete graph they evaluate the
// round-count expression that no algorithm — even one knowing the
// topology — can beat. The benchmark harness prints them next to the
// measured universal algorithms.
package lower

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/nq"
)

// NodeCommunication evaluates the Lemma 7.1 lower bound for transferring
// a random variable of entropy H(X) = entropyBits from a node set A to a
// disjoint set B at hop distance h in HYBRID(∞, γ), where nBall =
// |B_{h-1}(A)|: any algorithm succeeding with probability p needs at
// least min{(p·H(X)−1)/(nBall·γ), h/2−1} rounds in expectation.
func NodeCommunication(p, entropyBits float64, nBall, gamma, h int) float64 {
	if nBall < 1 || gamma < 1 {
		return 0
	}
	a := (p*entropyBits - 1) / (float64(nBall) * float64(gamma))
	b := float64(h)/2 - 1
	bound := math.Min(a, b)
	if bound < 0 {
		return 0
	}
	return bound
}

// Bound is an evaluated universal lower bound on a concrete graph.
type Bound struct {
	// Rounds is the expected-round lower bound.
	Rounds float64
	// Witness is the Lemma 3.8 node v with small neighborhood around
	// which the hard instance is built.
	Witness int
	// NQ is NQ_k(G).
	NQ int
	// H is the hop separation used in the node-communication reduction.
	H int
	// Ball is |B_{h-1}(witness)|.
	Ball int
	// Entropy is H(X) in bits.
	Entropy float64
}

// Dissemination evaluates the Lemma 7.2 / Theorem 4 lower bound for
// k-dissemination (also k-aggregation and (k,ℓ)-routing with arbitrary
// targets, and by Theorem 10 unweighted k-SSP in HYBRID₀) on g with
// global capacity γ and success probability p: eΩ(NQ_k) concretely
// instantiated as min{(p·k/2−1)·(NQ_k−1)/(k·γ), h/2−1} with
// h = ⌊(NQ_k−1)/3⌋−1.
func Dissemination(g *graph.Graph, k, gamma int, p float64) (*Bound, error) {
	if k < 1 || gamma < 1 || p <= 0 || p > 1 {
		return nil, fmt.Errorf("lower: bad parameters k=%d gamma=%d p=%v", k, gamma, p)
	}
	w, q, err := nq.Witness(g, k)
	if err != nil {
		return nil, err
	}
	b := &Bound{Witness: w, NQ: q, Entropy: float64(k) / 2}
	r := q - 1
	if q < 6 {
		// The reduction needs NQ_k(v) ≥ 6; below that the bound is
		// trivial (constant).
		return b, nil
	}
	h := r/3 - 1
	if h < 2 {
		// The min term h/2−1 is non-positive: trivial bound.
		return b, nil
	}
	b.H = h
	sizes := g.BallSizes(w, h-1)
	ball := g.N()
	if h-1 < len(sizes) {
		ball = sizes[h-1]
	}
	b.Ball = ball
	b.Rounds = NodeCommunication(p, b.Entropy, ball, gamma, h)
	return b, nil
}

// WeightedKLSP evaluates the Theorem 11/12 lower bound for the weighted
// (k,ℓ)-SP problem with arbitrary targets in HYBRID (entropy k bits,
// separation h = NQ_k−1, any polynomial stretch).
func WeightedKLSP(g *graph.Graph, k, gamma int, p float64) (*Bound, error) {
	if k < 1 || gamma < 1 || p <= 0 || p > 1 {
		return nil, fmt.Errorf("lower: bad parameters k=%d gamma=%d p=%v", k, gamma, p)
	}
	w, q, err := nq.Witness(g, k)
	if err != nil {
		return nil, err
	}
	b := &Bound{Witness: w, NQ: q, Entropy: float64(k)}
	if q < 3 {
		return b, nil
	}
	h := q - 1
	b.H = h
	sizes := g.BallSizes(w, h-1)
	ball := g.N()
	if h-1 < len(sizes) {
		ball = sizes[h-1]
	}
	b.Ball = ball
	b.Rounds = NodeCommunication(p, b.Entropy, ball, gamma, h)
	return b, nil
}

// ExistentialSqrtK is the prior eΩ(√k) existential lower bound for
// k-dissemination and (k,1)-SP ([KS20]/[Sch23]) in its HYBRID(∞,γ)
// generalization eΩ(√(k/γ)); used as the Figure 1 shaded region.
func ExistentialSqrtK(k, gamma int) float64 {
	if gamma < 1 {
		gamma = 1
	}
	return math.Sqrt(float64(k) / float64(gamma))
}

// Partition is the Lemma 7.4 construction: around the witness node V is
// split into V1 (close under the weight assignment) and V2 (a factor
// p(n) farther), certifying the Theorem 11 reduction on this graph.
type Partition struct {
	// Witness is the center node v.
	Witness int
	// V1 and V2 partition V \ B_r(witness).
	V1, V2 []int
	// Weighted is g reweighted per the construction.
	Weighted *graph.Graph
	// Poly is the separation polynomial value p(n) used.
	Poly int64
}

// BuildLemma74 constructs the Lemma 7.4 partition for parameter k and
// separation poly = p(n). It requires k ≤ n/2 and NQ_k ≥ 3 (below that
// the construction degenerates, mirroring the lemma's r ≥ 2 hypothesis).
func BuildLemma74(g *graph.Graph, k int, poly int64) (*Partition, error) {
	n := g.N()
	if k < 1 || k > n/2 {
		return nil, fmt.Errorf("lower: lemma 7.4 needs 1 ≤ k ≤ n/2, got k=%d n=%d", k, n)
	}
	if poly < 2 {
		return nil, fmt.Errorf("lower: poly=%d < 2", poly)
	}
	w, q, err := nq.Witness(g, k)
	if err != nil {
		return nil, err
	}
	r := q - 1
	if r < 2 {
		return nil, fmt.Errorf("lower: lemma 7.4 needs NQ_k ≥ 3, got %d", q)
	}
	dist := g.BFS(w)
	inBall := func(v int) bool { return dist[v] <= int64(r) }
	// BFS tree from the witness: parent of v is its BFS predecessor.
	parent := bfsTreeParents(g, w)

	// V' = V \ B_r(w); fill V1 by BFS order until n/4 nodes of V'.
	order := bfsOrder(g, w)
	var v1 []int
	inV1 := make([]bool, n)
	for _, v := range order {
		if len(v1) >= n/4 {
			break
		}
		if !inBall(v) {
			v1 = append(v1, v)
			inV1[v] = true
		}
	}
	var v2 []int
	inV2 := make([]bool, n)
	for _, v := range order {
		if !inBall(v) && !inV1[v] {
			v2 = append(v2, v)
			inV2[v] = true
		}
	}
	if len(v1) == 0 || len(v2) == 0 {
		return nil, fmt.Errorf("lower: partition degenerate (|V1|=%d |V2|=%d)", len(v1), len(v2))
	}
	heavy := int64(n) * poly
	weighted, err := g.Reweight(func(u, v int, _ int64) int64 {
		// Tree edge?
		isTree := parent[u] == v || parent[v] == u
		if !isTree {
			return heavy
		}
		// Crossing edge between V1 ∪ B_r(w) and V2?
		uSide1 := inV1[u] || inBall(u)
		vSide1 := inV1[v] || inBall(v)
		if uSide1 != vSide1 && (inV2[u] || inV2[v]) {
			return heavy
		}
		return 1
	})
	if err != nil {
		return nil, err
	}
	return &Partition{Witness: w, V1: v1, V2: v2, Weighted: weighted, Poly: poly}, nil
}

// Separation verifies property (2) of Lemma 7.4 on the construction:
// it returns the smallest ratio d(w, v2)/max_{v1} d(w, v1) over v2 ∈ V2.
func (p *Partition) Separation() float64 {
	dist := p.Weighted.Dijkstra(p.Witness)
	var maxV1 int64 = 1
	for _, v := range p.V1 {
		if dist[v] > maxV1 {
			maxV1 = dist[v]
		}
	}
	minRatio := math.Inf(1)
	for _, v := range p.V2 {
		ratio := float64(dist[v]) / float64(maxV1)
		if ratio < minRatio {
			minRatio = ratio
		}
	}
	return minRatio
}

func bfsTreeParents(g *graph.Graph, src int) []int {
	n := g.N()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	seen := make([]bool, n)
	seen[src] = true
	queue := []int{src}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		row, _ := g.Row(v)
		for _, x := range row {
			if u := int(x); !seen[u] {
				seen[u] = true
				parent[u] = v
				queue = append(queue, u)
			}
		}
	}
	return parent
}

func bfsOrder(g *graph.Graph, src int) []int {
	n := g.N()
	seen := make([]bool, n)
	seen[src] = true
	queue := []int{src}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		row, _ := g.Row(v)
		for _, x := range row {
			if u := int(x); !seen[u] {
				seen[u] = true
				queue = append(queue, u)
			}
		}
	}
	return queue
}
