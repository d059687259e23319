package lower

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// NodeCommInstance is a concrete instance of the node communication
// problem (Definition C.3, Appendix C): the nodes of A collectively know
// the state of a random variable X with entropy H(X) bits, and the nodes
// of B must learn it. Lemma 7.1 bounds the expected rounds from below by
// min{(p·H(X)−1)/(|B_{h−1}(A)|·γ), h/2−1} with h = hop(A, B) — even for
// algorithms that know the topology of G.
type NodeCommInstance struct {
	// A collectively knows X; B must learn it.
	A, B []int
	// EntropyBits is H(X).
	EntropyBits float64
}

// Evaluate computes the Lemma 7.1 bound of the instance on g for success
// probability p and global capacity gamma. It returns the bound together
// with the separation h = hop(A,B) and the ball size
// N = min{|B_{h−1}(A)|, |B_{h−1}(B)|}: the global traffic between the
// sides is limited by whichever side has fewer nodes within h−1 hops —
// Lemma 7.2 instantiates the lemma with the receiving singleton's ball.
func (inst *NodeCommInstance) Evaluate(g *graph.Graph, gamma int, p float64) (rounds float64, h, ball int, err error) {
	if len(inst.A) == 0 || len(inst.B) == 0 {
		return 0, 0, 0, fmt.Errorf("lower: node communication instance with empty A or B")
	}
	if gamma < 1 || p <= 0 || p > 1 {
		return 0, 0, 0, fmt.Errorf("lower: bad parameters gamma=%d p=%v", gamma, p)
	}
	n := g.N()
	inA := make([]bool, n)
	for _, v := range inst.A {
		if v < 0 || v >= n {
			return 0, 0, 0, fmt.Errorf("lower: node %d out of range", v)
		}
		inA[v] = true
	}
	dist, _ := g.MultiSourceBFS(inst.A)
	minHop := graph.Inf
	for _, v := range inst.B {
		if v < 0 || v >= n {
			return 0, 0, 0, fmt.Errorf("lower: node %d out of range", v)
		}
		if inA[v] {
			return 0, 0, 0, fmt.Errorf("lower: A and B intersect at node %d", v)
		}
		if dist[v] < minHop {
			minHop = dist[v]
		}
	}
	if minHop >= graph.Inf {
		return 0, 0, 0, graph.ErrDisconnected
	}
	h = int(minHop)
	distB, _ := g.MultiSourceBFS(inst.B)
	ballA, ballB := 0, 0
	for v := 0; v < n; v++ {
		if dist[v] <= int64(h-1) {
			ballA++
		}
		if distB[v] <= int64(h-1) {
			ballB++
		}
	}
	ball = ballA
	if ballB < ball {
		ball = ballB
	}
	return NodeCommunication(p, inst.EntropyBits, ball, gamma, h), h, ball, nil
}

// TokenSetEntropy returns H(X) for k tokens of ⌈log k⌉+1 bits each with
// independent uniform payload bits, as in Lemma 7.2 (k/2 one-bit tokens).
func TokenSetEntropy(k int) float64 {
	if k < 1 {
		return 0
	}
	return float64(k) / 2
}

// PathSeparationInstance builds the canonical hard node-communication
// instance on g for workload k: A is everything outside the h-hop ball
// of the Lemma 3.8 witness, B is the witness itself, and X is the
// Lemma 7.2 bit string (entropy k/2). It returns the instance and the
// witness, or an error when NQ_k is too small for the reduction.
func PathSeparationInstance(g *graph.Graph, k int) (*NodeCommInstance, int, error) {
	b, err := Dissemination(g, k, 1, 1)
	if err != nil {
		return nil, 0, err
	}
	if b.H < 2 {
		return nil, 0, fmt.Errorf("lower: NQ_k=%d too small for the node-communication reduction", b.NQ)
	}
	dist := g.BFS(b.Witness)
	var a []int
	for v := 0; v < g.N(); v++ {
		if dist[v] > int64(b.H) {
			a = append(a, v)
		}
	}
	if len(a) == 0 {
		return nil, 0, fmt.Errorf("lower: witness ball covers the graph")
	}
	return &NodeCommInstance{
		A:           a,
		B:           []int{b.Witness},
		EntropyBits: TokenSetEntropy(k),
	}, b.Witness, nil
}

// VerifyAgainstMeasured checks that a measured algorithm round count
// respects the bound of the instance — the assertion the benchmark
// harness makes for every universal run. It returns a descriptive error
// when the measured value is impossibly fast.
func (inst *NodeCommInstance) VerifyAgainstMeasured(g *graph.Graph, gamma int, p float64, measuredRounds int) error {
	bound, _, _, err := inst.Evaluate(g, gamma, p)
	if err != nil {
		return err
	}
	if float64(measuredRounds) < math.Floor(bound) {
		return fmt.Errorf("lower: measured %d rounds beat the Lemma 7.1 bound %.2f — model violation",
			measuredRounds, bound)
	}
	return nil
}
