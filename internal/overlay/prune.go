package overlay

import (
	"fmt"

	"repro/internal/hybrid"
)

// PrunedTree is the output of the Lemma 4.5 pruning algorithm: a rooted
// virtual tree over the kept subset with explicit parent/children links
// (unlike Tree it is not heap-shaped, since contraction destroys that
// structure).
type PrunedTree struct {
	Root     int
	parent   map[int]int
	children map[int][]int
}

// Members returns the kept nodes (root first, preorder).
func (p *PrunedTree) Members() []int {
	var out []int
	var walk func(v int)
	walk = func(v int) {
		out = append(out, v)
		for _, c := range p.children[v] {
			walk(c)
		}
	}
	walk(p.Root)
	return out
}

// Parent returns v's parent, or -1 for the root / non-members.
func (p *PrunedTree) Parent(v int) int {
	if v == p.Root {
		return -1
	}
	u, ok := p.parent[v]
	if !ok {
		return -1
	}
	return u
}

// Children returns v's children.
func (p *PrunedTree) Children(v int) []int { return p.children[v] }

// Depth returns the depth of the tree (0 for a single node).
func (p *PrunedTree) Depth() int {
	var walk func(v int) int
	walk = func(v int) int {
		best := 0
		for _, c := range p.children[v] {
			if d := walk(c) + 1; d > best {
				best = d
			}
		}
		return best
	}
	return walk(p.Root)
}

// MaxDegree returns the maximum number of tree neighbors of any member.
func (p *PrunedTree) MaxDegree() int {
	best := 0
	for _, v := range p.Members() {
		d := len(p.children[v])
		if v != p.Root {
			d++
		}
		if d > best {
			best = d
		}
	}
	return best
}

// Prune implements Lemma 4.5: given the constant-degree depth-d tree t
// and a membership predicate keep, it constructs a virtual tree over
// U = {v : keep(v)} with depth ≤ d and maximum degree O(c·d) by
// contracting every maximal path of removed nodes into its first kept
// descendant. The construction costs O(d²) rounds (charged).
func Prune(net *hybrid.Net, t *Tree, keep func(v int) bool, phase string) (*PrunedTree, error) {
	if keep == nil {
		return nil, fmt.Errorf("overlay: %s: nil keep predicate", phase)
	}
	d := t.Depth()
	net.Charge(hybrid.CostPrune, hybrid.CostArgs{Prefix: phase, Depth: d})

	// keptIn[i]: number of kept nodes in the subtree at heap position i.
	n := len(t.Members)
	keptIn := make([]int, n)
	for i := n - 1; i >= 0; i-- {
		if keep(t.Members[i]) {
			keptIn[i]++
		}
		if l := 2*i + 1; l < n {
			keptIn[i] += keptIn[l]
		}
		if r := 2*i + 2; r < n {
			keptIn[i] += keptIn[r]
		}
	}
	if keptIn[0] == 0 {
		return nil, fmt.Errorf("overlay: %s: no kept nodes", phase)
	}
	pt := &PrunedTree{parent: make(map[int]int), children: make(map[int][]int)}

	// build returns the kept representative of the subtree at position i
	// (-1 if none), attaching descendants' representatives beneath it.
	var build func(i int) int
	build = func(i int) int {
		if i >= n || keptIn[i] == 0 {
			return -1
		}
		// Walk down from i to the first kept node u*, collecting the
		// off-walk subtrees whose representatives u* adopts (Lemma 4.5's
		// path contraction).
		walkEnd := i
		var hangers []int
		for !keep(t.Members[walkEnd]) {
			l, r := 2*walkEnd+1, 2*walkEnd+2
			next := -1
			if l < n && keptIn[l] > 0 {
				next = l
				if r < n && keptIn[r] > 0 {
					hangers = append(hangers, r)
				}
			} else {
				next = r
			}
			walkEnd = next
		}
		uStar := t.Members[walkEnd]
		// Children subtrees of u* itself.
		for _, c := range []int{2*walkEnd + 1, 2*walkEnd + 2} {
			if c < n && keptIn[c] > 0 {
				hangers = append(hangers, c)
			}
		}
		for _, h := range hangers {
			if rep := build(h); rep >= 0 {
				pt.parent[rep] = uStar
				pt.children[uStar] = append(pt.children[uStar], rep)
				net.Learn(rep, uStar)
				net.Learn(uStar, rep)
			}
		}
		return uStar
	}
	pt.Root = build(0)
	return pt, nil
}
