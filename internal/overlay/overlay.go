// Package overlay provides the virtual-tree overlay constructions of
// Section 4.1 of the paper (Lemmas 4.3–4.6): low-depth, low-degree rooted
// trees over all nodes or over a subset, on which aggregation and
// broadcast run in depth-many global rounds (Lemma 4.4).
//
// The deterministic construction of [GHSS17] (via the sparse neighborhood
// covers of [RG20]) is a cited black box; per the substitution rule in
// DESIGN.md the engine charges its published O(log² n) round cost and the
// tree itself is realized as a balanced binary tree over the
// identifier-sorted node list, which meets the same structural guarantees
// (constant degree, ⌈log₂ n⌉ depth, endpoints know each other's IDs).
package overlay

import (
	"fmt"

	"repro/internal/hybrid"
)

// Tree is a rooted virtual tree over a subset of the network's nodes.
// Its Lemma 4.4 passes charge every level from the level's size alone
// (see send), so a tree holds no messages and, once its phase labels are
// cached, an aggregation allocates nothing.
type Tree struct {
	// Members lists the nodes in the tree, heap-ordered: Members[0] is the
	// root and the children of position i are positions 2i+1 and 2i+2.
	// It is read-only: the full tree shares the network's SortedIDs, and
	// a recorded tree is shared by every network that replays it.
	Members []int
	net     *hybrid.Net
	// phase is the last phase label seen, upPhase and downPhase its
	// audit labels, cached so that repeating a phase builds no string.
	phase, upPhase, downPhase string
}

// Build constructs a virtual rooted tree of constant degree and depth
// O(log n) over all nodes (Lemma 4.3), charging the cited O(log² n)
// construction rounds. Tree neighbors learn each other's identifiers.
// The overlay persists for the rest of the execution, so only a
// network's first call pays; a table's recorded tree is shared
// read-only (hybrid.Once).
func Build(net *hybrid.Net, phase string) *Tree {
	t, _ := hybrid.Once(net, hybrid.Phase{Name: "overlay/full-tree", Label: phase}, func() (*Tree, error) {
		return buildOn(net, net.SortedIDs(), phase), nil
	})
	return t.On(net)
}

// On returns t charging its passes to net: t itself when it was built on
// net, else a view sharing its Members.
func (t *Tree) On(net *hybrid.Net) *Tree {
	if t.net == net {
		return t
	}
	return &Tree{Members: t.Members, net: net}
}

// BuildOn constructs a virtual rooted tree of degree O(log n) and depth
// O(log n) over the given member set (Lemma 4.6 = Lemma 4.3 + pruning
// Lemma 4.5), charging the cited O(log² n) rounds. Members must be
// non-empty and free of duplicates.
func BuildOn(net *hybrid.Net, members []int, phase string) (*Tree, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("overlay: %s: empty member set", phase)
	}
	seen := make(map[int]bool, len(members))
	ordered := make([]int, 0, len(members))
	for _, v := range members {
		if v < 0 || v >= net.N() {
			return nil, fmt.Errorf("overlay: %s: member %d out of range", phase, v)
		}
		if seen[v] {
			return nil, fmt.Errorf("overlay: %s: duplicate member %d", phase, v)
		}
		seen[v] = true
	}
	// Deterministic order: ascending external identifier.
	for _, v := range net.SortedIDs() {
		if seen[v] {
			ordered = append(ordered, v)
		}
	}
	return buildOn(net, ordered, phase), nil
}

func buildOn(net *hybrid.Net, ordered []int, phase string) *Tree {
	plog := net.PLog()
	net.Charge(phase+"/overlay-build", plog*plog)
	t := &Tree{Members: ordered, net: net}
	// Tree neighbors know each other after the construction.
	for i, v := range ordered {
		if i > 0 {
			p := ordered[(i-1)/2]
			net.Learn(v, p)
			net.Learn(p, v)
		}
	}
	return t
}

// Root returns the root node.
func (t *Tree) Root() int { return t.Members[0] }

// Size returns the number of members.
func (t *Tree) Size() int { return len(t.Members) }

// Depth returns the depth of the tree (0 for a single node).
func (t *Tree) Depth() int {
	d := 0
	for size := len(t.Members); size > 1; size >>= 1 {
		d++
	}
	return d
}

// Parent returns the parent node of the member at position i of
// Members, or -1 for the root.
func (t *Tree) Parent(i int) int {
	if i <= 0 {
		return -1
	}
	return t.Members[(i-1)/2]
}

// labels returns the audit labels of phase's converge-cast and
// broadcast.
func (t *Tree) labels(phase string) (up, down string) {
	if phase != t.phase || t.upPhase == "" {
		t.phase = phase
		t.upPhase = phase + "/convergecast"
		t.downPhase = phase + "/broadcastdown"
	}
	return t.upPhase, t.downPhase
}

// ConvergeCast sends width O(log n)-bit words from every member to its
// parent, level by level (deepest first), aggregating at internal nodes —
// the upward half of Lemma 4.4. It returns the simulated global rounds.
func (t *Tree) ConvergeCast(phase string, width int) (int, error) {
	label, _ := t.labels(phase)
	return t.send(label, width, true)
}

// BroadcastDown sends width words from every member to its children,
// level by level from the root — the downward half of Lemma 4.4.
func (t *Tree) BroadcastDown(phase string, width int) (int, error) {
	_, label := t.labels(phase)
	return t.send(label, width, false)
}

// send charges one global delivery per level, deepest first when
// deepestFirst is set, and returns the total rounds. Level d ≥ 1 holds
// heap positions 2^d−1 … min(2^(d+1)−2, m−1), so it carries
// s = min(2^d, m−2^d+1) width-word messages, one per child, and its
// largest per-node load is width·min(2, s): a parent with two children
// in the level carries two. Tree endpoints learned each other at
// construction and the messages teach nothing, so this charges exactly
// what SendGlobal charges for the explicit messages (DESIGN.md §1).
func (t *Tree) send(label string, width int, deepestFirst bool) (int, error) {
	width = max(width, 1)
	depth, m := t.Depth(), len(t.Members)
	total := 0
	for i := 1; i <= depth; i++ {
		d := i
		if deepestFirst {
			d = depth + 1 - i
		}
		s := min(1<<d, m-(1<<d)+1)
		r, err := t.net.SendGlobalLoad(label, s, width*min(2, s))
		if err != nil {
			return total, err
		}
		total += r
	}
	return total, nil
}

// Aggregate performs a width-word aggregation visible to every member
// (converge-cast to the root, then broadcast down) — Lemma 4.4 for
// width ∈ eÕ(1). Returns total simulated rounds.
func (t *Tree) Aggregate(phase string, width int) (int, error) {
	up, err := t.ConvergeCast(phase, width)
	if err != nil {
		return up, err
	}
	down, err := t.BroadcastDown(phase, width)
	return up + down, err
}

// BasicAggregate is the k=1 aggregation/dissemination helper of
// Lemma 4.4 applied to the whole network: build the Lemma 4.3 tree and
// aggregate one word. It returns the rounds consumed (charged build +
// simulated traffic).
func BasicAggregate(net *hybrid.Net, phase string) (int, error) {
	before := net.Rounds()
	tree := Build(net, phase)
	if _, err := tree.Aggregate(phase, 1); err != nil {
		return net.Rounds() - before, err
	}
	return net.Rounds() - before, nil
}
