package graph

import (
	"fmt"
	"math/rand"
)

// seedDiameter pre-fills the Diameter cache of a freshly built graph
// with an analytically known value, sparing the all-sources diameter
// sweep (n/64 batches of the 64-source hop kernel, O(n·m) at worst) on
// deterministic families — at n = 10^6 that sweep is intractable, and
// the closed forms here are what lets the nqscaling-xl cells run.
// Every formula is certified against oracle.Diameter in
// TestAnalyticDiameters.
func seedDiameter(g *Graph, d int64) *Graph {
	if d > 0 {
		g.diam.Store(d)
	}
	return g
}

// Path returns the n-node path P_n (Theorem 15: NQ_k ∈ min{Θ(√k), D}).
func Path(n int) *Graph {
	return seedDiameter(path(n).Build(), int64(n-1))
}

// path's rows have room for two edges each, so Cycle's closing edge
// fits too.
func path(n int) *Builder {
	b := newBuilderDegrees(n, func(int) int { return 2 })
	for i := 0; i+1 < n; i++ {
		b.mustAddEdge(i, i+1, 1)
	}
	return b
}

// Cycle returns the n-node cycle C_n.
func Cycle(n int) *Graph {
	if n < 3 {
		return Path(n)
	}
	b := path(n)
	b.mustAddEdge(n-1, 0, 1)
	return seedDiameter(b.Build(), int64(n/2))
}

// Grid returns the d-dimensional grid graph with side length side
// (Definition 3.9): the d-fold Cartesian product of the side-node path,
// with n = side^d nodes. Theorem 16: NQ_k ∈ min{Θ(k^{1/(d+1)}), D}.
func Grid(side, d int) *Graph {
	return seedDiameter(grid(side, d).Build(), int64(max(d, 0))*int64(side-1))
}

func grid(side, d int) *Builder {
	if side < 1 || d < 1 {
		return NewBuilder(0)
	}
	n := 1
	for i := 0; i < d; i++ {
		n *= side
	}
	// At most two edges per axis, which Torus's wraparound edges fill.
	b := newBuilderDegrees(n, func(int) int { return 2 * d })
	// Node v has coordinates (v / side^i) % side for axis i.
	stride := 1
	for axis := 0; axis < d; axis++ {
		for v := 0; v < n; v++ {
			if (v/stride)%side+1 < side {
				b.mustAddEdge(v, v+stride, 1)
			}
		}
		stride *= side
	}
	return b
}

// Grid2D returns the side×side 2-dimensional grid.
func Grid2D(side int) *Graph { return Grid(side, 2) }

// Torus returns the d-dimensional torus (grid with wraparound edges).
func Torus(side, d int) *Graph {
	if side < 3 {
		return Grid(side, d)
	}
	b := grid(side, d)
	n := len(b.adj)
	stride := 1
	for axis := 0; axis < d; axis++ {
		for v := 0; v < n; v++ {
			if (v/stride)%side == side-1 {
				b.mustAddEdge(v, v-(side-1)*stride, 1)
			}
		}
		stride *= side
	}
	return seedDiameter(b.Build(), int64(d)*int64(side/2))
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	b := newBuilderDegrees(n, func(int) int { return n - 1 })
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.mustAddEdge(u, v, 1)
		}
	}
	return seedDiameter(b.Build(), min(int64(n-1), 1))
}

// Star returns the star with one center (node 0) and n-1 leaves.
func Star(n int) *Graph {
	b := newBuilderDegrees(n, func(v int) int {
		if v == 0 {
			return n - 1
		}
		return 1
	})
	for v := 1; v < n; v++ {
		b.mustAddEdge(0, v, 1)
	}
	return seedDiameter(b.Build(), min(int64(n-1), 2))
}

// BinaryTree returns the complete binary tree on n nodes (heap indexing).
func BinaryTree(n int) *Graph {
	b := newBuilderDegrees(n, func(v int) int {
		d := 0
		if v > 0 {
			d++ // the parent
		}
		if 2*v+1 < n {
			d++
		}
		if 2*v+2 < n {
			d++
		}
		return d
	})
	for v := 1; v < n; v++ {
		b.mustAddEdge(v, (v-1)/2, 1)
	}
	g := b.Build()
	// The diameter path runs through the root: the deepest node of the
	// left subtree (the first depth-D node, index 2^D-1, is always on
	// the left) to the deepest of the right (depth D when index
	// 3·2^(D-1)-1 exists, else D-1).
	if n >= 2 {
		depth := 0
		for 1<<(depth+1) <= n {
			depth++
		}
		right := depth - 1
		if 3<<(depth-1) <= n {
			right = depth
		}
		seedDiameter(g, int64(depth+right))
	}
	return g
}

// RingOfCliques returns rings cliques of size cliqueSize arranged in a
// cycle, adjacent cliques joined by a single edge. This family has small
// NQ_k for moderate k (dense neighborhoods) but large diameter, separating
// universal from existential bounds.
//
// With cliqueSize ≥ 3 every clique has a node on neither joining edge,
// and two such nodes ⌊rings/2⌋ cliques apart are 2⌊rings/2⌋+1 hops
// apart (in, then one bridge and one clique edge per clique passed);
// that is the diameter. Smaller cliques have no such node and another
// formula, so they stay unseeded.
func RingOfCliques(rings, cliqueSize int) *Graph {
	n := rings * cliqueSize
	// A clique's first node joins the next clique, its last node the
	// previous one.
	b := newBuilderDegrees(n, func(v int) int {
		d := cliqueSize - 1
		if v%cliqueSize == 0 {
			d++
		}
		if v%cliqueSize == cliqueSize-1 {
			d++
		}
		return d
	})
	for r := 0; r < rings; r++ {
		base := r * cliqueSize
		for i := 0; i < cliqueSize; i++ {
			for j := i + 1; j < cliqueSize; j++ {
				b.mustAddEdge(base+i, base+j, 1)
			}
		}
	}
	for r := 0; r < rings; r++ {
		next := (r + 1) % rings
		if rings == 2 && r == 1 {
			break // avoid a parallel edge between the only two cliques
		}
		if rings >= 2 {
			b.mustAddEdge(r*cliqueSize, next*cliqueSize+cliqueSize-1, 1)
		}
	}
	if rings < 1 || cliqueSize < 3 {
		return b.Build()
	}
	return seedDiameter(b.Build(), int64(2*(rings/2)+1))
}

// Lollipop returns a clique of cliqueSize nodes with a path of pathLen
// nodes attached — the canonical worst-case family for existential lower
// bounds in HYBRID (an isolated long path, cf. Section 3.2 of the paper).
func Lollipop(cliqueSize, pathLen int) *Graph {
	n := cliqueSize + pathLen
	// Clique nodes have their clique edges, the anchor (node 0) one more;
	// path nodes at most two.
	b := newBuilderDegrees(n, func(v int) int {
		switch {
		case v >= cliqueSize:
			return 2
		case v == 0:
			return cliqueSize
		default:
			return cliqueSize - 1
		}
	})
	for u := 0; u < cliqueSize; u++ {
		for v := u + 1; v < cliqueSize; v++ {
			b.mustAddEdge(u, v, 1)
		}
	}
	for i := 0; i < pathLen; i++ {
		prev := cliqueSize + i - 1
		if i == 0 {
			prev = 0
		}
		b.mustAddEdge(prev, cliqueSize+i, 1)
	}
	// Farthest pair: a non-anchor clique node to the path end (one hop
	// into the anchor, then the path). Degenerate shapes reduce to the
	// clique (pathLen = 0) or a bare path (cliqueSize ≤ 1).
	g := b.Build()
	switch {
	case cliqueSize <= 1:
		return seedDiameter(g, int64(n-1))
	case pathLen == 0:
		return seedDiameter(g, 1)
	default:
		return seedDiameter(g, int64(pathLen+1))
	}
}

// Hypercube returns the d-dimensional hypercube Q_d on 2^d nodes:
// diameter d = log₂ n, so NQ_k caps at D almost immediately — the
// "global problems become interesting on large-diameter graphs" regime
// boundary of Section 3.
func Hypercube(d int) *Graph {
	if d < 0 {
		d = 0
	}
	n := 1 << d
	b := newBuilderDegrees(n, func(int) int { return d })
	for v := 0; v < n; v++ {
		for bit := 0; bit < d; bit++ {
			if u := v ^ (1 << bit); v < u {
				b.mustAddEdge(v, u, 1)
			}
		}
	}
	return seedDiameter(b.Build(), int64(d))
}

// RandomRegular returns a connected (approximately) d-regular expander-
// style graph: the union of ⌈d/2⌉ random Hamiltonian cycles (duplicate
// edges skipped). Such unions are expanders w.h.p., giving logarithmic
// diameter and the smallest possible NQ_k.
func RandomRegular(n, d int, rng *rand.Rand) *Graph {
	if n < 3 {
		return Path(n)
	}
	// Each Hamiltonian cycle adds at most two edges per node.
	cycles := (d + 1) / 2
	b := newBuilderDegrees(n, func(int) int { return 2 * cycles })
	for c := 0; c < cycles; c++ {
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			u, v := perm[i], perm[(i+1)%n]
			if u != v && !b.HasEdge(u, v) {
				b.mustAddEdge(u, v, 1)
			}
		}
	}
	return b.Build()
}

// RandomConnected returns a connected Erdős–Rényi-style graph: a uniform
// random spanning tree plus each remaining pair independently with
// probability p. Weights are 1.
func RandomConnected(n int, p float64, rng *rand.Rand) *Graph {
	if n == 0 {
		return NewBuilder(0).Build()
	}
	// Every edge is drawn before the builder is made, so that its rows
	// can be sized to the degrees; the edges are then added in the order
	// they were drawn, the tree's first.
	deg := make([]int, n)
	// Random spanning tree via random attachment (uniform recursive tree).
	tree := make([][2]int32, n-1)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u, v := perm[i], perm[rng.Intn(i)]
		tree[i-1] = [2]int32{int32(u), int32(v)}
		deg[u]++
		deg[v]++
	}
	var extra [][2]int32
	if p > 0 {
		// For v > u the pair {u, v} can already be an edge only through
		// the tree, since the loop draws each pair once, at its smaller
		// end. So u's tree neighbors above u are marked once per u
		// instead of searched for per pair. They are listed per node by
		// linking the tree edges from head[u] through link.
		head, link := make([]int32, n), make([]int32, n-1)
		for u := range head {
			head[u] = -1
		}
		for e, uv := range tree {
			lo := min(uv[0], uv[1])
			link[e], head[lo] = head[lo], int32(e)
		}
		mark := make([]int32, n)
		for u := 0; u < n; u++ {
			for e := head[u]; e >= 0; e = link[e] {
				mark[max(tree[e][0], tree[e][1])] = int32(u + 1)
			}
			for v := u + 1; v < n; v++ {
				if mark[v] != int32(u+1) && rng.Float64() < p {
					extra = append(extra, [2]int32{int32(u), int32(v)})
					deg[u]++
					deg[v]++
				}
			}
		}
	}
	b := newBuilderDegrees(n, func(v int) int { return deg[v] })
	for _, uv := range tree {
		b.mustAddEdge(int(uv[0]), int(uv[1]), 1)
	}
	for _, uv := range extra {
		b.mustAddEdge(int(uv[0]), int(uv[1]), 1)
	}
	return b.Build()
}

// RandomWeights returns a copy of g with each edge weight drawn uniformly
// from [1, maxW]. Weights polynomial in n per the paper's convention.
func RandomWeights(g *Graph, maxW int64, rng *rand.Rand) *Graph {
	c, _ := g.Reweight(func(_, _ int, _ int64) int64 {
		return 1 + rng.Int63n(maxW)
	})
	return c
}

// Family identifies a named graph family used throughout the experiments.
type Family string

// Named graph families used by the benchmark harness.
const (
	FamilyPath          Family = "path"
	FamilyCycle         Family = "cycle"
	FamilyGrid2D        Family = "grid2d"
	FamilyGrid3D        Family = "grid3d"
	FamilyTorus2D       Family = "torus2d"
	FamilyRingOfCliques Family = "ringofcliques"
	FamilyLollipop      Family = "lollipop"
	FamilyTree          Family = "tree"
	FamilyRandom        Family = "random"
	FamilyHypercube     Family = "hypercube"
	FamilyExpander      Family = "expander"
)

// Families lists the families understood by Build, in display order.
func Families() []Family {
	return []Family{
		FamilyPath, FamilyCycle, FamilyGrid2D, FamilyGrid3D, FamilyTorus2D,
		FamilyRingOfCliques, FamilyLollipop, FamilyTree, FamilyRandom,
		FamilyHypercube, FamilyExpander,
	}
}

// Seeded reports whether Build draws the family's graph from its rng.
// Only FamilyRandom and FamilyExpander do; every other family is a
// fixed function of n, the same graph at every seed.
func (f Family) Seeded() bool { return f == FamilyRandom || f == FamilyExpander }

// Build constructs a member of the family with approximately n nodes
// (grids round down to a perfect power). The rng is used only by the
// Seeded families (FamilyRandom and FamilyExpander); it may be nil, which
// means seed 1, and it is ignored by every other family. Like every
// Graph, the result is immutable and safe to share between goroutines.
func Build(f Family, n int, rng *rand.Rand) (*Graph, error) {
	switch f {
	case FamilyPath:
		return Path(n), nil
	case FamilyCycle:
		return Cycle(n), nil
	case FamilyGrid2D:
		return Grid(isqrtFloor(n), 2), nil
	case FamilyGrid3D:
		return Grid(icbrtFloor(n), 3), nil
	case FamilyTorus2D:
		return Torus(isqrtFloor(n), 2), nil
	case FamilyRingOfCliques:
		c := isqrtFloor(n)
		if c < 2 {
			c = 2
		}
		return RingOfCliques(n/c, c), nil
	case FamilyLollipop:
		c := isqrtFloor(n)
		return Lollipop(c, n-c), nil
	case FamilyTree:
		return BinaryTree(n), nil
	case FamilyRandom:
		if rng == nil {
			rng = rand.New(rand.NewSource(1))
		}
		return RandomConnected(n, 4.0/float64(n), rng), nil
	case FamilyHypercube:
		d := 0
		for (1 << (d + 1)) <= n {
			d++
		}
		return Hypercube(d), nil
	case FamilyExpander:
		if rng == nil {
			rng = rand.New(rand.NewSource(1))
		}
		return RandomRegular(n, 4, rng), nil
	default:
		return nil, fmt.Errorf("graph: unknown family %q", f)
	}
}

func isqrtFloor(n int) int {
	s := 0
	for (s+1)*(s+1) <= n {
		s++
	}
	return s
}

func icbrtFloor(n int) int {
	s := 0
	for (s+1)*(s+1)*(s+1) <= n {
		s++
	}
	return s
}
