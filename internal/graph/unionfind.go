package graph

// UnionFind is a disjoint-set forest with union by rank and path halving.
// Used by the spanner, sparsifier, and clustering code.
type UnionFind struct {
	parent []int32
	rank   []int8
}

// NewUnionFind returns n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int32, n), rank: make([]int8, n)}
	uf.Reset()
	return uf
}

// Reset makes every element a singleton set again, reusing the arrays.
func (uf *UnionFind) Reset() {
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	clear(uf.rank)
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int) int {
	v := int32(x)
	for uf.parent[v] != v {
		uf.parent[v] = uf.parent[uf.parent[v]]
		v = uf.parent[v]
	}
	return int(v)
}

// Union merges the sets of x and y; reports whether they were distinct.
func (uf *UnionFind) Union(x, y int) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = int32(rx)
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	return true
}
