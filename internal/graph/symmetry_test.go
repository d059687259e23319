package graph

// The differential test of DecodeCSR's symmetry check: the double
// counting-sort transpose (unmatchedHalfEdge) must accept exactly the
// CSR arrays the map-based check accepted, on multigraphs whose
// parallel edges carry unequal weights in either row order, name a
// genuinely unmatched edge when it rejects, and name the same edge as
// the check that sorted every node's two lists (sortUnmatched).

import (
	"math/rand"
	"slices"
	"testing"
)

// mapUnmatched is the reference: the map check DecodeCSR ran before
// the transpose. It returns the (min, max, w) keys whose half-edge
// counts in the two directions differ.
func mapUnmatched(g *Graph) map[[3]int64]int {
	mates := make(map[[3]int64]int)
	for v := 0; v < g.N(); v++ {
		for i := g.rowStart[v]; i < g.rowStart[v+1]; i++ {
			u, w := int(g.to[i]), g.w[i]
			if v < u {
				mates[[3]int64{int64(v), int64(u), w}]++
			} else {
				mates[[3]int64{int64(u), int64(v), w}]--
			}
		}
	}
	for e, count := range mates {
		if count == 0 {
			delete(mates, e)
		}
	}
	return mates
}

// sortUnmatched is the second reference: the symmetry check DecodeCSR
// ran before the second transpose, which lists the half-edges entering
// each node by source and sorts both of each node's lists by
// (neighbor, weight) before comparing them.
func sortUnmatched(g *Graph) (from, to int, w int64, ok bool) {
	n, h := g.N(), len(g.to)
	start := make([]int32, n+1)
	for _, x := range g.to {
		start[x]++
	}
	for x := 1; x < n; x++ {
		start[x] += start[x-1]
	}
	start[n] = int32(h)
	in := make([]halfEdge, h)
	deg := 0
	for s := n - 1; s >= 0; s-- {
		deg = max(deg, int(g.rowStart[s+1]-g.rowStart[s]))
		for i := g.rowStart[s+1] - 1; i >= g.rowStart[s]; i-- {
			x := g.to[i]
			start[x]--
			in[start[x]] = halfEdge{int32(s), g.w[i]}
		}
	}
	out := make([]halfEdge, deg)
	for v := 0; v < n; v++ {
		lo, hi := g.rowStart[v], g.rowStart[v+1]
		row := out[:hi-lo]
		for i := lo; i < hi; i++ {
			row[i-lo] = halfEdge{g.to[i], g.w[i]}
		}
		slices.SortFunc(row, cmpHalfEdge)
		mates := in[start[v]:start[v+1]]
		slices.SortFunc(mates, cmpHalfEdge)
		for i := 0; i < len(row) || i < len(mates); i++ {
			switch {
			case i == len(mates) || i < len(row) && cmpHalfEdge(row[i], mates[i]) < 0:
				return v, int(row[i].u), row[i].w, true
			case i == len(row) || cmpHalfEdge(mates[i], row[i]) < 0:
				return int(mates[i].u), v, mates[i].w, true
			}
		}
	}
	return 0, 0, 0, false
}

// csrOf packs per-node rows of half-edges into a Graph's arrays.
func csrOf(rows [][]halfEdge) *Graph {
	g := &Graph{rowStart: make([]int32, len(rows)+1)}
	for v, row := range rows {
		for _, e := range row {
			g.to = append(g.to, e.u)
			g.w = append(g.w, e.w)
		}
		g.rowStart[v+1] = int32(len(g.to))
	}
	return g
}

// checkSymmetryAgrees fails unless unmatchedHalfEdge and the map
// reference agree on rows, a rejection names an unmatched key, and
// the edge named is the one sortUnmatched names.
func checkSymmetryAgrees(t *testing.T, name string, rows [][]halfEdge) (unmatched bool) {
	t.Helper()
	g := csrOf(rows)
	want := mapUnmatched(g)
	u, v, w, bad := g.unmatchedHalfEdge()
	if su, sv, sw, sbad := sortUnmatched(g); su != u || sv != v || sw != w || sbad != bad {
		t.Fatalf("%s: transpose check names (%d,%d,w=%d,%v), sorting check (%d,%d,w=%d,%v) (rows %v)", name, u, v, w, bad, su, sv, sw, sbad, rows)
	}
	if bad != (len(want) > 0) {
		t.Fatalf("%s: transpose check says unmatched=%v, map check %v (rows %v)", name, bad, want, rows)
	}
	if key := [3]int64{int64(min(u, v)), int64(max(u, v)), w}; bad && want[key] == 0 {
		t.Fatalf("%s: transpose check names %v, which the map check matches (unmatched: %v)", name, key, want)
	}
	return bad
}

func TestUnmatchedHalfEdgeMatchesMapCheck(t *testing.T) {
	// Hand-picked multigraph cases on two or three nodes.
	for name, rows := range map[string][][]halfEdge{
		"parallel, same order":        {{{1, 2}, {1, 5}}, {{0, 2}, {0, 5}}},
		"parallel, reversed order":    {{{1, 2}, {1, 5}}, {{0, 5}, {0, 2}}},
		"parallel, weight mismatch":   {{{1, 2}, {1, 5}}, {{0, 5}, {0, 5}}},
		"parallel, one missing":       {{{1, 2}, {1, 5}}, {{0, 5}}},
		"parallel, one extra":         {{{1, 2}}, {{0, 2}, {0, 2}}},
		"one-sided edge":              {{{1, 1}}, {}},
		"one-sided edge, other side":  {{}, {{0, 1}}},
		"weight mismatch":             {{{1, 1}}, {{0, 2}}},
		"triangle":                    {{{1, 1}, {2, 3}}, {{2, 2}, {0, 1}}, {{0, 3}, {1, 2}}},
		"triangle, rotated weights":   {{{1, 1}, {2, 3}}, {{2, 3}, {0, 1}}, {{0, 2}, {1, 2}}},
		"mates swapped across rows":   {{{1, 1}, {2, 1}}, {{2, 1}, {0, 1}}, {{1, 1}}},
		"isolated nodes":              {{}, {}, {}},
		"empty":                       {},
		"balanced counts, wrong pair": {{{1, 4}, {2, 4}}, {{0, 4}, {2, 4}}, {{1, 4}, {1, 4}}},
		"directed triangle":           {{{1, 1}}, {{2, 1}}, {{0, 1}}},
		"directed 4-cycle":            {{{1, 2}, {3, 2}}, {{2, 2}, {0, 2}}, {{3, 2}, {1, 2}}, {{0, 2}, {2, 2}}},
	} {
		checkSymmetryAgrees(t, name, rows)
	}

	// Random multigraphs, symmetric before one of several corruptions.
	rng := rand.New(rand.NewSource(1))
	var rejected int
	const iters = 20000
	for iter := 0; iter < iters; iter++ {
		rows := randomMultigraph(rng)
		n := len(rows)
		v := rng.Intn(n)
		switch rng.Intn(5) {
		case 1: // drop a half-edge
			if len(rows[v]) > 0 {
				i := rng.Intn(len(rows[v]))
				rows[v] = append(rows[v][:i], rows[v][i+1:]...)
			}
		case 2: // reweight a half-edge
			if len(rows[v]) > 0 {
				rows[v][rng.Intn(len(rows[v]))].w = int64(1 + rng.Intn(3))
			}
		case 3: // add a one-sided half-edge
			if n > 1 {
				u := (v + 1 + rng.Intn(n-1)) % n
				rows[v] = append(rows[v], halfEdge{int32(u), int64(1 + rng.Intn(3))})
			}
		case 4: // retarget a half-edge
			if len(rows[v]) > 0 && n > 2 {
				e := &rows[v][rng.Intn(len(rows[v]))]
				if u := int32(rng.Intn(n)); int(u) != v {
					e.u = u
				}
			}
		}
		for _, row := range rows {
			rng.Shuffle(len(row), func(i, j int) { row[i], row[j] = row[j], row[i] })
		}
		if checkSymmetryAgrees(t, "random", rows) {
			rejected++
		}
	}
	if rejected < iters/10 || rejected > iters*9/10 {
		t.Fatalf("%d of %d random multigraphs rejected: the corruptions no longer exercise both outcomes", rejected, iters)
	}

	// Corruptions that keep every node's degrees: swapping the targets
	// of two half-edges leaves each node entering as many half-edges as
	// it leaves, so only the neighbor comparison can reject.
	rng = rand.New(rand.NewSource(2))
	rejected = 0
	for iter := 0; iter < iters/4; iter++ {
		rows := randomMultigraph(rng)
		v, u := rng.Intn(len(rows)), rng.Intn(len(rows))
		if len(rows[v]) > 0 && len(rows[u]) > 0 {
			a, b := &rows[v][rng.Intn(len(rows[v]))], &rows[u][rng.Intn(len(rows[u]))]
			if int(b.u) != v && int(a.u) != u {
				a.u, b.u = b.u, a.u
			}
		}
		if checkSymmetryAgrees(t, "degree-preserving", rows) {
			rejected++
		}
	}
	if rejected < iters/40 {
		t.Fatalf("%d of %d degree-preserving corruptions rejected", rejected, iters/4)
	}
}

// randomMultigraph draws a symmetric multigraph on 1 to 7 nodes with
// up to three parallel edges per node on average, weights in [1,3].
func randomMultigraph(rng *rand.Rand) [][]halfEdge {
	n := 1 + rng.Intn(7)
	rows := make([][]halfEdge, n)
	if n > 1 {
		for e := rng.Intn(3 * n); e > 0; e-- {
			a, b := rng.Intn(n), rng.Intn(n-1)
			if b >= a {
				b++
			}
			w := int64(1 + rng.Intn(3))
			rows[a] = append(rows[a], halfEdge{int32(b), w})
			rows[b] = append(rows[b], halfEdge{int32(a), w})
		}
	}
	return rows
}
