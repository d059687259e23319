package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewAndAddEdge(t *testing.T) {
	b := NewBuilder(4)
	if g := b.Build(); g.N() != 4 || g.M() != 0 {
		t.Fatalf("got n=%d m=%d, want 4, 0", g.N(), g.M())
	}
	if err := b.AddEdge(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if !b.HasEdge(1, 0) || b.HasEdge(0, 2) {
		t.Fatal("Builder.HasEdge wrong")
	}
	g := b.Build()
	if g.M() != 1 {
		t.Fatalf("M=%d, want 1", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge {0,1} not visible from both sides")
	}
	if w, ok := g.EdgeWeight(1, 0); !ok || w != 5 {
		t.Fatalf("EdgeWeight(1,0)=%d,%v, want 5,true", w, ok)
	}
}

func TestAddEdgeErrors(t *testing.T) {
	b := NewBuilder(3)
	cases := []struct {
		u, v int
		w    int64
	}{
		{0, 0, 1},  // self loop
		{-1, 1, 1}, // out of range
		{0, 3, 1},  // out of range
		{0, 1, 0},  // non-positive weight
		{0, 1, -2}, // negative weight
	}
	for _, c := range cases {
		if err := b.AddEdge(c.u, c.v, c.w); err == nil {
			t.Errorf("AddEdge(%d,%d,%d) succeeded, want error", c.u, c.v, c.w)
		}
	}
}

func TestPathGenerator(t *testing.T) {
	g := Path(5)
	if g.N() != 5 || g.M() != 4 {
		t.Fatalf("path: n=%d m=%d", g.N(), g.M())
	}
	if !g.Connected() {
		t.Fatal("path not connected")
	}
	if d := g.Diameter(); d != 4 {
		t.Fatalf("path diameter=%d, want 4", d)
	}
}

func TestCycleGenerator(t *testing.T) {
	g := Cycle(6)
	if g.N() != 6 || g.M() != 6 {
		t.Fatalf("cycle: n=%d m=%d", g.N(), g.M())
	}
	if d := g.Diameter(); d != 3 {
		t.Fatalf("cycle diameter=%d, want 3", d)
	}
	for v := 0; v < 6; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("cycle degree(%d)=%d", v, g.Degree(v))
		}
	}
}

func TestGridGenerator(t *testing.T) {
	g := Grid(4, 2)
	if g.N() != 16 || g.M() != 24 {
		t.Fatalf("grid 4x4: n=%d m=%d, want 16, 24", g.N(), g.M())
	}
	if d := g.Diameter(); d != 6 {
		t.Fatalf("grid 4x4 diameter=%d, want 6", d)
	}
	g3 := Grid(3, 3)
	if g3.N() != 27 {
		t.Fatalf("grid 3^3: n=%d", g3.N())
	}
	if d := g3.Diameter(); d != 6 {
		t.Fatalf("grid 3^3 diameter=%d, want 6", d)
	}
}

func TestTorusGenerator(t *testing.T) {
	g := Torus(4, 2)
	if g.N() != 16 || g.M() != 32 {
		t.Fatalf("torus 4x4: n=%d m=%d, want 16, 32", g.N(), g.M())
	}
	for v := 0; v < 16; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("torus degree(%d)=%d, want 4", v, g.Degree(v))
		}
	}
	if d := g.Diameter(); d != 4 {
		t.Fatalf("torus 4x4 diameter=%d, want 4", d)
	}
}

func TestCompleteStarTree(t *testing.T) {
	if g := Complete(5); g.M() != 10 || g.Diameter() != 1 {
		t.Fatalf("K5: m=%d diam=%d", g.M(), g.Diameter())
	}
	if g := Star(5); g.M() != 4 || g.Diameter() != 2 {
		t.Fatalf("star: m=%d diam=%d", g.M(), g.Diameter())
	}
	if g := BinaryTree(7); g.M() != 6 || g.Diameter() != 4 {
		t.Fatalf("tree: m=%d diam=%d", g.M(), g.Diameter())
	}
}

func TestRingOfCliquesAndLollipop(t *testing.T) {
	g := RingOfCliques(4, 5)
	if g.N() != 20 || !g.Connected() {
		t.Fatalf("ring of cliques: n=%d connected=%v", g.N(), g.Connected())
	}
	l := Lollipop(5, 10)
	if l.N() != 15 || !l.Connected() {
		t.Fatalf("lollipop: n=%d connected=%v", l.N(), l.Connected())
	}
	if d := l.Diameter(); d != 11 {
		t.Fatalf("lollipop diameter=%d, want 11", d)
	}
}

func TestRandomConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 10, 100} {
		g := RandomConnected(n, 0.05, rng)
		if g.N() != n || !g.Connected() {
			t.Fatalf("random n=%d connected=%v", n, g.Connected())
		}
	}
}

// randomConnectedHasEdge is the reference RandomConnected: the same
// draws, with each pair's existing edge looked up by Builder.HasEdge.
func randomConnectedHasEdge(n int, p float64, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	if n == 0 {
		return b.Build()
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		b.mustAddEdge(perm[i], perm[rng.Intn(i)], 1)
	}
	if p > 0 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if !b.HasEdge(u, v) && rng.Float64() < p {
					b.mustAddEdge(u, v, 1)
				}
			}
		}
	}
	return b.Build()
}

// TestRandomConnectedMatchesHasEdge: RandomConnected builds the same CSR
// arrays as the HasEdge generator it replaced and leaves the stream at
// the same place, over sizes, seeds and edge probabilities. The
// generators run on one goroutine, so under the race detector, where
// the reference's n = 2000 scans take minutes, that size is dropped.
func TestRandomConnectedMatchesHasEdge(t *testing.T) {
	sizes := []int{1, 2, 3, 64, 576, 2000}
	if raceEnabled {
		sizes = sizes[:len(sizes)-1]
	}
	for _, n := range sizes {
		for seed := int64(1); seed <= 5; seed++ {
			for _, p := range []float64{0, 0.001, 0.01, 0.3} {
				rng, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				got, _ := CSRHash(RandomConnected(n, p, rng))
				want, _ := CSRHash(randomConnectedHasEdge(n, p, ref))
				if got != want || rng.Int63() != ref.Int63() {
					t.Fatalf("n=%d seed=%d p=%v: CSRHash %s, reference %s, or the streams diverged", n, seed, p, got, want)
				}
			}
		}
	}
}

func TestBuildFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, f := range Families() {
		g, err := Build(f, 64, rng)
		if err != nil {
			t.Fatalf("Build(%s): %v", f, err)
		}
		if g.N() == 0 || !g.Connected() {
			t.Fatalf("Build(%s): n=%d connected=%v", f, g.N(), g.Connected())
		}
	}
	if _, err := Build(Family("nope"), 10, nil); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(5) // 32 nodes
	if g.N() != 32 || g.M() != 80 {
		t.Fatalf("Q5: n=%d m=%d, want 32, 80", g.N(), g.M())
	}
	if d := g.Diameter(); d != 5 {
		t.Fatalf("Q5 diameter=%d, want 5", d)
	}
	for v := 0; v < 32; v++ {
		if g.Degree(v) != 5 {
			t.Fatalf("Q5 degree(%d)=%d", v, g.Degree(v))
		}
	}
	if q := Hypercube(0); q.N() != 1 {
		t.Fatalf("Q0 has %d nodes", q.N())
	}
}

func TestRandomRegularExpander(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := RandomRegular(200, 4, rng)
	if !g.Connected() {
		t.Fatal("expander disconnected")
	}
	// Union of two Hamiltonian cycles: logarithmic diameter w.h.p.
	if d := g.Diameter(); d > 20 {
		t.Fatalf("expander diameter %d too large", d)
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) < 2 || g.Degree(v) > 4 {
			t.Fatalf("degree(%d)=%d outside [2,4]", v, g.Degree(v))
		}
	}
	if t3 := RandomRegular(2, 4, rng); !t3.Connected() {
		t.Fatal("tiny fallback broken")
	}
}

func TestBFSOnPath(t *testing.T) {
	g := Path(6)
	d := g.BFS(0)
	for v := 0; v < 6; v++ {
		if d[v] != int64(v) {
			t.Fatalf("BFS path dist[%d]=%d", v, d[v])
		}
	}
}

func TestMultiSourceBFS(t *testing.T) {
	g := Path(10)
	dist, nearest := g.MultiSourceBFS([]int{0, 9})
	if dist[4] != 4 || nearest[4] != 0 {
		t.Fatalf("node 4: dist=%d nearest=%d", dist[4], nearest[4])
	}
	if dist[7] != 2 || nearest[7] != 1 {
		t.Fatalf("node 7: dist=%d nearest=%d", dist[7], nearest[7])
	}
}

func TestBallAndBallSizes(t *testing.T) {
	g := Path(10)
	ball := g.Ball(5, 2)
	if len(ball) != 5 {
		t.Fatalf("|B_2(5)|=%d, want 5", len(ball))
	}
	sizes := g.BallSizes(0, 4)
	want := []int{1, 2, 3, 4, 5}
	for i, w := range want {
		if sizes[i] != w {
			t.Fatalf("BallSizes[%d]=%d, want %d", i, sizes[i], w)
		}
	}
}

func TestDijkstraAgainstBFSUnweighted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := RandomConnected(50, 0.08, rng)
	for src := 0; src < 5; src++ {
		bd := g.BFS(src)
		dd := g.Dijkstra(src)
		for v := range bd {
			if bd[v] != dd[v] {
				t.Fatalf("src=%d v=%d: bfs=%d dijkstra=%d", src, v, bd[v], dd[v])
			}
		}
	}
}

func TestDijkstraWeighted(t *testing.T) {
	b := NewBuilder(4)
	// 0-1 (1), 1-2 (1), 0-2 (5), 2-3 (1)
	for _, e := range []UndirectedEdge{{0, 1, 1}, {1, 2, 1}, {0, 2, 5}, {2, 3, 1}} {
		if err := b.AddEdge(e.U, e.V, e.W); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	d := g.Dijkstra(0)
	want := []int64{0, 1, 2, 3}
	for v, w := range want {
		if d[v] != w {
			t.Fatalf("dist[%d]=%d, want %d", v, d[v], w)
		}
	}
}

func TestHopLimitedDistances(t *testing.T) {
	b := NewBuilder(4)
	for _, e := range []UndirectedEdge{{0, 1, 1}, {1, 2, 1}, {0, 2, 5}, {2, 3, 1}} {
		if err := b.AddEdge(e.U, e.V, e.W); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	d1 := g.HopLimitedDistances(0, 1)
	if d1[2] != 5 {
		t.Fatalf("d^1(0,2)=%d, want 5 (direct edge)", d1[2])
	}
	if d1[3] != Inf {
		t.Fatalf("d^1(0,3)=%d, want Inf", d1[3])
	}
	d2 := g.HopLimitedDistances(0, 2)
	if d2[2] != 2 {
		t.Fatalf("d^2(0,2)=%d, want 2", d2[2])
	}
	dn := g.HopLimitedDistances(0, 4)
	exact := g.Dijkstra(0)
	for v := range dn {
		if dn[v] != exact[v] {
			t.Fatalf("d^n(0,%d)=%d != exact %d", v, dn[v], exact[v])
		}
	}
}

// Property: hop-limited distances with h ≥ n-1 equal Dijkstra distances,
// and are monotone non-increasing in h.
func TestHopLimitedPropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := RandomWeights(RandomConnected(n, 0.1, rng), 20, rng)
		src := rng.Intn(n)
		exact := g.Dijkstra(src)
		full := g.HopLimitedDistances(src, n-1)
		prev := g.HopLimitedDistances(src, 1)
		for h := 2; h < n; h++ {
			cur := g.HopLimitedDistances(src, h)
			for v := range cur {
				if cur[v] > prev[v] {
					return false
				}
			}
			prev = cur
		}
		for v := range full {
			if full[v] != exact[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestReweight(t *testing.T) {
	g := Path(4)
	w, err := g.Reweight(func(_, _ int, _ int64) int64 { return 9 })
	if err != nil {
		t.Fatal(err)
	}
	if !w.IsWeighted() || slices.Max(w.w) != 9 {
		t.Fatal("reweight failed")
	}
	if g.IsWeighted() {
		t.Fatal("reweight changed the original")
	}
	if u := w.Unweighted(); u.IsWeighted() {
		t.Fatal("unweighted copy still weighted")
	}
	if _, err := g.Reweight(func(_, _ int, _ int64) int64 { return 0 }); err == nil {
		t.Fatal("reweight accepted a non-positive weight")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := RandomWeights(RandomConnected(30, 0.1, rng), 50, rng)
	edges := g.Edges()
	if len(edges) != g.M() {
		t.Fatalf("Edges() returned %d, M()=%d", len(edges), g.M())
	}
	b := NewBuilder(g.N())
	for _, e := range edges {
		if err := b.AddEdge(e.U, e.V, e.W); err != nil {
			t.Fatal(err)
		}
	}
	h := b.Build()
	for _, e := range edges {
		if w, ok := h.EdgeWeight(e.U, e.V); !ok || w != e.W {
			t.Fatalf("edge (%d,%d) lost in round trip", e.U, e.V)
		}
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	sets := func() int {
		roots := make(map[int]bool)
		for v := range 5 {
			roots[uf.Find(v)] = true
		}
		return len(roots)
	}
	if sets() != 5 {
		t.Fatalf("sets=%d", sets())
	}
	if !uf.Union(0, 1) || !uf.Union(1, 2) {
		t.Fatal("union of distinct sets returned false")
	}
	if uf.Union(0, 2) {
		t.Fatal("union of same set returned true")
	}
	if uf.Find(0) != uf.Find(2) || uf.Find(0) == uf.Find(3) {
		t.Fatal("Find gives wrong representatives")
	}
	if sets() != 3 {
		t.Fatalf("sets=%d, want 3", sets())
	}
}

func TestAPSPExactSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := RandomWeights(RandomConnected(20, 0.15, rng), 9, rng)
	d := g.APSPExact()
	for u := range d {
		if d[u][u] != 0 {
			t.Fatalf("d[%d][%d]=%d", u, u, d[u][u])
		}
		for v := range d {
			if d[u][v] != d[v][u] {
				t.Fatalf("asymmetric: d[%d][%d]=%d d[%d][%d]=%d", u, v, d[u][v], v, u, d[v][u])
			}
		}
	}
}

func TestDiameterDisconnected(t *testing.T) {
	b := NewBuilder(4)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	if d := g.Diameter(); d < Inf {
		t.Fatalf("diameter of disconnected graph = %d, want Inf", d)
	}
}

// reweightViaBuilder is the reference Reweight: a Builder fed g's edges
// in Edges() order with the new weights.
func reweightViaBuilder(g *Graph, f func(u, v int, w int64) int64) (*Graph, error) {
	b := NewBuilder(g.N())
	for _, e := range g.Edges() {
		if err := b.AddEdge(e.U, e.V, f(e.U, e.V, e.W)); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// TestReweightMatchesBuilder: the in-place Reweight lays out the same
// CSR arrays as the Builder path it replaced, on every family at two
// sizes, both for unit weights and for a random weight map drawn in
// Edges() order.
func TestReweightMatchesBuilder(t *testing.T) {
	for _, fam := range Families() {
		for _, n := range []int{64, 576} {
			g, err := Build(fam, n, rand.New(rand.NewSource(5)))
			if err != nil {
				t.Fatal(err)
			}
			maps := map[string]func() func(u, v int, w int64) int64{
				"unit": func() func(u, v int, w int64) int64 {
					return func(_, _ int, _ int64) int64 { return 1 }
				},
				"random": func() func(u, v int, w int64) int64 {
					rng := rand.New(rand.NewSource(int64(n)))
					return func(_, _ int, _ int64) int64 { return 1 + rng.Int63n(1000) }
				},
			}
			for name, newF := range maps {
				got, err := g.Reweight(newF())
				if err != nil {
					t.Fatal(err)
				}
				want, err := reweightViaBuilder(g, newF())
				if err != nil {
					t.Fatal(err)
				}
				gh, err := CSRHash(got)
				if err != nil {
					t.Fatal(err)
				}
				wh, err := CSRHash(want)
				if err != nil {
					t.Fatal(err)
				}
				if gh != wh {
					t.Errorf("%s n=%d %s weights: Reweight hashes to %s, Builder path to %s", fam, n, name, gh, wh)
				}
			}
		}
	}
}
