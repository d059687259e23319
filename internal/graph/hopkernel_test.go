package graph_test

// The 64-source hop kernel behind Diameter and BallProfiles is checked
// against per-source searches: the library's own BallSizes (cut at
// each row's first t·|B_t| ≥ K) and Eccentricity, and the independent
// oracle diameter.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
)

// uncached copies g edge by edge, so the copy starts without a cached
// diameter or attached profiles.
func uncached(t testing.TB, g *graph.Graph) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(g.N())
	for _, e := range g.Edges() {
		if err := b.AddEdge(e.U, e.V, e.W); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// hopKernelGraphs returns the differential test's inputs by name: all
// families at batch-boundary sizes and two disconnected graphs.
func hopKernelGraphs(t *testing.T) map[string]*graph.Graph {
	out := map[string]*graph.Graph{}
	for _, n := range []int{1, 2, 63, 64, 65, 129, 576} {
		for _, f := range graph.Families() {
			g, err := graph.Build(f, n, rand.New(rand.NewSource(int64(n))))
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("%s/%d", f, n)] = g
		}
	}
	two := graph.NewBuilder(100)
	for v := 0; v+1 < 100; v++ {
		if v != 69 { // components 0..69 (a path) and 70..99
			if err := two.AddEdge(v, v+1, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	out["two-components"] = two.Build()
	isolated := graph.NewBuilder(70)
	for v := 1; v < 70; v++ {
		if err := isolated.AddEdge(v, 1+v%69, 1); err != nil { // node 0 stays isolated
			t.Fatal(err)
		}
	}
	out["isolated-node"] = isolated.Build()
	return out
}

// TestHopKernelMatchesPerSourceBFS: every profile row, eccentricity and
// diameter the kernel computes equals what per-source searches give —
// a row is BallSizes cut at its first t·|B_t| ≥ K — at truncation
// radii from 0 to n, including partial 64-source batches and
// disconnected graphs, with every level pushed, with every level
// pulled, and with the kernel's own per-level choice.
func TestHopKernelMatchesPerSourceBFS(t *testing.T) {
	for name, g := range hopKernelGraphs(t) {
		n := g.N()
		diam := oracle.Diameter(g)
		ecc := make([]int64, n)
		for v := range ecc {
			ecc[v] = g.Eccentricity(v)
		}
		radii := []int{0, 1, graph.ProfileRadius(n, diam), n}
		sizes := make([][][]int, len(radii)) // sizes[r][v] = BallSizes(v, radii[r]) cut at K
		for r, maxR := range radii {
			sizes[r] = make([][]int, n)
			for v := range sizes[r] {
				sizes[r][v] = graph.StopRow(g.BallSizes(v, maxR), g.ProfileStop())
			}
		}
		for _, mode := range []string{"push", "pull", "adaptive"} {
			func() {
				if mode != "adaptive" {
					defer graph.ForceHopDirection(mode == "pull")() // Fatalf runs it too
				}
				if got := uncached(t, g).Diameter(); got != diam {
					t.Fatalf("%s %s: Diameter %d, oracle %d", mode, name, got, diam)
				}
				for r, maxR := range radii {
					p := g.BallProfilesWorkers(maxR, 1)
					kecc := graph.KernelEccentricities(g, maxR)
					for v := 0; v < n; v++ {
						if e := kecc[v]; e != ecc[v] && (e != graph.EccUnknown || maxR == n) {
							t.Fatalf("%s %s maxR=%d: kernel ecc(%d)=%d, Eccentricity %d", mode, name, maxR, v, e, ecc[v])
						}
						if p.Len(v) != len(sizes[r][v]) {
							t.Fatalf("%s %s maxR=%d: Len(%d)=%d, BallSizes has %d entries", mode, name, maxR, v, p.Len(v), len(sizes[r][v]))
						}
						for tt, want := range sizes[r][v] {
							if got := p.Size(v, tt); got != want {
								t.Fatalf("%s %s maxR=%d: Size(%d,%d)=%d, BallSizes %d", mode, name, maxR, v, tt, got, want)
							}
						}
					}
					if !bytes.Equal(graph.EncodeProfiles(p), graph.EncodeProfiles(g.BallProfilesWorkers(maxR, 4))) {
						t.Fatalf("%s %s maxR=%d: profiles differ between 1 and 4 workers", mode, name, maxR)
					}
				}
			}()
		}
	}
}

// profilesGolden576 is the sha256 of the EncodeProfiles bytes of all
// families at n = 576 (Build seed 1, radius ProfileRadius), concatenated
// in Families order, with every row cut at its first t·|B_t| ≥ K
// (TestHopKernelMatchesPerSourceBFS checks the same rows against
// BallSizes cut by that rule).
const profilesGolden576 = "67c61c1e7982c76de008c4222c181e59ad4d443f2e67255a617a7b3505b55d70"

func TestHopKernelProfilesGolden(t *testing.T) {
	h := sha256.New()
	for _, f := range graph.Families() {
		g, err := graph.Build(f, 576, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(graph.EncodeProfiles(g.BallProfilesWorkers(graph.ProfileRadius(g.N(), g.Diameter()), 1)))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != profilesGolden576 {
		t.Fatalf("profiles of the 11 families at n=576 hash to %s, want %s", got, profilesGolden576)
	}
}

// TestReweightCarriesHopFacts: a weight-only copy keeps the diameter
// and the attached profiles (weights cannot change hop structure).
func TestReweightCarriesHopFacts(t *testing.T) {
	g, err := graph.Build(graph.FamilyExpander, 256, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	d := g.Diameter()
	p := g.AttachProfiles(g.BallProfiles(graph.ProfileRadius(g.N(), d)))
	tripled, err := g.Reweight(func(_, _ int, w int64) int64 { return 3 * w })
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*graph.Graph{"Unweighted": g.Unweighted(), "Reweight": tripled} {
		if c.Profiles() != p {
			t.Fatalf("%s copy dropped the attached profiles", name)
		}
		// The first call on the copy must be a cache hit: computing it
		// would allocate the kernel scratch of a fresh graph.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := c.Diameter()
		runtime.ReadMemStats(&after)
		if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
			t.Fatalf("%s copy recomputed its diameter (%d allocations)", name, allocs)
		}
		if got != d {
			t.Fatalf("%s copy has diameter %d, want %d", name, got, d)
		}
	}

	path := graph.Path(10) // diameter 9, seeded by the generator
	path.AttachProfiles(path.BallProfiles(path.N()))
	copied, err := path.Reweight(func(_, _ int, w int64) int64 { return w + 1 })
	if err != nil {
		t.Fatal(err)
	}
	if copied.Profiles() == nil {
		t.Fatal("Reweight copy of a generator graph dropped the attached profiles")
	}
	if got := copied.Diameter(); got != 9 {
		t.Fatalf("reweighted 10-path has diameter %d, want 9", got)
	}
}

// benchSizes are the kernel benchmarks' graph sizes: the default
// report's n and a larger one.
var benchSizes = []int{576, 4096}

// BenchmarkBallProfiles times the canonical profile artifact of each
// family on one worker.
func BenchmarkBallProfiles(b *testing.B) {
	for _, n := range benchSizes {
		for _, f := range graph.Families() {
			g, err := graph.Build(f, n, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			r := graph.ProfileRadius(g.N(), g.Diameter())
			b.Run(fmt.Sprintf("n=%d/%s", n, f), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					g.BallProfilesWorkers(r, 1)
				}
			})
		}
	}
}

// BenchmarkDiameter times an uncached Diameter of each family.
func BenchmarkDiameter(b *testing.B) {
	for _, n := range benchSizes {
		for _, f := range graph.Families() {
			g, err := graph.Build(f, n, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("n=%d/%s", n, f), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					c := uncached(b, g)
					b.StartTimer()
					c.Diameter()
				}
			})
		}
	}
}

// hopPairsRef returns the hop distances among the listed nodes, from
// one BFS per node: pairs[i][j] = hop(nodes[i], nodes[j]).
func hopPairsRef(g *graph.Graph, nodes []int) [][]int64 {
	pairs := make([][]int64, len(nodes))
	for i, v := range nodes {
		pairs[i] = make([]int64, len(nodes))
		dist := g.BFS(v)
		for j, u := range nodes {
			pairs[i][j] = dist[u]
		}
	}
	return pairs
}

// TestHopDistancesAmongMatchesPerSourceBFS: the pairwise hop distances
// that the kernel's first-hit sink records equal per-source BFS, in
// (i, j) order, for node lists of one partial batch, exactly one batch,
// one batch and one node, and several batches, listed in ascending and
// in shuffled order, at radii below and at the diameter (past it on
// disconnected graphs) — with
// every level pushed, every level pulled, and the kernel's own choice.
func TestHopDistancesAmongMatchesPerSourceBFS(t *testing.T) {
	for name, g := range hopKernelGraphs(t) {
		n := g.N()
		if n < 63 || graph.RaceEnabled && n > 129 {
			continue // the race detector runs the smaller sizes only
		}
		rng := rand.New(rand.NewSource(int64(n)))
		lists := map[string][]int{}
		for _, k := range []int{63, 64, 65, min(n, 200)} {
			if k > n {
				continue
			}
			asc := make([]int, k)
			for i := range asc {
				asc[i] = i * n / k
			}
			lists[fmt.Sprintf("asc%d", k)] = asc
			lists[fmt.Sprintf("perm%d", k)] = rng.Perm(n)[:k]
		}
		diam := oracle.Diameter(g)
		radii := []int{1, 7, n} // a disconnected graph's searches run out
		if diam < graph.Inf {
			radii = []int{1, 7, int(diam) - 1, int(diam)}
		}
		for lname, nodes := range lists {
			dist := hopPairsRef(g, nodes)
			for _, h := range radii {
				for _, mode := range []string{"push", "pull", "adaptive"} {
					func() {
						if mode != "adaptive" {
							defer graph.ForceHopDirection(mode == "pull")()
						}
						lastI, lastJ, got := -1, -1, 0
						err := g.HopDistancesAmong(nodes, h, func(i, j int, d int64) error {
							if i >= j || i < lastI || (i == lastI && j <= lastJ) {
								t.Fatalf("%s %s h=%d %s: pair (%d, %d) after (%d, %d)", mode, name, h, lname, i, j, lastI, lastJ)
							}
							if dist[i][j] != d {
								t.Fatalf("%s %s h=%d %s: pair (%d, %d) at %d hops, BFS %d", mode, name, h, lname, i, j, d, dist[i][j])
							}
							lastI, lastJ = i, j
							got++
							return nil
						})
						if err != nil {
							t.Fatal(err)
						}
						total := 0
						for i := range dist {
							for _, d := range dist[i][i+1:] {
								if d <= int64(h) {
									total++
								}
							}
						}
						if got != total {
							t.Fatalf("%s %s h=%d %s: %d pairs, BFS finds %d", mode, name, h, lname, got, total)
						}
					}()
				}
			}
		}
	}
}

// TestDiameterKeepsCompleteProfiles: an uncached Diameter attaches the
// profiles its pass walked exactly when every search exhausts within
// ProfileRadius(n, -1) — connected graphs with D at most that radius —
// and, each row cut at its first t·|B_t| ≥ K while the searches run on
// to the eccentricities, they encode to the bytes of
// BallProfiles(ProfileRadius(n, D)).
// The pass leaves them for AttachProfiles to adopt. Disconnected
// graphs and graphs whose diameter passes the radius, by one hop or by
// many, get nothing, and the diameter is the oracle's in every case.
func TestDiameterKeepsCompleteProfiles(t *testing.T) {
	// lollipop returns an unseeded clique-plus-path on n nodes with
	// diameter d (a path of d−1 nodes hangs off the clique).
	lollipop := func(n int, d int64) *graph.Graph {
		return uncached(t, graph.Lollipop(n-int(d)+1, int(d)-1))
	}
	r100 := int64(graph.ProfileRadius(100, -1)) // 38
	keep := map[string]*graph.Graph{
		"radius-exactly": lollipop(100, r100),
		"single":         graph.NewBuilder(1).Build(),
		"edge":           graph.Path(2),
		"path3":          graph.Path(3),
		"triangle":       graph.Cycle(3),
	}
	sizes := []int{64, 65, 576}
	if graph.RaceEnabled {
		sizes = sizes[:2]
	}
	for _, n := range sizes {
		for _, f := range []graph.Family{graph.FamilyRandom, graph.FamilyExpander} {
			g, err := graph.Build(f, n, rand.New(rand.NewSource(int64(n))))
			if err != nil {
				t.Fatal(err)
			}
			keep[fmt.Sprintf("%s/%d", f, n)] = g
		}
		keep[fmt.Sprintf("regular8/%d", n)] = graph.RandomRegular(n, 8, rand.New(rand.NewSource(3)))
	}
	drop := map[string]*graph.Graph{
		"radius-plus-one": lollipop(100, r100+1),
		"long-cycle":      uncached(t, graph.Cycle(300)),
		"empty":           graph.NewBuilder(0).Build(),
	}
	for name, g := range hopKernelGraphs(t) {
		if !g.Connected() {
			drop[name] = uncached(t, g)
		}
	}
	for name, g := range keep {
		for _, c := range []*graph.Graph{uncached(t, g)} {
			d := c.Diameter()
			if want := oracle.Diameter(g); d != want {
				t.Fatalf("%s: Diameter %d, oracle %d", name, d, want)
			}
			p := c.Profiles()
			if p == nil {
				t.Fatalf("%s (D = %d, n = %d): the diameter pass kept no profiles", name, d, c.N())
			}
			want := graph.EncodeProfiles(c.BallProfiles(graph.ProfileRadius(c.N(), d)))
			if !bytes.Equal(graph.EncodeProfiles(p), want) {
				t.Fatalf("%s: kept profiles differ from BallProfiles(ProfileRadius(n, D))", name)
			}
			if c.AttachedProfiles() != nil {
				t.Fatalf("%s: the diameter pass adopted its own profiles", name)
			}
			if c.AttachProfiles(c.BallProfiles(graph.ProfileRadius(c.N(), d))) != p || c.AttachedProfiles() != p {
				t.Fatalf("%s: AttachProfiles did not adopt the kept profiles", name)
			}
		}
	}
	for name, g := range drop {
		if d, want := g.Diameter(), oracle.Diameter(g); d != want {
			t.Fatalf("%s: Diameter %d, oracle %d", name, d, want)
		}
		if g.Profiles() != nil {
			t.Fatalf("%s (D = %d, radius %d): the diameter pass kept profiles", name, g.Diameter(), graph.ProfileRadius(g.N(), -1))
		}
	}
}
