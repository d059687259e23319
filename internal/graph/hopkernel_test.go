package graph_test

// The 64-source hop kernel behind Diameter and BallProfiles is checked
// against per-source searches: the library's own BallSizes and
// Eccentricity, and the independent oracle diameter.

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
// diameter the kernel computes equals what per-source searches give,
// at truncation radii from 0 to n, including partial 64-source batches
// and disconnected graphs.
func TestHopKernelMatchesPerSourceBFS(t *testing.T) {
	for name, g := range hopKernelGraphs(t) {
		n := g.N()
		if want, got := oracle.Diameter(g), uncached(t, g).Diameter(); got != want {
			t.Fatalf("%s: Diameter %d, oracle %d", name, got, want)
		}
		ecc := make([]int64, n)
		for v := range ecc {
			ecc[v] = g.Eccentricity(v)
		}
		for _, maxR := range []int{0, 1, graph.ProfileRadius(n, g.Diameter()), n} {
			p := g.BallProfilesWorkers(maxR, 1)
			for v := 0; v < n; v++ {
				if e := p.Ecc(v); e != graph.EccUnknown && e != ecc[v] {
					t.Fatalf("%s maxR=%d: Ecc(%d)=%d, Eccentricity %d", name, maxR, v, e, ecc[v])
				}
				sizes := g.BallSizes(v, maxR)
				if p.Len(v) != len(sizes) {
					t.Fatalf("%s maxR=%d: Len(%d)=%d, BallSizes has %d entries", name, maxR, v, p.Len(v), len(sizes))
				}
				for tt, want := range sizes {
					if got := p.Size(v, tt); got != want {
						t.Fatalf("%s maxR=%d: Size(%d,%d)=%d, BallSizes %d", name, maxR, v, tt, got, want)
					}
				}
			}
			if !bytes.Equal(graph.EncodeProfiles(p), graph.EncodeProfiles(g.BallProfilesWorkers(maxR, 4))) {
				t.Fatalf("%s maxR=%d: profiles differ between 1 and 4 workers", name, maxR)
			}
		}
	}
}

// profilesGolden576 is the sha256 of the EncodeProfiles bytes of all
// families at n = 576 (Build seed 1, radius ProfileRadius), concatenated
// in Families order, as the per-node ball growth computed them before
// the hop kernel replaced it.
const profilesGolden576 = "51d5fa17fb8f36fa8505705ace49f091cfaa13422403f70dfabc5023242fb415"

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

// BenchmarkBallProfiles times the canonical profile artifact of each
// family at n = 4096 on one worker.
func BenchmarkBallProfiles(b *testing.B) {
	for _, f := range graph.Families() {
		g, err := graph.Build(f, 4096, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		r := graph.ProfileRadius(g.N(), g.Diameter())
		b.Run(string(f), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.BallProfilesWorkers(r, 1)
			}
		})
	}
}

// BenchmarkDiameter times an uncached Diameter of each family at
// n = 4096.
func BenchmarkDiameter(b *testing.B) {
	for _, f := range graph.Families() {
		g, err := graph.Build(f, 4096, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(f), func(b *testing.B) {
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
