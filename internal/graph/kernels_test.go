package graph_test

// Differential certification of the parallel kernel layer (DESIGN.md
// §14): the direction-optimizing BFS, the delta-stepping SSSP and the
// synchronous hop-limited kernel against the independent oracle on
// every family, and byte-identity of every kernel across worker
// counts. Run under -race these suites double as the data-race proof
// of the sharding scheme.

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
)

// kernelWorkerSweep is the worker-count axis of the determinism suites.
func kernelWorkerSweep() []int {
	return []int{1, 2, runtime.GOMAXPROCS(0), 8}
}

// TestKernelsMatchOracleAllFamilies: on every family, BFSWorkers,
// DeltaStepping and the hop-limited Bellman–Ford equal the oracle, and
// MultiSourceBFSWorkers the sequential search. HopLimitedDistances and
// HopLimitedDistancesInto (into a vector holding stale values) must
// equal the oracle's full-sweep d^h byte for byte, weighted and unit,
// at every worker count of kernelWorkerSweep.
func TestKernelsMatchOracleAllFamilies(t *testing.T) {
	for _, f := range graph.Families() {
		for _, n := range []int{33, 219, 576} {
			for seed := int64(1); seed <= 3; seed++ {
				g, err := graph.Build(f, n, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("%s/n=%d/seed=%d: %v", f, n, seed, err)
				}
				wg := graph.RandomWeights(g, 50, rand.New(rand.NewSource(seed)))
				srcs := []int{0, g.N() - 1}
				seqDist, seqNearest := g.MultiSourceBFS(srcs)
				perBFS := make([][]int64, len(srcs))
				perSSSP := make([][]int64, len(srcs))
				for i, s := range srcs {
					perBFS[i] = oracle.BFS(g, s)
					perSSSP[i] = oracle.Dijkstra(wg, s)
				}
				for _, workers := range []int{1, 8} {
					for _, src := range srcs {
						if got := g.BFSWorkers(src, workers); !reflect.DeepEqual(got, perBFS[indexOf(srcs, src)]) {
							t.Fatalf("%s/n=%d/seed=%d/w=%d: BFSWorkers(%d) differs from oracle", f, n, seed, workers, src)
						}
						if got := wg.DeltaStepping(src, workers); !reflect.DeepEqual(got, perSSSP[indexOf(srcs, src)]) {
							t.Fatalf("%s/n=%d/seed=%d/w=%d: DeltaStepping(%d) differs from oracle", f, n, seed, workers, src)
						}
					}

					// The parallel multi-source BFS promises byte-identity
					// with the sequential implementation, tie-break included.
					msDist, msNearest := g.MultiSourceBFSWorkers(srcs, workers)
					if !reflect.DeepEqual(msDist, seqDist) || !reflect.DeepEqual(msNearest, seqNearest) {
						t.Fatalf("%s/n=%d/seed=%d/w=%d: MultiSourceBFSWorkers differs from sequential", f, n, seed, workers)
					}
				}

				for _, gg := range []*graph.Graph{g, wg} {
					for _, src := range srcs {
						for _, h := range []int{1, 3, 17, gg.N() - 1} {
							want := oracle.HopLimited(gg, src, h)
							if got := gg.HopLimitedDistances(src, h); !reflect.DeepEqual(got, want) {
								t.Fatalf("%s/n=%d/seed=%d/weighted=%v: HopLimitedDistances(%d,%d) differs from oracle", f, n, seed, gg.IsWeighted(), src, h)
							}
							for _, workers := range kernelWorkerSweep() {
								dist := make([]int64, gg.N())
								for i := range dist {
									dist[i] = int64(i) - 1
								}
								if got := graph.HopLimitedInto(gg, dist, src, h, workers); !reflect.DeepEqual(got, want) {
									t.Fatalf("%s/n=%d/seed=%d/weighted=%v/w=%d: HopLimitedDistancesInto(%d,%d) differs from oracle", f, n, seed, gg.IsWeighted(), workers, src, h)
								}
							}
						}
					}
				}
			}
		}
	}
}

func indexOf(srcs []int, s int) int {
	for i, v := range srcs {
		if v == s {
			return i
		}
	}
	return -1
}

// TestKernelWorkerCountInvariance pins the byte-identity guarantee:
// every kernel output at workers ∈ {1, 2, GOMAXPROCS, 8} equals the
// one-worker run exactly.
func TestKernelWorkerCountInvariance(t *testing.T) {
	for _, f := range []graph.Family{graph.FamilyExpander, graph.FamilyGrid2D, graph.FamilyRandom} {
		g, err := graph.Build(f, 2048, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		wg := graph.RandomWeights(g, 30, rand.New(rand.NewSource(5)))
		srcs := []int{3, g.N() / 2, g.N() - 1}

		baseBFS := g.BFSWorkers(0, 1)
		baseMSD, baseMSN := g.MultiSourceBFSWorkers(srcs, 1)
		baseDelta := wg.DeltaStepping(0, 1)
		baseHop := graph.HopLimitedInto(wg, make([]int64, wg.N()), 0, 8, 1)
		for _, w := range kernelWorkerSweep()[1:] {
			if got := g.BFSWorkers(0, w); !reflect.DeepEqual(got, baseBFS) {
				t.Fatalf("%s: BFSWorkers diverges at %d workers", f, w)
			}
			if d, nr := g.MultiSourceBFSWorkers(srcs, w); !reflect.DeepEqual(d, baseMSD) || !reflect.DeepEqual(nr, baseMSN) {
				t.Fatalf("%s: MultiSourceBFSWorkers diverges at %d workers", f, w)
			}
			if got := wg.DeltaStepping(0, w); !reflect.DeepEqual(got, baseDelta) {
				t.Fatalf("%s: DeltaStepping diverges at %d workers", f, w)
			}
			if got := graph.HopLimitedInto(wg, make([]int64, wg.N()), 0, 8, w); !reflect.DeepEqual(got, baseHop) {
				t.Fatalf("%s: HopLimitedDistancesInto diverges at %d workers", f, w)
			}
		}
	}
}

// TestKernelAutoSelection crosses the n ≥ 2^15 routing threshold and
// checks the public entry points still agree with the sequential
// implementations they replace there. The hop-limited kernel has no
// threshold; at this size its wide rounds shard, so it is checked
// against the oracle at every worker count, past the rounds whose
// frontiers exceed kernelGrain·workers.
func TestKernelAutoSelection(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n auto-selection suite")
	}
	// Path (frontier of one node: the top-down regime end to end) and
	// expander (low diameter, wide frontiers: the bottom-up regime);
	// FamilyRandom's generator is quadratic at this scale, so it stays
	// in the small-n differential suite.
	for _, f := range []graph.Family{graph.FamilyPath, graph.FamilyExpander} {
		g, err := graph.Build(f, 33000, rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := g.BFS(7), graph.BFSSequential(g, 7); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: auto-selected BFS differs from sequential", f)
		}
		srcs := []int{1, g.N() / 3, g.N() - 2}
		gd, gn := g.MultiSourceBFS(srcs)
		wd, wn := graph.MultiSourceBFSSequential(g, srcs)
		if !reflect.DeepEqual(gd, wd) || !reflect.DeepEqual(gn, wn) {
			t.Fatalf("%s: auto-selected MultiSourceBFS differs from sequential", f)
		}

		wg := graph.RandomWeights(g, 40, rand.New(rand.NewSource(3)))
		if got, want := wg.Dijkstra(7), graph.DijkstraHeap(wg, 7); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: auto-selected Dijkstra differs from heap Dijkstra", f)
		}
		if got, want := wg.HopLimitedDistances(4, 3), oracle.HopLimited(wg, 4, 3); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: HopLimitedDistances(4, 3) differs from oracle", f)
		}
		// h = 17 reaches the expander's wide rounds (tens of thousands
		// of improved nodes); at h = n−1 the result is the exact distance.
		hop17 := oracle.HopLimited(wg, 4, 17)
		exact := graph.DijkstraHeap(wg, 4)
		for _, workers := range kernelWorkerSweep() {
			dist := make([]int64, wg.N())
			if got := graph.HopLimitedInto(wg, dist, 4, 17, workers); !reflect.DeepEqual(got, hop17) {
				t.Fatalf("%s/w=%d: HopLimitedDistancesInto(4, 17) differs from oracle", f, workers)
			}
			if got := graph.HopLimitedInto(wg, dist, 4, wg.N()-1, workers); !reflect.DeepEqual(got, exact) {
				t.Fatalf("%s/w=%d: HopLimitedDistancesInto(4, n-1) differs from heap Dijkstra", f, workers)
			}
		}
	}
}

// BenchmarkHopLimited times HopLimitedDistances on the process worker
// budget over inputs that stay inline (the path's one-node rounds),
// shard from the first few rounds on (the degree-8 expanders) or grow
// slowly into wide rounds (the grid's diamonds).
func BenchmarkHopLimited(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	expander := graph.RandomRegular(1<<17, 8, rng)
	cases := []struct {
		name string
		g    *graph.Graph
		h    int
	}{
		{"expander8/weighted/n=2^17/h=16", graph.RandomWeights(expander, 100, rng), 16},
		{"expander8/unit/n=2^17/h=16", expander, 16},
		{"path/weighted/n=2^16/h=16", graph.RandomWeights(graph.Path(1<<16), 100, rng), 16},
		{"grid2d/weighted/n=2^16/h=256", graph.RandomWeights(graph.Grid2D(1<<8), 100, rng), 256},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.g.HopLimitedDistances(0, c.h)
			}
		})
	}
}
