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

func TestKernelsMatchOracleAllFamilies(t *testing.T) {
	for _, f := range graph.Families() {
		for _, n := range []int{33, 219} {
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
						for _, h := range []int{1, 3, g.N() - 1} {
							want := oracle.HopLimited(wg, src, h)
							if got := wg.HopLimitedDistancesWorkers(src, h, workers); !reflect.DeepEqual(got, want) {
								t.Fatalf("%s/n=%d/seed=%d/w=%d: HopLimited(%d,%d) differs from oracle", f, n, seed, workers, src, h)
							}
						}
					}

					// The parallel multi-source BFS promises byte-identity
					// with the sequential implementation, tie-break included.
					msDist, msNearest := g.MultiSourceBFSWorkers(srcs, workers)
					if !reflect.DeepEqual(msDist, seqDist) || !reflect.DeepEqual(msNearest, seqNearest) {
						t.Fatalf("%s/n=%d/seed=%d/w=%d: MultiSourceBFSWorkers differs from sequential", f, n, seed, workers)
					}

					// Multi-source delta-stepping: distance is the min over
					// sources, nearest the smallest index attaining it.
					wd, wn := wg.MultiSourceDeltaStepping(srcs, workers)
					for v := range wd {
						want := perSSSP[0][v]
						wantIdx := 0
						if perSSSP[1][v] < want {
							want, wantIdx = perSSSP[1][v], 1
						}
						if wd[v] != want {
							t.Fatalf("%s/n=%d/seed=%d/w=%d: ms-delta dist(%d)=%d, oracle min %d", f, n, seed, workers, v, wd[v], want)
						}
						if want >= graph.Inf {
							if wn[v] != -1 {
								t.Fatalf("%s/n=%d/seed=%d/w=%d: ms-delta nearest[%d]=%d for unreachable node", f, n, seed, workers, v, wn[v])
							}
							continue
						}
						if wn[v] != wantIdx {
							t.Fatalf("%s/n=%d/seed=%d/w=%d: ms-delta nearest[%d]=%d, want smallest index %d", f, n, seed, workers, v, wn[v], wantIdx)
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
		baseWD, baseWN := wg.MultiSourceDeltaStepping(srcs, 1)
		baseHop := wg.HopLimitedDistancesWorkers(0, 8, 1)
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
			if d, nr := wg.MultiSourceDeltaStepping(srcs, w); !reflect.DeepEqual(d, baseWD) || !reflect.DeepEqual(nr, baseWN) {
				t.Fatalf("%s: MultiSourceDeltaStepping diverges at %d workers", f, w)
			}
			if got := wg.HopLimitedDistancesWorkers(0, 8, w); !reflect.DeepEqual(got, baseHop) {
				t.Fatalf("%s: HopLimitedDistancesWorkers diverges at %d workers", f, w)
			}
		}
	}
}

// TestKernelAutoSelection crosses the n ≥ 2^15 routing threshold and
// checks the public entry points still agree with the sequential
// implementations they replace there.
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
		// The auto-selected hop-limited kernel is the strictly
		// synchronous one, so the oracle — not the shortcutting
		// sequential frontier — is the reference.
		if got, want := wg.HopLimitedDistances(4, 3), oracle.HopLimited(wg, 4, 3); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: auto-selected HopLimitedDistances differs from oracle", f)
		}
	}
}
