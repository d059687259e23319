package repro_test

// BenchmarkSweepGraphReuse* measures what the topology layer
// (runner.GraphCache, DESIGN.md §9) buys a sweep whose cells share
// graph instances across workload points — the Theorem 15/16 shape,
// where the per-cell cost is dominated by topology work (construction
// and the O(n·m) exact diameter) rather than the NQ_k measurement:
//
//   - Cold: a fresh cache per sweep — the first-submission cost, each
//     distinct (family, n, GraphSeed) built once, diameters computed
//     once per instance instead of once per point.
//   - Warm: a prewarmed shared cache — the resubmission / steady-state
//     serving cost, zero builds.
//
// The committed BENCH_sweep.json (regenerate with cmd/benchjson
// -table bench_sweep) records both against the rebuild-per-cell
// baseline, produced by running this file with
// REPRO_BENCH_NO_GRAPHCACHE=1, under which the scenario's Run calls
// graph.Build itself instead of Cell.BuildGraph, so every cell builds
// its own instance — the behaviour before the artifact layer.

import (
	"math/rand"
	"os"
	"testing"

	"repro/internal/graph"
	"repro/internal/nq"
	"repro/internal/runner"
)

// sweepBenchScenario is an nqscaling-shaped grid: topology-heavy cells
// sharing each (family, n) instance across four workload points.
func sweepBenchScenario() *runner.Scenario[int] {
	return &runner.Scenario[int]{
		Name:     "benchsweep",
		Families: []graph.Family{graph.FamilyPath, graph.FamilyGrid2D, graph.FamilyExpander},
		Ns:       []int{512},
		Points:   runner.PointsK([]int{16, 64, 256, 1024}),
		Run: func(c *runner.Cell) ([]int, error) {
			g, err := benchGraph(c)
			if err != nil {
				return nil, err
			}
			q, err := nq.Of(g, c.Point.K)
			if err != nil {
				return nil, err
			}
			return []int{q, int(g.Diameter())}, nil
		},
	}
}

// rebuildPerCell selects the rebuild-per-cell baseline mode
// (REPRO_BENCH_NO_GRAPHCACHE=1).
var rebuildPerCell = os.Getenv("REPRO_BENCH_NO_GRAPHCACHE") != ""

// benchGraph returns the cell's graph: the cached instance, or in the
// baseline mode one built for this cell alone.
func benchGraph(c *runner.Cell) (*graph.Graph, error) {
	if rebuildPerCell {
		return graph.Build(c.Family, c.N, rand.New(rand.NewSource(c.GraphSeed())))
	}
	return c.BuildGraph()
}

func runSweepBench(b *testing.B, gc *runner.GraphCache, freshPerIter bool) {
	b.Helper()
	sc := sweepBenchScenario()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := gc
		if freshPerIter {
			cache = runner.NewGraphCache(nil, 0)
		}
		if _, err := runner.Collect(&runner.Runner{Workers: 4, Graphs: cache}, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepGraphReuseCold: first submission — every distinct
// topology built exactly once, shared across its four points.
func BenchmarkSweepGraphReuseCold(b *testing.B) {
	runSweepBench(b, nil, true)
}

// BenchmarkSweepGraphReuseWarm: resubmission — the shared cache
// already holds every topology, so sweeps build zero graphs.
func BenchmarkSweepGraphReuseWarm(b *testing.B) {
	gc := runner.NewGraphCache(nil, 0)
	// Prewarm outside the timed region.
	if _, err := runner.Collect(&runner.Runner{Workers: 4, Graphs: gc}, sweepBenchScenario()); err != nil {
		b.Fatal(err)
	}
	runSweepBench(b, gc, false)
}
