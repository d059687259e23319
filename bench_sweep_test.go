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
// BENCH_sweep.txt records one -count 5 run with the machine it ran on
// (README names the command).

import (
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
			g, err := c.BuildGraph()
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
