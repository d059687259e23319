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
// BenchmarkSweepResubmitReport measures the other end: a resubmitted
// default report whose every cell is a result-cache hit, so the sweep
// only looks rows up, decodes and renders them.
//
// BENCH_sweep.txt records one -count 5 run with the machine it ran on
// (README names the command).

import (
	"sync/atomic"
	"testing"

	"repro/internal/artifact"
	"repro/internal/experiments"
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
		if _, _, err := runner.Collect(&runner.Runner{Workers: 4, Graphs: cache}, sc); err != nil {
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
	if _, _, err := runner.Collect(&runner.Runner{Workers: 4, Graphs: gc}, sweepBenchScenario()); err != nil {
		b.Fatal(err)
	}
	runSweepBench(b, gc, false)
}

// BenchmarkSweepResubmitReport: the six default report scenarios (nq,
// table1–table4, figure1) at n = 576, seed 1, swept through
// experiments.Generate on one worker with an observer, against an
// in-memory result cache filled outside the timed region — every cell a
// hit. It is the sweep a warm hybridd runs per resubmission, without
// HTTP and sinks: cache keys, row decode, rendering and the assembled
// tables.
func BenchmarkSweepResubmitReport(b *testing.B) {
	scenarios := []string{"nq", "table1", "table2", "table3", "table4", "figure1"}
	cfg := experiments.ReportConfig{N: 576, Seed: 1}
	results := artifact.NewStore(0).Namespace("results")
	for _, name := range scenarios {
		if _, err := experiments.Generate(name, cfg, &runner.Runner{Workers: 2, Cache: results}); err != nil {
			b.Fatal(err)
		}
	}
	var cells, hits atomic.Int64
	r := &runner.Runner{Workers: 1, Cache: results, Observer: func(ev runner.CellEvent) {
		cells.Add(1)
		if ev.Cached {
			hits.Add(1)
		}
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range scenarios {
			if _, err := experiments.Generate(name, cfg, r); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if hits.Load() != cells.Load() {
		b.Fatalf("%d of %d cells were cache hits, want all", hits.Load(), cells.Load())
	}
}
