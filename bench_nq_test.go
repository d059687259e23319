package repro_test

// BenchmarkNQ* measures the batched NQ/ball-profile subsystem
// (DESIGN.md §10):
//
//   - SingleKCold: one nq.Of on a profile-less graph — the early-exit
//     kernel (graph.BallReach) stops each ball at the Definition 3.1
//     condition.
//   - CrossKGridCold: an nqscaling-shaped workload grid on one graph,
//     including the batch-kernel profile computation — the cost of a
//     first-submission sweep cell group.
//   - CrossKGridWarm: the same grid answered from an already-attached
//     profile — the steady-state cost once the topology layer shares
//     the artifact across cells.
//   - ProfileCacheHit: the runner.ProfileCache serving path (attach
//     hit + profile-served nq.Of), the per-cell cost inside a warmed
//     sweep service.
//
// BENCH_nq.txt records one -count 5 run with the machine it ran on
// (README names the command).

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/nq"
	"repro/internal/runner"
)

// nqBenchKs is the Theorem 15/16 workload grid of nqscaling-large.
var nqBenchKs = []int{16, 64, 256, 1024, 4096}

// nqBenchGraphs returns the benchmark topologies: the path (the
// diameter-dominated shape) and the 2-d grid (the Theorem 16 shape),
// both at n = 1024.
func nqBenchGraphs() []*graph.Graph {
	return []*graph.Graph{
		graph.Path(1024),
		graph.Grid2D(32),
	}
}

// benchNQ answers one k through nq.Of; g carries a profile when the
// benchmark attached one.
func benchNQ(b *testing.B, g *graph.Graph, k int) {
	if _, err := nq.Of(g, k); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkNQSingleKCold: one workload on a profile-less graph — the
// early-exit kernel.
func BenchmarkNQSingleKCold(b *testing.B) {
	graphs := nqBenchGraphs()
	for _, g := range graphs {
		g.Diameter() // warm the cached diameter
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			benchNQ(b, g, 256)
		}
	}
}

// BenchmarkNQCrossKGridCold: the full workload grid including the
// profile computation — the batch kernel runs every iteration (the
// attach is a no-op upgrade, so the grid still answers from the fresh
// artifact), putting the kernel's cost inside the timed region.
func BenchmarkNQCrossKGridCold(b *testing.B) {
	graphs := nqBenchGraphs()
	for _, g := range graphs {
		g.Diameter()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			// Recompute the artifact each iteration: the cold cost.
			g.AttachProfiles(g.BallProfiles(graph.ProfileRadius(g.N(), g.Diameter())))
			for _, k := range nqBenchKs {
				benchNQ(b, g, k)
			}
		}
	}
}

// BenchmarkNQCrossKGridWarm: the workload grid answered from an
// attached profile (computed once, outside the timed region).
func BenchmarkNQCrossKGridWarm(b *testing.B) {
	graphs := nqBenchGraphs()
	for _, g := range graphs {
		g.AttachProfiles(g.BallProfiles(graph.ProfileRadius(g.N(), g.Diameter())))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			for _, k := range nqBenchKs {
				benchNQ(b, g, k)
			}
		}
	}
}

// BenchmarkNQProfileCacheHit: the warmed serving path of the sweep
// service — a ProfileCache attach hit followed by a profile-served
// query, per workload point.
func BenchmarkNQProfileCacheHit(b *testing.B) {
	gc := runner.NewGraphCache(nil, 0)
	pc := runner.NewProfileCache(nil, 0)
	g, err := gc.Get(graph.FamilyGrid2D, 1024, 7)
	if err != nil {
		b.Fatal(err)
	}
	pc.Attach(g, graph.FamilyGrid2D, 1024, 7) // prewarm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range nqBenchKs {
			pc.Attach(g, graph.FamilyGrid2D, 1024, 7)
			benchNQ(b, g, k)
		}
	}
}
