package repro_test

// BenchmarkNQ* measures the batched NQ/ball-profile subsystem
// (DESIGN.md §10) against the sequential baseline it replaced — the
// PR-4-era nq.Of, which grew every node's full ball profile to the
// diameter for every single k:
//
//   - SingleKCold: one nq.Of on a profile-less graph — the early-exit
//     kernel (graph.BallReach) stops each ball at the Definition 3.1
//     condition instead of growing it to depth D.
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
// The committed BENCH_nq.json (regenerate with cmd/benchjson
// -table bench_nq) records all four against the sequential baseline,
// produced by running this file with REPRO_BENCH_NQ_SEQUENTIAL=1,
// which routes every benchmark through the full-growth implementation
// — the behaviour before the profile subsystem.

import (
	"os"
	"testing"

	"repro/internal/graph"
	"repro/internal/nq"
	"repro/internal/runner"
)

// nqBenchKs is the Theorem 15/16 workload grid of nqscaling-large.
var nqBenchKs = []int{16, 64, 256, 1024, 4096}

// nqBenchGraphs returns the benchmark topologies: the path (the
// diameter-dominated worst case of the sequential baseline) and the
// 2-d grid (the Theorem 16 shape), both at n = 1024.
func nqBenchGraphs() []*graph.Graph {
	return []*graph.Graph{
		graph.Path(1024),
		graph.Grid2D(32),
	}
}

// nqBenchSequential reports baseline mode (REPRO_BENCH_NQ_SEQUENTIAL=1).
func nqBenchSequential() bool {
	return os.Getenv("REPRO_BENCH_NQ_SEQUENTIAL") != ""
}

// seqNQ replicates the pre-profile nq.Of: every node grows its full
// ball profile to depth D (graph.BallSizes) and scans it linearly —
// once per call, with no cross-k reuse.
func seqNQ(g *graph.Graph, k int) int {
	d := int(g.Diameter())
	if d == 0 {
		d = 1
	}
	n := g.N()
	nqv := 0
	for v := 0; v < n; v++ {
		sizes := g.BallSizes(v, d)
		val := d
		for t := 1; t <= d; t++ {
			size := n
			if t < len(sizes) {
				size = sizes[t]
			}
			if int64(t)*int64(size) >= int64(k) {
				val = t
				break
			}
		}
		if val > nqv {
			nqv = val
		}
	}
	return nqv
}

// measuredNQ answers one k in the mode under measurement; g must carry
// a profile when profiled mode is intended.
func measuredNQ(b *testing.B, g *graph.Graph, k int) int {
	b.Helper()
	if nqBenchSequential() {
		return seqNQ(g, k)
	}
	q, err := nq.Of(g, k)
	if err != nil {
		b.Fatal(err)
	}
	return q
}

// BenchmarkNQSingleKCold: one workload on a profile-less graph — the
// early-exit kernel against the full-growth baseline.
func BenchmarkNQSingleKCold(b *testing.B) {
	graphs := nqBenchGraphs()
	for _, g := range graphs {
		g.Diameter() // warm the cached diameter in both modes
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			measuredNQ(b, g, 256)
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
			if !nqBenchSequential() {
				// Recompute the artifact each iteration: the cold cost.
				g.AttachProfiles(g.BallProfiles(graph.ProfileRadius(g.N(), g.Diameter())))
			}
			for _, k := range nqBenchKs {
				measuredNQ(b, g, k)
			}
		}
	}
}

// BenchmarkNQCrossKGridWarm: the workload grid answered from an
// attached profile (computed once, outside the timed region).
func BenchmarkNQCrossKGridWarm(b *testing.B) {
	graphs := nqBenchGraphs()
	for _, g := range graphs {
		if !nqBenchSequential() {
			g.AttachProfiles(g.BallProfiles(graph.ProfileRadius(g.N(), g.Diameter())))
		} else {
			g.Diameter()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			for _, k := range nqBenchKs {
				measuredNQ(b, g, k)
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
	if !nqBenchSequential() {
		pc.Attach(g, graph.FamilyGrid2D, 1024, 7) // prewarm
	} else {
		g.Diameter()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range nqBenchKs {
			if nqBenchSequential() {
				seqNQ(g, k)
				continue
			}
			pc.Attach(g, graph.FamilyGrid2D, 1024, 7)
			if _, err := nq.Of(g, k); err != nil {
				b.Fatal(err)
			}
		}
	}
}
