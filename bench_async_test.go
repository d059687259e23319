package repro_test

// BenchmarkAsync* measures the asynchronous backend (DESIGN.md §13) on
// its two regimes:
//
//   - DisseminateDense: n-token dissemination on an expander, the
//     payload-heavy workload; the trace folds a 64-bit fingerprint per
//     Set payload.
//   - BFSFaultFree: hop-distance flooding with small payloads; the
//     transport answers fault-free sends analytically without touching
//     per-pair state.
//
// BENCH_async.txt records one -count 5 run with the machine it ran on
// (README names the command).

import (
	"math/rand"
	"testing"

	"repro/internal/async"
	"repro/internal/graph"
)

// BenchmarkAsyncDisseminateDense: every node starts with one token, so
// k = n and every delivered gossip message carries an n-bit set — the
// payload-fold-dominated regime.
func BenchmarkAsyncDisseminateDense(b *testing.B) {
	g, err := graph.Build(graph.FamilyExpander, 768, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	tokensAt := make([]int, g.N())
	for v := range tokensAt {
		tokensAt[v] = 1
	}
	opt := async.Options{Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sets, _, err := async.Disseminate(g, tokensAt, opt)
		if err != nil {
			b.Fatal(err)
		}
		if sets[0].Count() != g.N() {
			b.Fatal("incomplete dissemination")
		}
	}
}

// BenchmarkAsyncBFSFaultFree: hop-distance flooding with word-sized
// payloads — the transport-dominated regime, where the analytic
// fault-free send path skips the per-pair attempt machinery.
func BenchmarkAsyncBFSFaultFree(b *testing.B) {
	g := asyncBFSGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		asyncBFS(b, g)
	}
}

// asyncBFSGraph is the 2048-node expander of BenchmarkAsyncBFSFaultFree
// and TestCoreAsyncAllocBudget.
func asyncBFSGraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	g, err := graph.Build(graph.FamilyExpander, 2048, rand.New(rand.NewSource(2)))
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// asyncBFS runs the fault-free flood from node 0 and checks it reached
// every node.
func asyncBFS(tb testing.TB, g *graph.Graph) {
	tb.Helper()
	dist, _, err := async.BFS(g, 0, async.Options{Seed: 2})
	if err != nil {
		tb.Fatal(err)
	}
	if dist[g.N()-1] >= graph.Inf {
		tb.Fatal("unreachable node")
	}
}
