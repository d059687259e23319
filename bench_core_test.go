package repro_test

// BenchmarkCore* is the simulation-core suite: the engine round loop
// (TickLocal + SendGlobal schedule building), the per-round primitives,
// and the CSR graph kernels, each on a fixed 1024-node instance. The
// committed BENCH_core.json records the pre-refactor baseline next to
// the post-refactor numbers (regenerate with cmd/benchjson); the
// allocation guarantees are pinned by TestCoreRoundLoopAllocationFree
// in alloc_guard_test.go, which runs as a normal test.

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/hybrid"
)

const coreN = 1024

func coreExpander() *graph.Graph {
	return graph.RandomRegular(coreN, 4, rand.New(rand.NewSource(7)))
}

func coreGrid() *graph.Graph { return graph.Grid2D(32) }

func coreNet(b *testing.B, g *graph.Graph, cfg hybrid.Config) *hybrid.Net {
	b.Helper()
	net, err := hybrid.New(g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return net
}

// coreMsgs is a sparse global round: 64 single-word messages.
func coreMsgs() []hybrid.Msg {
	msgs := make([]hybrid.Msg, 64)
	for i := range msgs {
		msgs[i] = hybrid.Msg{From: (i * 16) % coreN, To: (i*16 + 1) % coreN}
	}
	return msgs
}

func BenchmarkCoreRoundLoop(b *testing.B) {
	net := coreNet(b, coreExpander(), hybrid.Config{})
	msgs := coreMsgs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.TickLocal("core/round", 1)
		if _, err := net.SendGlobal("core/round", msgs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreSendGlobalDense(b *testing.B) {
	net := coreNet(b, coreExpander(), hybrid.Config{})
	msgs := make([]hybrid.Msg, coreN)
	for i := range msgs {
		msgs[i] = hybrid.Msg{From: i, To: (i + 1) % coreN}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.SendGlobal("core/dense", msgs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreDeliverOneRound(b *testing.B) {
	net := coreNet(b, coreExpander(), hybrid.Config{})
	msgs := coreMsgs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.DeliverOneRound("core/deliver", msgs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreSendLocal sends one word across 64 grid edges per round
// under unbounded λ (the HYBRID default).
func BenchmarkCoreSendLocal(b *testing.B) {
	g := coreGrid()
	net := coreNet(b, g, hybrid.Config{})
	msgs := make([]hybrid.Msg, 64)
	for i := range msgs {
		v := (i * 13) % (coreN - 32)
		msgs[i] = hybrid.Msg{From: v, To: v + 32} // grid column neighbors
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.SendLocal("core/local", msgs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreSendLocalCongest is the same batch under λ = 1 (CONGEST),
// exercising the per-edge load accounting.
func BenchmarkCoreSendLocalCongest(b *testing.B) {
	g := coreGrid()
	net := coreNet(b, g, hybrid.Config{LocalWordCap: 1})
	msgs := make([]hybrid.Msg, 64)
	for i := range msgs {
		v := (i * 13) % (coreN - 32)
		msgs[i] = hybrid.Msg{From: v, To: v + 32}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.SendLocal("core/congest", msgs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreLoadRounds(b *testing.B) {
	net := coreNet(b, coreExpander(), hybrid.Config{})
	out := make([]int, coreN)
	in := make([]int, coreN)
	for i := range out {
		out[i] = i % 7
		in[i] = (i * 3) % 11
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.LoadRounds("core/load", out, in)
	}
}

func BenchmarkCoreBFS(b *testing.B) {
	g := coreGrid()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFS(0)
	}
}

func BenchmarkCoreDijkstra(b *testing.B) {
	g := graph.RandomWeights(coreExpander(), 100, rand.New(rand.NewSource(9)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Dijkstra(0)
	}
}

func BenchmarkCoreHopLimited(b *testing.B) {
	g := coreGrid()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HopLimitedDistances(0, 16)
	}
}

func BenchmarkCoreBallSizes(b *testing.B) {
	g := coreGrid()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BallSizes(0, 16)
	}
}
