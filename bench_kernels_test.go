package repro_test

// BenchmarkKernel* measures the parallel kernel layer (DESIGN.md §14)
// against the sequential traversals it replaced on large graphs:
//
//   - KernelBFS: the direction-optimizing (top-down/bottom-up) BFS
//     against the classic queue BFS — on low-diameter graphs the
//     bottom-up levels early-exit each unvisited node at its first
//     frontier parent instead of relaxing every frontier edge.
//   - KernelSSSP: the delta-stepping bucket kernel against the binary-
//     heap Dijkstra — O(1) bucket appends instead of O(log n) sift
//     chains per relaxation.
//
// The committed BENCH_kernels.json (regenerate with cmd/benchjson
// -table bench_kernels) records both against the sequential baseline,
// produced by running this file with REPRO_BENCH_KERNELS_SEQUENTIAL=1,
// which routes the benchmarks through local reimplementations of the
// replaced algorithms over the same CSR rows — so the recorded
// speedup is algorithmic, not a memory-layout artifact.

import (
	"math/rand"
	"os"
	"testing"

	"repro/internal/graph"
)

// kernelBenchN sizes the benchmark topology well above the kernelMinN
// routing threshold — the regime the kernels auto-select in.
const kernelBenchN = 1 << 17

// kernelBenchSequential reports baseline mode
// (REPRO_BENCH_KERNELS_SEQUENTIAL=1).
func kernelBenchSequential() bool {
	return os.Getenv("REPRO_BENCH_KERNELS_SEQUENTIAL") != ""
}

// kernelBFSGraph returns the BFS benchmark topology: a degree-32
// expander (union of random Hamiltonian cycles), the low-diameter
// wide-frontier shape where the bottom-up switch pays most — each
// unvisited node early-exits at its first frontier parent instead of
// the frontier relaxing all 32 of its edges.
func kernelBFSGraph() *graph.Graph {
	return graph.RandomRegular(kernelBenchN, 32, rand.New(rand.NewSource(11)))
}

// kernelSSSPGraph returns the SSSP benchmark topology: a sparse
// degree-4 expander with weights in [1, 1024]. Low degree keeps the
// heap baseline sift-dominated rather than edge-scan-dominated, and
// the wide weight range exercises the bucket ring across many
// non-empty slots — the regime delta-stepping is built for.
func kernelSSSPGraph() *graph.Graph {
	g := graph.RandomRegular(kernelBenchN, 4, rand.New(rand.NewSource(11)))
	return graph.RandomWeights(g, 1024, rand.New(rand.NewSource(12)))
}

// seqBFS is the classic queue BFS the direction-optimizing kernel
// replaced, over the same CSR rows.
func seqBFS(g *graph.Graph, src int) []int64 {
	n := g.N()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = graph.Inf
	}
	dist[src] = 0
	queue := make([]int32, 1, n)
	queue[0] = int32(src)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		dv := dist[v]
		row, _ := g.Row(int(v))
		for _, u := range row {
			if dist[u] == graph.Inf {
				dist[u] = dv + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// seqDijkstra is the binary-heap Dijkstra the delta-stepping kernel
// replaced on large graphs, over the same CSR rows.
func seqDijkstra(g *graph.Graph, src int) []int64 {
	n := g.N()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = graph.Inf
	}
	dist[src] = 0
	heapNode := make([]int32, 1, n)
	heapD := make([]int64, 1, n)
	heapNode[0], heapD[0] = int32(src), 0
	pop := func() (int32, int64) {
		v, d := heapNode[0], heapD[0]
		last := len(heapNode) - 1
		heapNode[0], heapD[0] = heapNode[last], heapD[last]
		heapNode, heapD = heapNode[:last], heapD[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < last && heapD[l] < heapD[small] {
				small = l
			}
			if r < last && heapD[r] < heapD[small] {
				small = r
			}
			if small == i {
				break
			}
			heapNode[i], heapNode[small] = heapNode[small], heapNode[i]
			heapD[i], heapD[small] = heapD[small], heapD[i]
			i = small
		}
		return v, d
	}
	push := func(v int32, d int64) {
		heapNode = append(heapNode, v)
		heapD = append(heapD, d)
		i := len(heapNode) - 1
		for i > 0 {
			p := (i - 1) / 2
			if heapD[p] <= heapD[i] {
				break
			}
			heapNode[i], heapNode[p] = heapNode[p], heapNode[i]
			heapD[i], heapD[p] = heapD[p], heapD[i]
			i = p
		}
	}
	for len(heapNode) > 0 {
		v, d := pop()
		if d > dist[v] {
			continue
		}
		row, rw := g.Row(int(v))
		for j, u := range row {
			if nd := d + rw[j]; nd < dist[u] {
				dist[u] = nd
				push(u, nd)
			}
		}
	}
	return dist
}

// BenchmarkKernelBFS: one full single-source BFS per iteration.
func BenchmarkKernelBFS(b *testing.B) {
	g := kernelBFSGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if kernelBenchSequential() {
			seqBFS(g, 0)
		} else {
			g.BFSWorkers(0, 8)
		}
	}
}

// BenchmarkKernelSSSP: one full weighted SSSP per iteration.
func BenchmarkKernelSSSP(b *testing.B) {
	g := kernelSSSPGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if kernelBenchSequential() {
			seqDijkstra(g, 0)
		} else {
			g.DeltaStepping(0, 8)
		}
	}
}
