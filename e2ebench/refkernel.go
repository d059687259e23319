package main

// The reference kernel is a fixed piece of work in the benchmark's own
// code, run before every timed phase. The host of the machine this
// benchmark was built on changes the guest's speed by up to half again
// within minutes, in CPU time as well as in wall time, as its load
// comes and goes. The end-to-end times are therefore reported in
// reference seconds: the measured CPU time, scaled by refKernelS over
// the kernel's median CPU time in the same run. A change to the program
// moves them in full; a change of the machine's speed moves the kernel
// alike and cancels. The kernel calls nothing of the program, so no
// change to the program moves it.
//
// The kernel is breadth-first search from refSources sources over a
// fixed sparse graph of refNodes nodes, allocating its distance vector
// and queue per source, which is the shape of the work that dominates
// the passes (diameters, ball profiles and the simulators' BFS).

import "runtime"

const (
	refNodes   = 4096
	refDegree  = 6
	refSources = 150
	// refKernelS is the kernel's nominal CPU time: a time in reference
	// seconds is what the phase would take on a machine on which the
	// kernel takes this long.
	refKernelS = 0.025
)

// refOff and refAdj are the kernel's graph in CSR form: a ring plus
// refDegree-2 pseudo-random arcs per node, the same on every run.
var refOff, refAdj = func() ([]int32, []int32) {
	off := make([]int32, refNodes+1)
	adj := make([]int32, 0, refNodes*refDegree)
	x := uint64(88172645463325252)
	for v := 0; v < refNodes; v++ {
		adj = append(adj, int32((v+1)%refNodes), int32((v+refNodes-1)%refNodes))
		for j := 2; j < refDegree; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			adj = append(adj, int32(x%refNodes))
		}
		off[v+1] = int32(len(adj))
	}
	return off, adj
}()

var refSink int64

// refKernel runs the kernel once, from a collected heap, and returns
// the CPU seconds it took.
func refKernel() float64 {
	runtime.GC()
	c0 := cpuSeconds()
	for s := 0; s < refSources; s++ {
		dist := make([]int64, refNodes)
		for i := range dist {
			dist[i] = -1
		}
		queue := make([]int32, 1, refNodes)
		queue[0] = int32(s)
		dist[s] = 0
		for h := 0; h < len(queue); h++ {
			v := queue[h]
			for _, w := range refAdj[refOff[v]:refOff[v+1]] {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
			}
		}
		refSink += dist[refNodes-1]
	}
	return cpuSeconds() - c0
}
