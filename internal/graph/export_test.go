package graph

// The sequential traversals the public entry points run below
// kernelMinN, exposed so the external tests can compare them with the
// parallel kernels on graphs above the threshold.
var (
	KernelMinN               = kernelMinN
	BFSSequential            = (*Graph).bfsSequential
	MultiSourceBFSSequential = (*Graph).multiSourceBFSSequential
	DijkstraHeap             = (*Graph).dijkstraHeap
)
