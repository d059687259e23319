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

// HopLimitedInto is HopLimitedDistancesInto with an explicit worker
// count in place of MaxKernelWorkers, for the worker-sweep tests.
var HopLimitedInto = (*Graph).hopLimitedInto

// ForceHopDirection makes every hop-kernel level push (pull false) or
// pull (pull true) until the returned restore runs, so a test can check
// each direction on its own against per-source searches.
func ForceHopDirection(pull bool) (restore func()) {
	hopDirectionOverride = func() bool { return pull }
	return func() { hopDirectionOverride = nil }
}

// RaceEnabled is raceEnabled for the external tests.
const RaceEnabled = raceEnabled

// The profile tests' references, for the external tests: BallSizes
// rows cut at the stop, and the hop kernel's eccentricities.
var (
	StopRow              = stopRow
	KernelEccentricities = kernelEccentricities
)

// EccUnknown is eccUnknown for the external tests.
const EccUnknown = eccUnknown
