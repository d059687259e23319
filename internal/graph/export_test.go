package graph

import (
	"encoding/binary"
	"unsafe"
)

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

// CSRArrays returns g's CSR arrays and ProfileArrays p's row offsets
// and row storage, for the zero-copy decode tests, which decode copies
// of a blob made by AlignedCopy (first byte 8-byte aligned) and
// MisalignedCopy (first byte not).
func CSRArrays(g *Graph) (rowStart, to []int32, w []int64) { return g.rowStart, g.to, g.w }

func ProfileArrays(p *Profiles) (rowStart []int32, chunks [][]int32) { return p.rowStart, p.chunks }

func AlignedCopy(b []byte) []byte {
	words := make([]uint64, (len(b)+7)/8)
	out := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(b))
	copy(out, b)
	return out
}

func MisalignedCopy(b []byte) []byte { return append([]byte{0}, b...)[1:] }

// UnmatchedAgrees reports, for a blob DecodeCSR rejects as asymmetric
// (so every check before the symmetry check passed), whether
// unmatchedHalfEdge names the edge sortUnmatched names on its arrays.
func UnmatchedAgrees(data []byte) bool {
	n, h := int(binary.LittleEndian.Uint64(data[8:])), int(binary.LittleEndian.Uint64(data[16:]))
	data = aligned(data)
	rows := csrHeaderLen + 8*h
	g := &Graph{
		w:        int64s(data[csrHeaderLen:rows]),
		rowStart: int32s(data[rows : rows+4*(n+1)]),
		to:       int32s(data[rows+4*(n+1):]),
	}
	u, v, w, ok := g.unmatchedHalfEdge()
	su, sv, sw, sok := sortUnmatched(g)
	return u == su && v == sv && w == sw && ok == sok
}
