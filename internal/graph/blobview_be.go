//go:build armbe || arm64be || m68k || mips || mips64 || mips64p32 || ppc || ppc64 || s390 || s390x || sparc || sparc64

package graph

// The big-endian counterpart of blobview_le.go: a view of the
// little-endian codec bytes would misread every value here, so the
// decoders get byte-order-converting copies, which need no alignment.

import "encoding/binary"

// aligned returns data unchanged: the copies below read any alignment.
func aligned(data []byte) []byte { return data }

// int32s converts little-endian b into a fresh []int32.
func int32s(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// int64s converts little-endian b into a fresh []int64.
func int64s(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
