//go:build !(armbe || arm64be || m68k || mips || mips64 || mips64p32 || ppc || ppc64 || s390 || s390x || sparc || sparc64)

package graph

// Views of a verified codec blob on little-endian hosts (DESIGN.md §9):
// the blob's bytes already are the arrays, so the decoders reinterpret
// them in place instead of copying them out. The big-endian build
// (blobview_be.go) converts into fresh arrays instead.

import "unsafe"

// aligned returns data itself when its first byte is 8-byte aligned,
// else one copy of it into a fresh 8-aligned buffer, so that every
// array of a codec payload (each at an offset that is a multiple of its
// element size) can be viewed in place.
func aligned(data []byte) []byte {
	if len(data) == 0 || uintptr(unsafe.Pointer(unsafe.SliceData(data)))%8 == 0 {
		return data
	}
	words := make([]uint64, (len(data)+7)/8)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(data))
	copy(buf, data)
	return buf
}

// int32s views b, little-endian and 4-byte aligned, as []int32.
func int32s(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/4)
}

// int64s views b, little-endian and 8-byte aligned, as []int64.
func int64s(b []byte) []int64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8)
}
