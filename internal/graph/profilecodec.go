package graph

// The deterministic binary codec for ball-profile artifacts
// (DESIGN.md §10). Profiles are assembled in node order regardless of
// the kernel's worker count, so two computations over identical
// topology encode to identical bytes — which is what lets
// runner.ProfileCache persist them content-addressed through the
// artifact store next to the CSR topologies they derive from.

import (
	"encoding/binary"
	"fmt"
	"math"
)

// ProfilesCodecVersion names the profile wire format AND the canonical
// truncation policy (ProfileRadius and the ProfileStop at which every
// row ends). It is part of every encoded header and of
// runner.ProfileCache's content addresses; bump it when either changes
// so persisted artifacts are orphaned, not misread.
const ProfilesCodecVersion uint32 = 2

// profMagic starts every encoded profile artifact.
var profMagic = [4]byte{'H', 'P', 'R', 'F'}

// profHeaderLen is magic + version + n + maxR + stop + entries.
const profHeaderLen = 4 + 4 + 8 + 8 + 8 + 8

// EncodeProfiles serializes a Profiles artifact into the deterministic
// binary format: a fixed 40-byte header (magic, ProfilesCodecVersion,
// n, maxR, the stop K, entry count) followed by the little-endian
// rowStart (uint32) and ball-size (uint32) arrays, the rows in node
// order — each array 4-byte aligned in a blob that starts 8-byte
// aligned.
func EncodeProfiles(p *Profiles) []byte {
	n := p.n
	entries := int(p.rowStart[n])
	buf := make([]byte, profHeaderLen+4*(n+1)+4*entries)
	copy(buf, profMagic[:])
	binary.LittleEndian.PutUint32(buf[4:], ProfilesCodecVersion)
	binary.LittleEndian.PutUint64(buf[8:], uint64(n))
	binary.LittleEndian.PutUint64(buf[16:], uint64(p.maxR))
	binary.LittleEndian.PutUint64(buf[24:], uint64(p.stop))
	binary.LittleEndian.PutUint64(buf[32:], uint64(entries))
	off := profHeaderLen
	for _, v := range p.rowStart {
		binary.LittleEndian.PutUint32(buf[off:], uint32(v))
		off += 4
	}
	for _, rows := range p.chunks {
		for _, v := range rows {
			binary.LittleEndian.PutUint32(buf[off:], uint32(v))
			off += 4
		}
	}
	return buf
}

// DecodeProfiles parses an EncodeProfiles blob back into a Profiles
// artifact. Like DecodeCSR it views the blob's bytes in place on a
// little-endian host (after one aligned copy when data does not start
// 8-byte aligned; a big-endian host converts into fresh arrays), so
// the artifact retains data, which must never be modified afterwards
// (DESIGN.md §5). It revalidates the structural invariants — header
// shape, exact payload length, monotone row offsets, non-decreasing
// ball sizes starting at 1 and bounded by n, and every row ending
// exactly at its first end (|B_t| = n, one level after its frontier
// emptied, t·|B_t| ≥ K, or t = maxR) — so a corrupt or truncated blob
// returns an error rather than an artifact that violates the kernel's
// invariants or decides a k its rows do not. The row checks take one
// pass per row (rowValid); only a rejected row is walked again, to
// name its fault (rowError).
func DecodeProfiles(data []byte) (*Profiles, error) {
	if len(data) < profHeaderLen {
		return nil, fmt.Errorf("graph: profile codec: truncated header (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != profMagic {
		return nil, fmt.Errorf("graph: profile codec: bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != ProfilesCodecVersion {
		return nil, fmt.Errorf("graph: profile codec: version %d, want %d", v, ProfilesCodecVersion)
	}
	n64 := binary.LittleEndian.Uint64(data[8:])
	r64 := binary.LittleEndian.Uint64(data[16:])
	s64 := binary.LittleEndian.Uint64(data[24:])
	e64 := binary.LittleEndian.Uint64(data[32:])
	// Bounds before size arithmetic (int may be 32 bits): every
	// rowStart entry needs 4 payload bytes, and so does every size
	// entry. K is at least 9n, and t·|B_t| < 2^62 for any row.
	if n64 > math.MaxInt32 || e64 > math.MaxInt32 || r64 > math.MaxInt32 || s64 > 1<<62 ||
		n64 > uint64(len(data))/4 || e64 > uint64(len(data))/4 || s64 < 9*n64 {
		return nil, fmt.Errorf("graph: profile codec: implausible sizes n=%d maxR=%d stop=%d entries=%d for %d bytes", n64, r64, s64, e64, len(data))
	}
	n, maxR, stop, entries := int(n64), int(r64), int64(s64), int(e64)
	want := profHeaderLen + 4*(n+1) + 4*entries
	if len(data) != want {
		return nil, fmt.Errorf("graph: profile codec: payload is %d bytes, want %d for n=%d entries=%d", len(data), want, n, entries)
	}
	data = aligned(data)
	rowStart := int32s(data[profHeaderLen : profHeaderLen+4*(n+1)])
	sizes := int32s(data[profHeaderLen+4*(n+1):])
	if rowStart[0] != 0 || int(rowStart[n]) != entries {
		return nil, fmt.Errorf("graph: profile codec: row offsets span [%d,%d], want [0,%d]", rowStart[0], rowStart[n], entries)
	}
	// Monotone offsets from 0 to entries keep every row inside sizes;
	// check them all before any row is read.
	for v := 0; v < n; v++ {
		if rowStart[v] > rowStart[v+1] {
			return nil, fmt.Errorf("graph: profile codec: row offsets not monotone at node %d", v)
		}
	}
	for v := 0; v < n; v++ {
		row := sizes[rowStart[v]:rowStart[v+1]]
		if len(row) < 1 || len(row) > maxR+1 {
			return nil, fmt.Errorf("graph: profile codec: node %d has %d profile entries, want within [1,%d]", v, len(row), maxR+1)
		}
		if row[0] != 1 {
			return nil, fmt.Errorf("graph: profile codec: node %d profile starts at %d, want |B_0|=1", v, row[0])
		}
		if !rowValid(row, n, maxR, stop) {
			return nil, rowError(v, row, n)
		}
	}
	chunks := make([][]int32, (n+hopBatch-1)/hopBatch)
	for b := range chunks {
		chunks[b] = sizes[rowStart[b*hopBatch]:rowStart[min(b*hopBatch+hopBatch, n)]]
	}
	p := &Profiles{n: n, maxR: maxR, stop: stop, rowStart: rowStart, chunks: chunks}
	p.decide()
	return p, nil
}

// rowValid reports whether a row that starts at |B_0| = 1 and has at
// most maxR+1 entries is a ball-size sequence within [1,n] that ends
// exactly at its first end. The kernel ends a row at its first end and
// nowhere else: a row that ran past one would carry sizes its stop
// never vouched for, and one that ended early would masquerade its
// last size as final (Size repeats it) or decide a k it does not.
// Before its last entry a row must grow at every t, or the frontier
// emptied there; so it is strictly increasing from 1, every entry but
// the last is below n as soon as entry last−1 is, and t·|B_t| < stop
// holds at every such t as soon as it holds at last−1, since t·|B_t|
// strictly increases too. Entry t = 0 is no end when n > 1, which
// |B_{last−1}| < n implies (stop ≥ 9n is positive, and t < last ≤
// maxR). So one pass over the differences and O(1) checks at the two
// last entries decide the row.
func rowValid(row []int32, n, maxR int, stop int64) bool {
	last := len(row) - 1
	if last == 0 {
		return rowEnds(row, 0, n, maxR, stop)
	}
	// The sign bit of the OR of every difference minus one is set
	// exactly when some entry before the last fails to grow.
	var shrink int64
	prev := row[0]
	for _, size := range row[1:last] {
		shrink |= int64(size) - int64(prev) - 1
		prev = size
	}
	return shrink >= 0 && int(prev) < n && int64(last-1)*int64(prev) < stop &&
		row[last] >= prev && int(row[last]) <= n && rowEnds(row, last, n, maxR, stop)
}

// rowError names why node v's row, which starts at |B_0| = 1 and has
// at most maxR+1 entries, failed rowValid: a size that leaves [1,n] or
// shrinks, or else a row that does not end exactly at its first end.
func rowError(v int, row []int32, n int) error {
	for t := 1; t < len(row); t++ {
		if row[t] < row[t-1] || int(row[t]) > n {
			return fmt.Errorf("graph: profile codec: node %d profile not a monotone ball-size sequence within [1,%d]", v, n)
		}
	}
	return fmt.Errorf("graph: profile codec: node %d profile ends at t=%d, but its first end is elsewhere", v, len(row)-1)
}

// rowEnds reports whether the kernel ends a row at t: |B_t| = n, the
// size did not grow at t (the frontier emptied at t-1), t·|B_t| ≥ stop,
// or t = maxR.
func rowEnds(row []int32, t, n, maxR int, stop int64) bool {
	size := row[t]
	return int(size) == n || (t > 0 && row[t-1] == size) || int64(t)*int64(size) >= stop || t == maxR
}
