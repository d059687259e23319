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
// truncation policy (ProfileRadius). It is part of every encoded
// header and of runner.ProfileCache's content addresses; bump it when
// either changes so persisted artifacts are orphaned, not misread.
const ProfilesCodecVersion uint32 = 1

// profMagic starts every encoded profile artifact.
var profMagic = [4]byte{'H', 'P', 'R', 'F'}

// profHeaderLen is magic + version + n + maxR + entries.
const profHeaderLen = 4 + 4 + 8 + 8 + 8

// EncodeProfiles serializes a Profiles artifact into the deterministic
// binary format: a fixed header (magic, ProfilesCodecVersion, n, maxR,
// entry count) followed by the little-endian rowStart (uint32), sizes
// (uint32) and eccentricity (uint64 two's-complement int64) arrays.
func EncodeProfiles(p *Profiles) []byte {
	n := p.n
	entries := len(p.sizes)
	buf := make([]byte, profHeaderLen+4*(n+1)+4*entries+8*n)
	copy(buf, profMagic[:])
	binary.LittleEndian.PutUint32(buf[4:], ProfilesCodecVersion)
	binary.LittleEndian.PutUint64(buf[8:], uint64(n))
	binary.LittleEndian.PutUint64(buf[16:], uint64(p.maxR))
	binary.LittleEndian.PutUint64(buf[24:], uint64(entries))
	off := profHeaderLen
	for _, v := range p.rowStart {
		binary.LittleEndian.PutUint32(buf[off:], uint32(v))
		off += 4
	}
	for _, v := range p.sizes {
		binary.LittleEndian.PutUint32(buf[off:], uint32(v))
		off += 4
	}
	for _, e := range p.ecc {
		binary.LittleEndian.PutUint64(buf[off:], uint64(e))
		off += 8
	}
	return buf
}

// DecodeProfiles parses an EncodeProfiles blob back into a Profiles
// artifact, revalidating the structural invariants — header shape,
// exact payload length, monotone row offsets, per-row lengths within
// [1, maxR+1], non-decreasing ball sizes starting at 1 and bounded by
// n, and eccentricities that are EccUnknown, Inf, or within [0, maxR]
// — so a corrupt or truncated blob returns an error rather than an
// artifact that violates the kernel's invariants. The diameter is
// rederived from the eccentricities.
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
	e64 := binary.LittleEndian.Uint64(data[24:])
	// Bounds before size arithmetic (int may be 32 bits): every
	// rowStart entry needs 4 payload bytes, every size entry 4, every
	// eccentricity 8.
	if n64 > math.MaxInt32 || e64 > math.MaxInt32 || r64 > math.MaxInt32 ||
		n64 > uint64(len(data))/8 || e64 > uint64(len(data))/4 {
		return nil, fmt.Errorf("graph: profile codec: implausible sizes n=%d maxR=%d entries=%d for %d bytes", n64, r64, e64, len(data))
	}
	n, maxR, entries := int(n64), int(r64), int(e64)
	want := profHeaderLen + 4*(n+1) + 4*entries + 8*n
	if len(data) != want {
		return nil, fmt.Errorf("graph: profile codec: payload is %d bytes, want %d for n=%d entries=%d", len(data), want, n, entries)
	}
	p := &Profiles{
		n:        n,
		maxR:     maxR,
		rowStart: make([]int32, n+1),
		sizes:    make([]int32, entries),
		ecc:      make([]int64, n),
	}
	off := profHeaderLen
	for i := range p.rowStart {
		p.rowStart[i] = int32(binary.LittleEndian.Uint32(data[off:]))
		off += 4
	}
	for i := range p.sizes {
		p.sizes[i] = int32(binary.LittleEndian.Uint32(data[off:]))
		off += 4
	}
	for i := range p.ecc {
		p.ecc[i] = int64(binary.LittleEndian.Uint64(data[off:]))
		off += 8
	}
	if p.rowStart[0] != 0 || int(p.rowStart[n]) != entries {
		return nil, fmt.Errorf("graph: profile codec: row offsets span [%d,%d], want [0,%d]", p.rowStart[0], p.rowStart[n], entries)
	}
	// Monotone offsets from 0 to entries keep every row inside sizes;
	// check them all before any row is read.
	for v := 0; v < n; v++ {
		if p.rowStart[v] > p.rowStart[v+1] {
			return nil, fmt.Errorf("graph: profile codec: row offsets not monotone at node %d", v)
		}
	}
	for v := 0; v < n; v++ {
		lo, hi := p.rowStart[v], p.rowStart[v+1]
		rowLen := int(hi - lo)
		if rowLen < 1 || rowLen > maxR+1 {
			return nil, fmt.Errorf("graph: profile codec: node %d has %d profile entries, want within [1,%d]", v, rowLen, maxR+1)
		}
		if p.sizes[lo] != 1 {
			return nil, fmt.Errorf("graph: profile codec: node %d profile starts at %d, want |B_0|=1", v, p.sizes[lo])
		}
		for i := lo + 1; i < hi; i++ {
			if p.sizes[i] < p.sizes[i-1] || int(p.sizes[i]) > n {
				return nil, fmt.Errorf("graph: profile codec: node %d profile not a monotone ball-size sequence within [1,%d]", v, n)
			}
		}
		if e := p.ecc[v]; e != EccUnknown && e != Inf && (e < 0 || e > int64(maxR)) {
			return nil, fmt.Errorf("graph: profile codec: node %d eccentricity %d outside [0,%d]", v, e, maxR)
		}
		// Kernel invariant: a row shorter than maxR+1 means the search
		// exhausted, so its eccentricity must be known — without this a
		// corrupt blob could masquerade its truncated sizes as exact
		// (Size repeats the final entry for exhausted rows).
		if p.ecc[v] == EccUnknown && rowLen != maxR+1 {
			return nil, fmt.Errorf("graph: profile codec: node %d has unknown eccentricity but only %d/%d profile entries", v, rowLen, maxR+1)
		}
	}
	p.diam = 0
	for _, e := range p.ecc {
		if e == EccUnknown {
			p.diam = EccUnknown
			break
		}
		if e > p.diam {
			p.diam = e
		}
	}
	return p, nil
}
