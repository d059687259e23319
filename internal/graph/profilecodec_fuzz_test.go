package graph

// FuzzDecodeProfiles hardens the profile codec against arbitrary
// input: DecodeProfiles must never panic, must accept and reject what
// refDecodeProfiles (its checks before the one-pass row check) does
// with the same error text, and anything it accepts must re-encode to
// exactly the bytes it was decoded from. Its seeds include rows that
// stop at K short of every other end, and blobs whose rows end one
// entry late or early, or of the previous version. A misaligned copy
// of the input must decode the same way.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func FuzzDecodeProfiles(f *testing.F) {
	twoComponents := NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}} {
		twoComponents.mustAddEdge(e[0], e[1], 1)
	}
	for _, g := range []*Graph{Path(20), RandomRegular(32, 4, rand.New(rand.NewSource(3))), twoComponents.Build()} {
		for _, maxR := range []int{2, ProfileRadius(g.N(), g.Diameter())} {
			blob := EncodeProfiles(g.BallProfiles(maxR))
			f.Add(blob)
			f.Add(blob[:len(blob)/2])
		}
	}
	// Rows that stop at K = 9n: a long path's and a long cycle's.
	for _, g := range []*Graph{Path(150), Cycle(200)} {
		p := g.BallProfiles(ProfileRadius(g.N(), g.Diameter()))
		rows := profileRows(p)
		f.Add(EncodeProfiles(p))
		f.Add(v1ProfileBlob(p))
		late := append(slices.Clone(rows[0]), rows[0][len(rows[0])-1]+1)
		f.Add(profileBlob(p.n, p.maxR, p.stop, append([][]int32{late}, rows[1:]...)))
		early := rows[0][:len(rows[0])-1]
		f.Add(profileBlob(p.n, p.maxR, p.stop, append([][]int32{early}, rows[1:]...)))
	}
	for _, blob := range shortcutBlobs() {
		f.Add(blob)
	}
	f.Add(offsetPastEntriesBlob())
	f.Add([]byte{})
	f.Add([]byte("HPRF"))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProfiles(AlignedCopy(data))
		if ref := errText(refDecodeProfiles(data)); errText(err) != ref {
			t.Fatalf("DecodeProfiles error %q, reference %q", errText(err), ref)
		}
		mp, merr := DecodeProfiles(MisalignedCopy(data))
		if (err == nil) != (merr == nil) || err != nil && err.Error() != merr.Error() {
			t.Fatalf("misaligned input decodes differently: %v, aligned %v", merr, err)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeProfiles(mp), EncodeProfiles(p)) {
			t.Fatal("misaligned input decodes to a different artifact")
		}
		for v := 0; v < p.N(); v++ {
			_ = p.Size(v, p.maxR+1)
		}
		if re := EncodeProfiles(p); !bytes.Equal(re, data) {
			t.Fatalf("codec is not a bijection: accepted %d bytes, re-encoded %d differing bytes", len(data), len(re))
		}
	})
}

// refDecodeProfiles is the differential reference: DecodeProfiles's
// checks as they were before rowValid, one loop over every entry of a
// row for its sizes and one calling rowEnds at every t, returning
// only the error.
func refDecodeProfiles(data []byte) error {
	if len(data) < profHeaderLen {
		return fmt.Errorf("graph: profile codec: truncated header (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != profMagic {
		return fmt.Errorf("graph: profile codec: bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != ProfilesCodecVersion {
		return fmt.Errorf("graph: profile codec: version %d, want %d", v, ProfilesCodecVersion)
	}
	n64 := binary.LittleEndian.Uint64(data[8:])
	r64 := binary.LittleEndian.Uint64(data[16:])
	s64 := binary.LittleEndian.Uint64(data[24:])
	e64 := binary.LittleEndian.Uint64(data[32:])
	if n64 > math.MaxInt32 || e64 > math.MaxInt32 || r64 > math.MaxInt32 || s64 > 1<<62 ||
		n64 > uint64(len(data))/4 || e64 > uint64(len(data))/4 || s64 < 9*n64 {
		return fmt.Errorf("graph: profile codec: implausible sizes n=%d maxR=%d stop=%d entries=%d for %d bytes", n64, r64, s64, e64, len(data))
	}
	n, maxR, stop, entries := int(n64), int(r64), int64(s64), int(e64)
	want := profHeaderLen + 4*(n+1) + 4*entries
	if len(data) != want {
		return fmt.Errorf("graph: profile codec: payload is %d bytes, want %d for n=%d entries=%d", len(data), want, n, entries)
	}
	rowStart := make([]int32, n+1)
	for i := range rowStart {
		rowStart[i] = int32(binary.LittleEndian.Uint32(data[profHeaderLen+4*i:]))
	}
	sizes := make([]int32, entries)
	for i := range sizes {
		sizes[i] = int32(binary.LittleEndian.Uint32(data[profHeaderLen+4*(n+1)+4*i:]))
	}
	if rowStart[0] != 0 || int(rowStart[n]) != entries {
		return fmt.Errorf("graph: profile codec: row offsets span [%d,%d], want [0,%d]", rowStart[0], rowStart[n], entries)
	}
	for v := 0; v < n; v++ {
		if rowStart[v] > rowStart[v+1] {
			return fmt.Errorf("graph: profile codec: row offsets not monotone at node %d", v)
		}
	}
	for v := 0; v < n; v++ {
		row := sizes[rowStart[v]:rowStart[v+1]]
		if len(row) < 1 || len(row) > maxR+1 {
			return fmt.Errorf("graph: profile codec: node %d has %d profile entries, want within [1,%d]", v, len(row), maxR+1)
		}
		if row[0] != 1 {
			return fmt.Errorf("graph: profile codec: node %d profile starts at %d, want |B_0|=1", v, row[0])
		}
		for t := 1; t < len(row); t++ {
			if row[t] < row[t-1] || int(row[t]) > n {
				return fmt.Errorf("graph: profile codec: node %d profile not a monotone ball-size sequence within [1,%d]", v, n)
			}
		}
		for t := range row {
			if last := t == len(row)-1; rowEnds(row, t, n, maxR, stop) != last {
				return fmt.Errorf("graph: profile codec: node %d profile ends at t=%d, but its first end is elsewhere", v, len(row)-1)
			}
		}
	}
	return nil
}

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
