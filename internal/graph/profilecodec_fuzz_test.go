package graph

// FuzzDecodeProfiles hardens the profile codec against arbitrary
// input: DecodeProfiles must never panic, and anything it accepts must
// re-encode to exactly the bytes it was decoded from. Its seeds include
// rows that stop at K short of every other end, and blobs whose rows
// end one entry late or early, or of the previous version. A
// misaligned copy of the input must decode the same way.

import (
	"bytes"
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
	f.Add(offsetPastEntriesBlob())
	f.Add([]byte{})
	f.Add([]byte("HPRF"))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProfiles(AlignedCopy(data))
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
