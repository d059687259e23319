package graph

// FuzzDecodeProfiles hardens the profile codec against arbitrary
// input: DecodeProfiles must never panic, and anything it accepts must
// re-encode to exactly the bytes it was decoded from.

import (
	"bytes"
	"math/rand"
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
	f.Add(offsetPastEntriesBlob())
	f.Add([]byte{})
	f.Add([]byte("HPRF"))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProfiles(data)
		if err != nil {
			return
		}
		for v := 0; v < p.N(); v++ {
			_ = p.Size(v, p.MaxR()+1)
		}
		if re := EncodeProfiles(p); !bytes.Equal(re, data) {
			t.Fatalf("codec is not a bijection: accepted %d bytes, re-encoded %d differing bytes", len(data), len(re))
		}
	})
}
