package graph

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// TestProfilesMatchBallSizes: the batch kernel must agree entrywise
// with the incremental BallSizes it batches, including the truncation
// semantics (entries past the stored row repeat the final value).
func TestProfilesMatchBallSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	graphs := map[string]*Graph{
		"path":   Path(40),
		"grid":   Grid(6, 2),
		"random": RandomConnected(35, 0.1, rng),
	}
	for name, g := range graphs {
		for _, maxR := range []int{0, 1, 3, g.N()} {
			p := g.BallProfiles(maxR)
			if p.N() != g.N() || p.maxR != maxR {
				t.Fatalf("%s maxR=%d: shape n=%d maxR=%d", name, maxR, p.N(), p.maxR)
			}
			for v := 0; v < g.N(); v++ {
				sizes := g.BallSizes(v, maxR)
				if p.Len(v) != len(sizes) {
					t.Fatalf("%s maxR=%d v=%d: profile len %d, BallSizes len %d", name, maxR, v, p.Len(v), len(sizes))
				}
				for tt := 0; tt <= maxR; tt++ {
					want := sizes[len(sizes)-1]
					if tt < len(sizes) {
						want = sizes[tt]
					}
					if got := p.Size(v, tt); got != want {
						t.Fatalf("%s maxR=%d: |B_%d(%d)|=%d, BallSizes %d", name, maxR, tt, v, got, want)
					}
				}
			}
		}
	}
}

// TestProfilesEccentricities: full-depth profiles report exact
// eccentricities (Inf on disconnected graphs), truncated ones mark the
// cut-off nodes EccUnknown and withhold the diameter.
func TestProfilesEccentricities(t *testing.T) {
	g := Path(30)
	full := g.BallProfiles(g.N())
	for v := 0; v < g.N(); v++ {
		if want := g.Eccentricity(v); full.Eccentricities()[v] != want {
			t.Fatalf("ecc(%d)=%d, want %d", v, full.Eccentricities()[v], want)
		}
	}
	if d, ok := full.Diameter(); !ok || d != g.Diameter() {
		t.Fatalf("full diameter (%d,%v), want (%d,true)", d, ok, g.Diameter())
	}
	if !full.Complete() {
		t.Fatal("full-depth path profile not complete")
	}

	trunc := g.BallProfiles(3)
	if trunc.Complete() {
		t.Fatal("radius-3 profile of a 30-path cannot be complete")
	}
	if _, ok := trunc.Diameter(); ok {
		t.Fatal("truncated profile reported a diameter")
	}
	if trunc.Eccentricities()[0] != EccUnknown {
		t.Fatalf("endpoint ecc %d, want EccUnknown", trunc.Eccentricities()[0])
	}
	if !trunc.Covers(3) || trunc.Covers(4) {
		t.Fatal("Covers disagrees with the truncation radius")
	}

	disc := NewBuilder(4)
	disc.mustAddEdge(0, 1, 1)
	disc.mustAddEdge(2, 3, 1)
	p := disc.Build().BallProfiles(10)
	for v := 0; v < 4; v++ {
		if p.Eccentricities()[v] != Inf {
			t.Fatalf("disconnected ecc(%d)=%d, want Inf", v, p.Eccentricities()[v])
		}
	}
	if d, ok := p.Diameter(); !ok || d != Inf {
		t.Fatalf("disconnected diameter (%d,%v), want (Inf,true)", d, ok)
	}
}

// TestAttachProfiles: attachment keeps the deepest artifact.
func TestAttachProfiles(t *testing.T) {
	g := Cycle(20)
	shallow := g.BallProfiles(2)
	deep := g.BallProfiles(5)
	if got := g.AttachProfiles(shallow); got != shallow || g.Profiles() != shallow {
		t.Fatal("first attach did not win")
	}
	if got := g.AttachProfiles(deep); got != deep || g.Profiles() != deep {
		t.Fatal("deeper artifact did not replace the shallow one")
	}
	if got := g.AttachProfiles(shallow); got != deep || g.Profiles() != deep {
		t.Fatal("shallow artifact displaced a deeper one")
	}
	full := g.BallProfiles(g.N())
	g.AttachProfiles(full)
	if got := g.AttachProfiles(deep); got != full {
		t.Fatal("truncated artifact displaced a complete one")
	}
}

// TestBallReach: the early-exit kernel must return exactly the radius
// a BallSizes scan resolves, across radii, needs, and stall regimes.
func TestBallReach(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	graphs := []*Graph{Path(25), Grid(5, 2), Star(12), RandomConnected(30, 0.1, rng)}
	for gi, g := range graphs {
		n := g.N()
		for v := 0; v < n; v++ {
			for _, need := range []int64{1, 2, 7, int64(n), 5 * int64(n)} {
				for _, maxT := range []int{1, 3, n} {
					sizes := g.BallSizes(v, maxT)
					wantT, wantOK := 0, false
					for tt := 1; tt <= maxT; tt++ {
						size := sizes[len(sizes)-1]
						if tt < len(sizes) {
							size = sizes[tt]
						}
						if int64(tt)*int64(size) >= need {
							wantT, wantOK = tt, true
							break
						}
					}
					gotT, gotSize, gotOK := g.BallReach(v, maxT, need)
					if gotOK != wantOK || gotT != wantT {
						t.Fatalf("graph %d v=%d need=%d maxT=%d: BallReach=(%d,%v), scan=(%d,%v)",
							gi, v, need, maxT, gotT, gotOK, wantT, wantOK)
					}
					if gotOK {
						wantSize := sizes[len(sizes)-1]
						if gotT < len(sizes) {
							wantSize = sizes[gotT]
						}
						if gotSize != wantSize {
							t.Fatalf("graph %d v=%d need=%d maxT=%d: size %d, want %d", gi, v, need, maxT, gotSize, wantSize)
						}
					}
				}
			}
		}
	}
	if _, _, ok := Path(5).BallReach(-1, 3, 1); ok {
		t.Fatal("out-of-range node reached")
	}
	if _, _, ok := Path(5).BallReach(0, 0, 1); ok {
		t.Fatal("maxT=0 reached")
	}
}

// TestProfileRadius pins the canonical truncation policy.
func TestProfileRadius(t *testing.T) {
	if r := ProfileRadius(100, 1000); r != 3*10+8 {
		t.Fatalf("ProfileRadius(100,1000)=%d", r)
	}
	if r := ProfileRadius(100, 5); r != 5 {
		t.Fatalf("diameter did not clamp: %d", r)
	}
	if r := ProfileRadius(100, 0); r != 1 {
		t.Fatalf("zero diameter: %d", r)
	}
	if r := ProfileRadius(100, Inf); r != 38 {
		t.Fatalf("disconnected graph: %d", r)
	}
	if r := ProfileRadius(0, -1); r != 8 {
		t.Fatalf("empty graph: %d", r)
	}
}

// TestProfilesCodecRoundTrip: encode∘decode is the identity on the
// kernel's output, bytes are deterministic, and a decoded artifact
// re-encodes to the same bytes.
func TestProfilesCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, g := range []*Graph{Path(30), Grid(5, 2), RandomConnected(40, 0.1, rng), NewBuilder(0).Build()} {
		for _, maxR := range []int{0, 2, g.N()} {
			p := g.BallProfiles(maxR)
			blob := EncodeProfiles(p)
			if !bytes.Equal(blob, EncodeProfiles(p)) {
				t.Fatal("encoding not deterministic")
			}
			got, err := DecodeProfiles(blob)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got.N() != p.N() || got.maxR != p.maxR || got.Complete() != p.Complete() {
				t.Fatalf("decoded shape (%d,%d,%v), want (%d,%d,%v)",
					got.N(), got.maxR, got.Complete(), p.N(), p.maxR, p.Complete())
			}
			for v := 0; v < p.N(); v++ {
				if got.Eccentricities()[v] != p.Eccentricities()[v] || got.Len(v) != p.Len(v) {
					t.Fatalf("node %d: decoded (ecc=%d,len=%d), want (%d,%d)", v, got.Eccentricities()[v], got.Len(v), p.Eccentricities()[v], p.Len(v))
				}
				for tt := 0; tt <= maxR; tt++ {
					if got.Size(v, tt) != p.Size(v, tt) {
						t.Fatalf("node %d t=%d: decoded size %d, want %d", v, tt, got.Size(v, tt), p.Size(v, tt))
					}
				}
			}
			d1, ok1 := p.Diameter()
			d2, ok2 := got.Diameter()
			if d1 != d2 || ok1 != ok2 {
				t.Fatalf("decoded diameter (%d,%v), want (%d,%v)", d2, ok2, d1, ok1)
			}
			if !bytes.Equal(EncodeProfiles(got), blob) {
				t.Fatal("re-encoding differs from the original bytes")
			}
		}
	}
}

// TestProfilesCodecRejectsCorruption: structural damage must fail
// decoding rather than producing an invalid artifact.
func TestProfilesCodecRejectsCorruption(t *testing.T) {
	p := Grid(4, 2).BallProfiles(6)
	blob := EncodeProfiles(p)
	cases := map[string]func([]byte) []byte{
		"truncated header": func(b []byte) []byte { return b[:10] },
		"bad magic":        func(b []byte) []byte { b[0] ^= 0xff; return b },
		"bad version":      func(b []byte) []byte { b[4] = 99; return b },
		"short payload":    func(b []byte) []byte { return b[:len(b)-3] },
		"huge n":           func(b []byte) []byte { b[8] = 0xff; b[9] = 0xff; b[10] = 0xff; b[11] = 0xff; return b },
		"zero first size": func(b []byte) []byte {
			b[profHeaderLen+4*(p.n+1)] = 0
			return b
		},
		"bad ecc": func(b []byte) []byte {
			off := len(b) - 8*p.n
			b[off] = 0x77 // ecc(0) = 0x77 > maxR, neither Inf nor EccUnknown
			return b
		},
		"unknown ecc on exhausted row": func(b []byte) []byte {
			// Node 5 (a grid center) exhausts before maxR, so its row is
			// short; marking it EccUnknown must be rejected, or the
			// short row's sizes would masquerade as exact for all t.
			off := len(b) - 8*p.n + 8*5
			for i := 0; i < 8; i++ {
				b[off+i] = 0xff // int64(-1) = EccUnknown
			}
			return b
		},
	}
	for name, corrupt := range cases {
		mutated := corrupt(append([]byte(nil), blob...))
		if _, err := DecodeProfiles(mutated); err == nil {
			t.Fatalf("%s: corrupt blob decoded", name)
		}
	}
	if _, err := DecodeProfiles(blob); err != nil {
		t.Fatalf("pristine blob rejected: %v", err)
	}
}

// offsetPastEntriesBlob is a profile blob whose first row offset pair
// (0,5) looks sane but runs past the two stored sizes: n=2, maxR=10,
// entries=2, rowStart=[0,5,2], sizes=[1,1], ecc=[1,1].
func offsetPastEntriesBlob() []byte {
	b := make([]byte, 0, profHeaderLen+4*3+4*2+8*2)
	b = append(b, profMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, ProfilesCodecVersion)
	for _, v := range []uint64{2, 10, 2} { // n, maxR, entries
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	for _, v := range []uint32{0, 5, 2, 1, 1} { // rowStart, then sizes
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	for _, v := range []uint64{1, 1} { // ecc
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// TestDecodeProfilesRejectsOffsetPastEntries: every row offset must be
// checked against the sizes array before any row is read, so a blob
// whose offsets are monotone only pair by pair returns an error
// instead of indexing past the sizes.
func TestDecodeProfilesRejectsOffsetPastEntries(t *testing.T) {
	if _, err := DecodeProfiles(offsetPastEntriesBlob()); err == nil {
		t.Fatal("blob with a row offset past the entry count decoded")
	}
}
