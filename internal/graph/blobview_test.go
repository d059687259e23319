package graph_test

// The zero-copy decode contract (DESIGN.md §9–§10): on a little-endian
// host, DecodeCSR and DecodeProfiles return arrays that are views of
// an 8-byte aligned input, and a misaligned input decodes — through
// one aligned copy — to the same graph or artifact. Run under -race,
// checkptr also checks that no view straddles its allocation; the
// alignment of every view is asserted here, since checkptr does not
// check it for pointer-free element types.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/graph"
)

func addr[T any](s []T) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(s))) }

// checkAligned fails unless the non-empty view s starts at a multiple
// of its element size.
func checkAligned[T any](t *testing.T, name string, s []T) {
	t.Helper()
	var zero T
	if size := unsafe.Sizeof(zero); len(s) > 0 && addr(s)%size != 0 {
		t.Fatalf("%s at %#x is not %d-byte aligned", name, addr(s), size)
	}
}

func requireLittleEndian(t *testing.T) {
	t.Helper()
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		t.Skip("big-endian host: the decoders convert into fresh arrays")
	}
}

func TestDecodeCSRViewsAlignedBlob(t *testing.T) {
	requireLittleEndian(t)
	g := graph.RandomWeights(buildFamily(t, graph.FamilyGrid2D, 64, 1), 1000, rand.New(rand.NewSource(5)))
	enc, err := graph.EncodeCSR(g)
	if err != nil {
		t.Fatal(err)
	}
	blob := graph.AlignedCopy(enc)
	dec, err := graph.DecodeCSR(blob)
	if err != nil {
		t.Fatal(err)
	}
	rowStart, to, w := graph.CSRArrays(dec)
	base := addr(blob)
	const hdr = 32
	h := len(to)
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"w", addr(w), base + hdr},
		{"rowStart", addr(rowStart), base + hdr + uintptr(8*h)},
		{"to", addr(to), base + hdr + uintptr(8*h+4*len(rowStart))},
	} {
		if c.got != c.want {
			t.Errorf("%s at blob offset %d, want a view at offset %d", c.name, int(c.got-base), int(c.want-base))
		}
	}
	if cap(w) != len(w) || cap(rowStart) != len(rowStart) || cap(to) != len(to) {
		t.Errorf("views extend past their arrays: caps %d/%d/%d, lens %d/%d/%d",
			cap(w), cap(rowStart), cap(to), len(w), len(rowStart), len(to))
	}
	if re, _ := graph.EncodeCSR(dec); !bytes.Equal(re, enc) {
		t.Fatal("the viewed graph re-encodes differently")
	}
}

func TestDecodeCSRMisalignedEqualsAligned(t *testing.T) {
	for _, fam := range []graph.Family{graph.FamilyPath, graph.FamilyExpander, graph.FamilyRingOfCliques} {
		g := graph.RandomWeights(buildFamily(t, fam, 96, 2), 50, rand.New(rand.NewSource(9)))
		enc, err := graph.EncodeCSR(g)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := graph.CSRHash(g)
		for name, blob := range map[string][]byte{"aligned": graph.AlignedCopy(enc), "misaligned": graph.MisalignedCopy(enc)} {
			dec, err := graph.DecodeCSR(blob)
			if err != nil {
				t.Fatalf("%s/%s: %v", fam, name, err)
			}
			rowStart, to, w := graph.CSRArrays(dec)
			checkAligned(t, name+" w", w)
			checkAligned(t, name+" rowStart", rowStart)
			checkAligned(t, name+" to", to)
			if got, _ := graph.CSRHash(dec); got != want {
				t.Fatalf("%s/%s: CSRHash %s, want %s", fam, name, got, want)
			}
			if dec.Diameter() != g.Diameter() {
				t.Fatalf("%s/%s: diameter %d, want %d", fam, name, dec.Diameter(), g.Diameter())
			}
		}
	}
}

func TestDecodeProfilesViewsAlignedBlob(t *testing.T) {
	requireLittleEndian(t)
	g := buildFamily(t, graph.FamilyGrid2D, 200, 1)
	enc := graph.EncodeProfiles(g.BallProfiles(graph.ProfileRadius(g.N(), g.Diameter())))
	blob := graph.AlignedCopy(enc)
	p, err := graph.DecodeProfiles(blob)
	if err != nil {
		t.Fatal(err)
	}
	rowStart, chunks := graph.ProfileArrays(p)
	const hdr = 40
	base := addr(blob)
	if got, want := addr(rowStart), base+hdr; got != want {
		t.Errorf("rowStart at blob offset %d, want a view at offset %d", int(got-base), hdr)
	}
	sizes := base + hdr + uintptr(4*len(rowStart))
	for b, c := range chunks {
		if want := sizes + uintptr(4*rowStart[64*b]); addr(c) != want {
			t.Fatalf("chunk %d at blob offset %d, want a view at offset %d", b, int(addr(c)-base), int(want-base))
		}
	}
	if !bytes.Equal(graph.EncodeProfiles(p), enc) {
		t.Fatal("the viewed artifact re-encodes differently")
	}
}

func TestDecodeProfilesMisalignedEqualsAligned(t *testing.T) {
	for _, fam := range []graph.Family{graph.FamilyPath, graph.FamilyExpander, graph.FamilyTorus2D} {
		g := buildFamily(t, fam, 150, 3)
		for _, maxR := range []int{3, graph.ProfileRadius(g.N(), g.Diameter())} {
			enc := graph.EncodeProfiles(g.BallProfiles(maxR))
			for name, blob := range map[string][]byte{"aligned": graph.AlignedCopy(enc), "misaligned": graph.MisalignedCopy(enc)} {
				p, err := graph.DecodeProfiles(blob)
				if err != nil {
					t.Fatalf("%s/maxR=%d/%s: %v", fam, maxR, name, err)
				}
				rowStart, chunks := graph.ProfileArrays(p)
				checkAligned(t, name+" rowStart", rowStart)
				for _, c := range chunks {
					checkAligned(t, name+" chunk", c)
				}
				if !bytes.Equal(graph.EncodeProfiles(p), enc) {
					t.Fatalf("%s/maxR=%d/%s: decoded artifact re-encodes differently", fam, maxR, name)
				}
			}
		}
	}
}
