package runner

import (
	"bytes"
	"encoding/binary"
	"testing"
	"unsafe"

	"repro/internal/artifact"
	"repro/internal/graph"
)

// reopenDisk closes s (when non-nil) and opens a fresh store over dir,
// so every Get of a stored record goes through the disk tier's read.
func reopenDisk(t *testing.T, s *artifact.Store, dir string) *artifact.Store {
	t.Helper()
	if s != nil {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s, err := artifact.NewStoreWithDisk(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestDiskRestoreAlignedAndCorruptPayloads drives the disk tier's
// aligned read path end to end: a graph and a profile blob restored
// from a reopened disk tier arrive 8-byte aligned and decode without
// a rebuild, and a frame whose CRC is valid but whose CSR or profile
// payload is corrupt is a counted miss — a store hit the cache does
// not count as a restore — followed by a rebuild that shadows the
// record, so the next reopen restores the good one.
func TestDiskRestoreAlignedAndCorruptPayloads(t *testing.T) {
	const fam, n, seed = graph.FamilyGrid2D, 64, 1
	built, err := NewGraphCache(nil, 0).Get(fam, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	graphBlob, _ := graph.EncodeCSR(built)
	profileBlob := graph.EncodeProfiles(built.BallProfiles(graph.ProfileRadius(built.N(), built.Diameter())))

	// A self-loop at node 0's first half-edge: header, length and CRC
	// all hold, the structural check does not. The to array follows
	// the 32-byte header, w and rowStart.
	badGraph := bytes.Clone(graphBlob)
	binary.LittleEndian.PutUint32(badGraph[32+8*2*built.M()+4*(n+1):], 0)
	// Node 0's profile row starting at 2 instead of |B_0| = 1: the
	// sizes follow the 40-byte header and rowStart.
	badProfile := bytes.Clone(profileBlob)
	binary.LittleEndian.PutUint32(badProfile[40+4*(n+1):], 2)
	if _, err := graph.DecodeCSR(badGraph); err == nil {
		t.Fatal("the corrupt CSR payload decodes")
	}
	if _, err := graph.DecodeProfiles(badProfile); err == nil {
		t.Fatal("the corrupt profile payload decodes")
	}

	for _, tc := range []struct {
		name     string
		ns, key  string
		good     []byte
		restores func(BlobStore) (builds, storeHits uint64)
	}{
		{"graph", "graphs", GraphKey(fam, n, seed), graphBlob, func(s BlobStore) (uint64, uint64) {
			gc := NewGraphCache(s, 0)
			g, err := gc.Get(fam, n, seed)
			if err != nil {
				t.Fatal(err)
			}
			if enc, _ := graph.EncodeCSR(g); !bytes.Equal(enc, graphBlob) {
				t.Fatal("graph: served graph differs from the built one")
			}
			st := gc.Stats()
			return st.Builds, st.StoreHits
		}},
		{"profile", "profiles", ProfileKey(fam, n, seed), profileBlob, func(s BlobStore) (uint64, uint64) {
			pc := NewProfileCache(s, 0)
			g, _ := graph.DecodeCSR(graphBlob) // a fresh instance, no profile attached
			if p := pc.Attach(g, fam, n, seed); !bytes.Equal(graph.EncodeProfiles(p), profileBlob) {
				t.Fatal("profile: served artifact differs from the computed one")
			}
			st := pc.Stats()
			return st.Computes, st.StoreHits
		}},
	} {
		dir := t.TempDir()
		s := reopenDisk(t, nil, dir)
		s.Namespace(tc.ns).Put(tc.key, tc.good)
		s = reopenDisk(t, s, dir)
		v, ok := s.Namespace(tc.ns).Get(tc.key)
		if !ok || !bytes.Equal(v, tc.good) {
			t.Fatalf("%s: disk tier lost the record", tc.name)
		}
		if uintptr(unsafe.Pointer(unsafe.SliceData(v)))%8 != 0 {
			t.Fatalf("%s: disk read returned a value that is not 8-byte aligned", tc.name)
		}
		s = reopenDisk(t, s, dir)
		if builds, hits := tc.restores(s.Namespace(tc.ns)); builds != 0 || hits != 1 {
			t.Fatalf("%s: a good record restored with %d builds, %d store hits, want 0 and 1", tc.name, builds, hits)
		}

		bad := badGraph
		if tc.ns == "profiles" {
			bad = badProfile
		}
		s.Namespace(tc.ns).Put(tc.key, bad)
		s = reopenDisk(t, s, dir)
		ns := s.Namespace(tc.ns)
		if builds, hits := tc.restores(ns); builds != 1 || hits != 0 {
			t.Fatalf("%s: a corrupt payload served with %d builds, %d store hits, want a rebuild (1, 0)", tc.name, builds, hits)
		}
		if st := ns.Stats(); st.DiskHits != 1 || st.Puts != 1 || st.Hits != 0 || st.Misses != 1 || st.Rejected != 1 {
			t.Fatalf("%s: namespace stats %+v, want the corrupt record read from disk, rejected as a miss and the rebuild re-put", tc.name, st)
		}
		if c := s.Stats().Disk.CorruptRecords; c != 0 {
			t.Fatalf("%s: %d records failed their CRC, want the corruption caught by the decoder", tc.name, c)
		}
		s = reopenDisk(t, s, dir)
		if builds, hits := tc.restores(s.Namespace(tc.ns)); builds != 0 || hits != 1 {
			t.Fatalf("%s: after the rebuild, %d builds and %d store hits, want the shadowing record restored (0, 1)", tc.name, builds, hits)
		}
	}
}
