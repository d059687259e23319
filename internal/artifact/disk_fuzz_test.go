package artifact

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDiskReindex opens a store over an arbitrary segment file. Open
// must never fail or panic, every record it indexes must read back as
// exactly the on-disk frame, and a record appended afterwards must
// survive a reopen whatever torn bytes the segment ended with.
func FuzzDiskReindex(f *testing.F) {
	two := appendFrame(nil, "results", "a", []byte("first value"))
	two = appendFrame(two, "graphs", "b", bytes.Repeat([]byte{7}, 300))
	f.Add(two)
	f.Add(two[:len(two)-100]) // torn mid-value
	flipped := bytes.Clone(two)
	flipped[0] ^= 0xff // bad CRC on the first record
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segmentName(1))
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := NewStoreWithDisk(1<<20, dir)
		if err != nil {
			t.Fatalf("open over fuzzed segment: %v", err)
		}
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		indexed := make(map[memKey]loc, len(s.disk.index))
		for k, l := range s.disk.index {
			indexed[k] = l
		}
		for k, l := range indexed {
			v, ok := s.disk.get(k.ns, k.key)
			if !ok {
				t.Fatalf("indexed record %q/%q not served", k.ns, k.key)
			}
			if got, want := appendFrame(nil, k.ns, k.key, v), onDisk[l.off:l.off+int64(l.len)]; !bytes.Equal(got, want) {
				t.Fatalf("record %q/%q re-encodes to %x, disk holds %x", k.ns, k.key, got, want)
			}
		}
		s.Namespace("fuzz").Put("fresh", []byte("appended"))
		s.Close()

		s2, err := NewStoreWithDisk(1<<20, dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer s2.Close()
		if v, ok := s2.Namespace("fuzz").Get("fresh"); !ok || string(v) != "appended" {
			t.Fatalf("record appended after fuzzed segment lost: %q (ok=%v)", v, ok)
		}
	})
}
