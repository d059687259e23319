package artifact

// Disk-tier GC coverage (DESIGN.md §11): compaction must reclaim dead
// bytes without ever losing a live record — across restart reindexing,
// after a torn tail, and under concurrent readers and writers.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// newGCStore opens a disk store with tiny segments so a handful of
// puts exercises rotation and GC.
func newGCStore(t *testing.T, dir string, cfg GCConfig) *Store {
	t.Helper()
	s, err := NewStoreWithDisk(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SegmentBytes == 0 {
		cfg.SegmentBytes = 512
	}
	s.SetGC(cfg)
	t.Cleanup(func() { s.Close() })
	return s
}

func val(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, 100) }

// TestGCCompactionPreservesLiveRecords: overwrite churn leaves mostly
// dead segments; after compaction every live key must still resolve —
// both from the running store and from a fresh reindex of the
// compacted segment files.
func TestGCCompactionPreservesLiveRecords(t *testing.T) {
	dir := t.TempDir()
	s := newGCStore(t, dir, GCConfig{})
	ns := s.Namespace("results")

	// Churn: every key rewritten several times, so earlier segments are
	// almost entirely shadowed records.
	for round := 0; round < 6; round++ {
		for i := 0; i < 20; i++ {
			ns.Put(fmt.Sprintf("key-%02d", i), val(i+round))
		}
	}
	s.CompactDisk()
	st := s.Stats()
	if st.Disk.SegmentsCompacted == 0 {
		t.Fatalf("churn triggered no compaction: %+v", st.Disk)
	}
	if st.Disk.Bytes > 2*st.Disk.LiveBytes+int64(2*512) {
		t.Fatalf("compaction left %d bytes for %d live", st.Disk.Bytes, st.Disk.LiveBytes)
	}
	for i := 0; i < 20; i++ {
		want := val(i + 5)
		if v, ok := ns.Get(fmt.Sprintf("key-%02d", i)); !ok || !bytes.Equal(v, want) {
			t.Fatalf("key-%02d lost after compaction (ok=%v)", i, ok)
		}
	}
	s.Close()

	// Restart: the reindex of the compacted segment set must serve the
	// same live values.
	s2, err := NewStoreWithDisk(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ns2 := s2.Namespace("results")
	for i := 0; i < 20; i++ {
		want := val(i + 5)
		if v, ok := ns2.Get(fmt.Sprintf("key-%02d", i)); !ok || !bytes.Equal(v, want) {
			t.Fatalf("key-%02d lost across restart reindex (ok=%v)", i, ok)
		}
	}
}

// TestGCToleratesTornTail: a crashed writer leaves a partial trailing
// line; reindexing skips it and compaction reclaims it as dead bytes
// without disturbing the intact records.
func TestGCToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	s := newGCStore(t, dir, GCConfig{})
	ns := s.Namespace("results")
	for i := 0; i < 10; i++ {
		ns.Put(fmt.Sprintf("key-%d", i), val(i))
	}
	s.Close()

	// Tear the newest segment mid-line.
	segs, err := filepath.Glob(filepath.Join(dir, segmentGlob))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newGCStore(t, dir, GCConfig{})
	ns2 := s2.Namespace("results")
	s2.CompactDisk()
	missing := 0
	for i := 0; i < 10; i++ {
		if _, ok := ns2.Get(fmt.Sprintf("key-%d", i)); !ok {
			missing++
		}
	}
	// Exactly the torn record is gone; every intact one survives GC.
	if missing > 1 {
		t.Fatalf("%d records missing after torn tail + GC, want ≤ 1", missing)
	}
	// The store keeps working after the tear.
	ns2.Put("fresh", val(3))
	if v, ok := ns2.Get("fresh"); !ok || !bytes.Equal(v, val(3)) {
		t.Fatal("store broken after torn-tail recovery")
	}
}

// TestGCDropsCorruptRecords: compaction verifies every live record it
// copies forward; one whose frame no longer checks out is dropped and
// counted, never carried into the new segment.
func TestGCDropsCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	s := newGCStore(t, dir, GCConfig{})
	ns := s.Namespace("results")
	ns.SetDiskOnlyPuts(true)
	for i := 0; i < 4; i++ {
		ns.Put(fmt.Sprintf("key-%d", i), val(i))
	}
	flipByte(t, dir, s.disk.index[memKey{ns: "results", key: "key-0"}], frameHeader) // first namespace byte
	// Shadow the rest of key-0's segment so compaction rewrites it.
	for round := 0; round < 3; round++ {
		for i := 1; i < 8; i++ {
			ns.Put(fmt.Sprintf("key-%d", i), val(i))
		}
	}
	s.CompactDisk()
	d := s.Stats().Disk
	if d.CorruptRecords != 1 || d.SegmentsCompacted == 0 {
		t.Fatalf("compaction did not drop the corrupt record: %+v", d)
	}
	if _, ok := ns.Get("key-0"); ok {
		t.Fatal("corrupt record served after compaction")
	}
	for i := 1; i < 8; i++ {
		if v, ok := ns.Get(fmt.Sprintf("key-%d", i)); !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("key-%d lost across compaction (ok=%v)", i, ok)
		}
	}
}

// TestGCRetainFilterAgesOutOrphans: records whose keys fail the retain
// filter disappear from the index immediately and from disk at the
// next compaction — the version-bump age-out path.
func TestGCRetainFilterAgesOutOrphans(t *testing.T) {
	dir := t.TempDir()
	s := newGCStore(t, dir, GCConfig{})
	ns := s.Namespace("results")
	for i := 0; i < 10; i++ {
		ns.Put(fmt.Sprintf("v1/key-%d", i), val(i))
	}
	for i := 0; i < 10; i++ {
		ns.Put(fmt.Sprintf("v2/key-%d", i), val(i))
	}
	s.Close()

	// Reopen as a "v2" store: v1 rows are orphans no Get will request.
	s2, err := NewStoreWithDisk(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.SetGC(GCConfig{
		SegmentBytes: 512,
		Retain: func(nsName, key string) bool {
			return nsName != "results" || strings.HasPrefix(key, "v2/")
		},
	})
	ns2 := s2.Namespace("results")
	for i := 0; i < 10; i++ {
		if _, ok := ns2.Get(fmt.Sprintf("v1/key-%d", i)); ok {
			t.Fatalf("orphaned v1/key-%d still served", i)
		}
		if v, ok := ns2.Get(fmt.Sprintf("v2/key-%d", i)); !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("current v2/key-%d lost (ok=%v)", i, ok)
		}
	}
	st := s2.Stats().Disk
	if st.RecordsCollected < 10 {
		t.Fatalf("retain filter collected %d records, want ≥ 10", st.RecordsCollected)
	}
	if st.LiveBytes >= st.Bytes && st.SegmentsCompacted == 0 {
		t.Fatalf("orphans neither marked dead nor compacted: %+v", st)
	}
}

// TestGCByteBound: with MaxBytes set, sustained puts keep total
// segment bytes under bound + one active segment, by dropping whole
// oldest segments.
func TestGCByteBound(t *testing.T) {
	dir := t.TempDir()
	const bound = 4096
	s := newGCStore(t, dir, GCConfig{MaxBytes: bound})
	ns := s.Namespace("results")
	for i := 0; i < 400; i++ {
		ns.Put(fmt.Sprintf("grow-%03d", i), val(i))
	}
	st := s.Stats().Disk
	// The bound is checked at rotation, so the active segment may
	// briefly carry up to one segment of slack.
	if st.Bytes > bound+512+256 {
		t.Fatalf("disk tier at %d bytes, bound %d (+1 segment slack): %+v", st.Bytes, bound, st)
	}
	if st.SegmentsDropped == 0 {
		t.Fatalf("bound never dropped a segment: %+v", st)
	}
	// Newest records must still be served (drops start from the oldest).
	if v, ok := ns.Get("grow-399"); !ok || !bytes.Equal(v, val(399)) {
		t.Fatal("newest record lost to the byte bound")
	}
}

// TestGCConcurrentGetPut drives readers, writers, and forced GC passes
// together; under -race this certifies the locking, and every read
// must return either nothing (evicted/compacted away mid-race) or the
// exact bytes some writer stored.
func TestGCConcurrentGetPut(t *testing.T) {
	dir := t.TempDir()
	// Memory tier of ~1 value per shard, so most Gets fall through to
	// the disk tier and genuinely race the compactor.
	s, err := NewStoreWithDisk(128*shardCount, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetGC(GCConfig{MaxBytes: 64 << 10, SegmentBytes: 2048})
	ns := s.Namespace("results")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				ns.Put(fmt.Sprintf("k-%d", (w*300+i)%64), val(i))
			}
		}(w)
	}
	for rdr := 0; rdr < 4; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if v, ok := ns.Get(fmt.Sprintf("k-%d", i%64)); ok {
					if len(v) != 100 || bytes.Count(v, v[:1]) != 100 {
						t.Errorf("k-%d: corrupt value %q", i%64, v)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			s.CompactDisk()
		}
	}()

	// Wait for the writers and the compactor (4 writer + 1 GC goroutines),
	// then release the readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			return
		default:
		}
		s.Stats()
		select {
		case <-stop:
		default:
			if allWritersDone(ns) {
				close(stop)
			}
		}
	}
}

// allWritersDone reports when the writers' 1200 puts have landed.
func allWritersDone(ns *Namespace) bool { return ns.Stats().Puts >= 1200 }

// TestGCCompactionCrashConsistent: a crash anywhere in a compaction
// pass must reopen to the last acknowledged value of every key. The
// crash states are rebuilt from a snapshot of the segments taken before
// the pass: the active segment cut at every byte offset of the region
// the pass appended, and each victim segment present unless the pass
// had already removed it when the active segment reached that size.
func TestGCCompactionCrashConsistent(t *testing.T) {
	dir := t.TempDir()
	// Churn with compaction off, so the forced pass below does all the
	// work. Every fourth key keeps its first record, so the early
	// segments are mostly shadowed but still hold live records.
	s := newGCStore(t, dir, GCConfig{LiveRatio: -1})
	ns := s.Namespace("results")
	want := map[string][]byte{}
	for round := 0; round < 4; round++ {
		for i := 0; i < 12; i++ {
			if round > 0 && i%4 == 0 {
				continue
			}
			k := fmt.Sprintf("key-%02d", i)
			want[k] = val(i + round)
			ns.Put(k, want[k])
		}
	}
	s.Close()

	// Reopen with the default 4 MiB segments, so the pass appends to one
	// active segment without rotating, and snapshot the segment files.
	s2, err := NewStoreWithDisk(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	names, err := filepath.Glob(filepath.Join(dir, segmentGlob))
	if err != nil || len(names) < 3 {
		t.Fatalf("want several segments before compaction, got %v (%v)", names, err)
	}
	snapshot := map[string][]byte{}
	for _, name := range names {
		if snapshot[filepath.Base(name)], err = os.ReadFile(name); err != nil {
			t.Fatal(err)
		}
	}
	active := filepath.Base(names[len(names)-1])
	pre := len(snapshot[active])
	removedAt := map[string]int{} // victim → active segment size at its removal
	s2.disk.testHookRemove = func(id int) {
		st, err := os.Stat(filepath.Join(dir, active))
		if err != nil {
			t.Fatal(err)
		}
		removedAt[segmentName(id)] = int(st.Size())
	}
	s2.CompactDisk()
	if n := s2.Stats().Disk.SegmentsCompacted; n < 2 || len(removedAt) != n {
		t.Fatalf("compacted %d segments, observed %d removals", n, len(removedAt))
	}
	post, err := os.ReadFile(filepath.Join(dir, active))
	if err != nil {
		t.Fatal(err)
	}
	if len(post) <= pre || !bytes.Equal(post[:pre], snapshot[active]) {
		t.Fatalf("compaction did not append to the active segment (%d → %d bytes)", pre, len(post))
	}

	root := t.TempDir()
	for cut := pre; cut <= len(post); cut++ {
		crash := filepath.Join(root, fmt.Sprintf("cut-%d", cut))
		if err := os.Mkdir(crash, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range snapshot {
			if at, removed := removedAt[name]; removed && at <= cut {
				continue
			}
			if name == active {
				data = post[:cut]
			}
			if err := os.WriteFile(filepath.Join(crash, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		cs, err := NewStoreWithDisk(1<<20, crash)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		cns := cs.Namespace("results")
		for k, v := range want {
			if got, ok := cns.Get(k); !ok || !bytes.Equal(got, v) {
				cs.Close()
				t.Fatalf("crash after %d of %d appended bytes: %s = %q (ok=%v), want its last value", cut-pre, len(post)-pre, k, got, ok)
			}
		}
		cs.Close()
		if err := os.RemoveAll(crash); err != nil {
			t.Fatal(err)
		}
	}
}
