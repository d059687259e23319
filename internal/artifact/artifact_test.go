package artifact

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestGetPutRoundTrip(t *testing.T) {
	ns := NewStore(1 << 20).Namespace("results")
	if _, ok := ns.Get("missing"); ok {
		t.Fatal("hit on empty store")
	}
	ns.Put("k1", []byte("v1"))
	v, ok := ns.Get("k1")
	if !ok || string(v) != "v1" {
		t.Fatalf("Get(k1) = %q, %v", v, ok)
	}
	ns.Put("k1", []byte("v1-replaced"))
	v, _ = ns.Get("k1")
	if string(v) != "v1-replaced" {
		t.Fatalf("replacement not visible: %q", v)
	}
	st := ns.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Puts != 2 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.HitRate() < 0.66 || st.HitRate() > 0.67 {
		t.Fatalf("hit rate %f", st.HitRate())
	}
}

// TestNamespaceIsolation: the same key in two namespaces addresses two
// independent blobs, in memory and across a disk reopen.
func TestNamespaceIsolation(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStoreWithDisk(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Namespace("results").Put("k", []byte("rows"))
	s.Namespace("graphs").Put("k", []byte("csr"))
	if v, _ := s.Namespace("results").Get("k"); string(v) != "rows" {
		t.Fatalf("results/k = %q", v)
	}
	if v, _ := s.Namespace("graphs").Get("k"); string(v) != "csr" {
		t.Fatalf("graphs/k = %q", v)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := NewStoreWithDisk(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.Namespace("graphs").Get("k"); !ok || string(v) != "csr" {
		t.Fatalf("graphs/k after reopen = %q, %v", v, ok)
	}
	if v, ok := s2.Namespace("results").Get("k"); !ok || string(v) != "rows" {
		t.Fatalf("results/k after reopen = %q, %v", v, ok)
	}
}

// TestPerNamespaceStats: counters are charged to the namespace that
// generated the traffic, and StoreStats totals aggregate them.
func TestPerNamespaceStats(t *testing.T) {
	s := NewStore(1 << 20)
	res, gr := s.Namespace("results"), s.Namespace("graphs")
	res.Put("a", []byte("1"))
	res.Get("a")
	gr.Put("b", []byte("22"))
	gr.Get("b")
	gr.Get("nope")
	st := s.Stats()
	if st.Namespaces["results"].Puts != 1 || st.Namespaces["results"].Hits != 1 || st.Namespaces["results"].Misses != 0 {
		t.Fatalf("results stats %+v", st.Namespaces["results"])
	}
	if g := st.Namespaces["graphs"]; g.Puts != 1 || g.Hits != 1 || g.Misses != 1 || g.Bytes != 2 {
		t.Fatalf("graphs stats %+v", g)
	}
	if st.Puts != 2 || st.Hits != 2 || st.Misses != 1 || st.Entries != 2 || st.Bytes != 3 {
		t.Fatalf("totals %+v", st.Stats)
	}
	if st.Disk != nil {
		t.Fatalf("memory-only store reports disk stats %+v", st.Disk)
	}
}

// TestLegacyJSONLSegmentsDropped: segments of the retired JSONL record
// format are deleted on open — their keys miss and are recomputed —
// and counted as dropped segments.
func TestLegacyJSONLSegmentsDropped(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "seg-000001.jsonl")
	if err := os.WriteFile(legacy, []byte(`{"key":"legacy","value":"b2xkLXJvd3M="}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewStoreWithDisk(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Fatalf("legacy segment survived open: %v", err)
	}
	if v, ok := s.Namespace(DefaultNamespace).Get("legacy"); ok {
		t.Fatalf("legacy record served: %q", v)
	}
	if d := s.Stats().Disk; d.SegmentsDropped != 1 || d.Entries != 0 {
		t.Fatalf("disk stats after legacy drop: %+v", d)
	}
	// The empty name aliases the default namespace.
	if s.Namespace("") != s.Namespace(DefaultNamespace) {
		t.Fatal("Namespace(\"\") is not the default namespace")
	}
}

// TestDiskOnlyPuts: a namespace under SetDiskOnlyPuts keeps its Puts
// out of the shared memory budget when a disk tier exists (Gets still
// promote), and falls back to memory writes on a memory-only store.
func TestDiskOnlyPuts(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStoreWithDisk(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ns := s.Namespace("graphs")
	ns.SetDiskOnlyPuts(true)
	ns.Put("k", []byte("blob"))
	st := ns.Stats()
	if st.Entries != 0 || st.Bytes != 0 || st.DiskPuts != 1 {
		t.Fatalf("disk-only put touched memory: %+v", st)
	}
	if v, ok := ns.Get("k"); !ok || string(v) != "blob" {
		t.Fatalf("disk-only put unreadable: %q, %v", v, ok)
	}
	if st := ns.Stats(); st.DiskHits != 1 || st.Entries != 1 {
		t.Fatalf("disk hit did not promote: %+v", st)
	}

	// Memory-only store: the flag must not drop values.
	mem := NewStore(1 << 20).Namespace("graphs")
	mem.SetDiskOnlyPuts(true)
	mem.Put("k", []byte("blob"))
	if v, ok := mem.Get("k"); !ok || string(v) != "blob" {
		t.Fatalf("memory-only store dropped a disk-only put: %q, %v", v, ok)
	}
}

// TestEvictionOrder pins the LRU policy on a single shard's budget:
// touching an entry saves it from eviction, the least recently used one
// goes first.
func TestEvictionOrder(t *testing.T) {
	// Budget for 3 × 100-byte values per shard. All keys are forced
	// into one shard by probing (shardCount is 16; generate keys until
	// 4 land together).
	s := NewStore(300 * shardCount)
	ns := s.Namespace("results")
	target := s.shard(memKey{ns: ns.name, key: "anchor"})
	var keys []string
	for i := 0; len(keys) < 4; i++ {
		k := fmt.Sprintf("key-%d", i)
		if s.shard(memKey{ns: ns.name, key: k}) == target {
			keys = append(keys, k)
		}
	}
	val := bytes.Repeat([]byte("x"), 100)
	ns.Put(keys[0], val)
	ns.Put(keys[1], val)
	ns.Put(keys[2], val) // shard full: [2 1 0]
	if _, ok := ns.Get(keys[0]); !ok {
		t.Fatal("keys[0] evicted prematurely")
	}
	// LRU order now [0 2 1]; inserting keys[3] must evict keys[1].
	ns.Put(keys[3], val)
	if _, ok := ns.Get(keys[1]); ok {
		t.Fatal("LRU entry keys[1] survived over-budget insert")
	}
	for _, k := range []string{keys[0], keys[2], keys[3]} {
		if _, ok := ns.Get(k); !ok {
			t.Fatalf("%s evicted out of LRU order", k)
		}
	}
	if st := ns.Stats(); st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats %+v", st)
	}
}

// TestOversizedValueStillCached: a value above the shard budget is kept
// (alone) rather than thrashing.
func TestOversizedValueStillCached(t *testing.T) {
	ns := NewStore(10 * shardCount).Namespace("results")
	big := bytes.Repeat([]byte("y"), 1000)
	ns.Put("big", big)
	v, ok := ns.Get("big")
	if !ok || !bytes.Equal(v, big) {
		t.Fatal("oversized value not cached")
	}
}

// TestConcurrentGetPut hammers all shards from many goroutines across
// two namespaces; under -race this is the data-race certification for
// the serving path.
func TestConcurrentGetPut(t *testing.T) {
	s := NewStore(1 << 16) // small enough to force concurrent evictions
	var wg sync.WaitGroup
	names := []string{"results", "graphs"}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ns := s.Namespace(names[g%2])
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k-%d", (g*31+i)%200)
				if v, ok := ns.Get(key); ok {
					if len(v) != 64 {
						t.Errorf("corrupt value length %d", len(v))
						return
					}
				} else {
					ns.Put(key, bytes.Repeat([]byte{byte(i)}, 64))
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Hits+st.Misses != 8*500 {
		t.Fatalf("lost gets: %+v", st.Stats)
	}
}

func TestDiskTierRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewStoreWithDisk(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	ns1 := s1.Namespace("results")
	want := map[string][]byte{}
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("cell-%03d", i)
		v := bytes.Repeat([]byte{byte(i)}, 128)
		want[k] = v
		ns1.Put(k, v)
	}
	if st := ns1.Stats(); st.DiskPuts != 50 {
		t.Fatalf("disk puts = %d, want 50", st.DiskPuts)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process over the same directory serves everything from
	// disk, promoting into memory — and reports the recovered records.
	s2, err := NewStoreWithDisk(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if d := s2.Stats().Disk; d == nil || d.Reindexed != 50 || d.Entries != 50 || d.Segments == 0 || d.Bytes == 0 {
		t.Fatalf("disk stats after reopen: %+v", d)
	}
	ns2 := s2.Namespace("results")
	for k, v := range want {
		got, ok := ns2.Get(k)
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("disk round-trip lost %s", k)
		}
	}
	st := ns2.Stats()
	if st.DiskHits != 50 || st.Hits != 50 {
		t.Fatalf("restart stats %+v", st)
	}
	// Promoted entries now hit memory (DiskHits stays put).
	if _, ok := ns2.Get("cell-000"); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := ns2.Stats(); st.DiskHits != 50 {
		t.Fatalf("memory hit counted as disk hit: %+v", st)
	}
}

// TestDiskSegmentRotation forces tiny segments and checks records stay
// readable across many files, including after reopen.
func TestDiskSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStoreWithDisk(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	s.disk.segmentBytes = 256 // force rotation every couple of records
	ns := s.Namespace("graphs")
	for i := 0; i < 40; i++ {
		ns.Put(fmt.Sprintf("rot-%02d", i), bytes.Repeat([]byte{byte('a' + i%26)}, 50))
	}
	if d := s.Stats().Disk; d.Segments < 3 {
		t.Fatalf("rotation not reflected in stats: %+v", d)
	}
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, segmentGlob))
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %v", segs)
	}
	s2, err := NewStoreWithDisk(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if d := s2.Stats().Disk; d.Segments != len(segs) {
		t.Fatalf("reopen counted %d segments, want %d", d.Segments, len(segs))
	}
	ns2 := s2.Namespace("graphs")
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("rot-%02d", i)
		v, ok := ns2.Get(k)
		if !ok || !bytes.Equal(v, bytes.Repeat([]byte{byte('a' + i%26)}, 50)) {
			t.Fatalf("lost %s across rotation+reopen", k)
		}
	}
}

// TestDiskIgnoresTrailingGarbage: a truncated final line (crashed
// writer) must not poison the index.
func TestDiskIgnoresTrailingGarbage(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStoreWithDisk(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Namespace("results").Put("good", []byte("value"))
	s.Close()
	seg := filepath.Join(dir, segmentName(1))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"torn","val`) // no newline: torn write
	f.Close()
	s2, err := NewStoreWithDisk(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ns := s2.Namespace("results")
	if v, ok := ns.Get("good"); !ok || string(v) != "value" {
		t.Fatal("intact record lost after torn tail")
	}
	if _, ok := ns.Get("torn"); ok {
		t.Fatal("torn record surfaced")
	}
}

// TestDiskAppendAfterTornTail: a record appended after reopening over a
// torn tail must survive the next reopen — open truncates the newest
// segment to its last whole record instead of appending after the
// torn bytes.
func TestDiskAppendAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStoreWithDisk(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Namespace("results").Put("good", []byte("value"))
	s.Close()
	f, err := os.OpenFile(filepath.Join(dir, segmentName(1)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"torn","val`) // torn write
	f.Close()

	s2, err := NewStoreWithDisk(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	s2.Namespace("results").Put("after", []byte("appended"))
	s2.Close()

	s3, err := NewStoreWithDisk(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	ns := s3.Namespace("results")
	for k, want := range map[string]string{"good": "value", "after": "appended"} {
		if v, ok := ns.Get(k); !ok || string(v) != want {
			t.Fatalf("%s after torn tail + reopen: %q (ok=%v)", k, v, ok)
		}
	}
}

// TestDiskCorruptRecordMisses: a flipped value byte in a sealed segment
// turns the Get into a miss that drops the index entry and counts the
// record as corrupt; the recompute's re-Put is served after a reopen.
func TestDiskCorruptRecordMisses(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStoreWithDisk(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	s.disk.segmentBytes = 256 // seal segment 1 after a couple of records
	ns := s.Namespace("graphs")
	ns.SetDiskOnlyPuts(true) // every Get reads the disk tier
	want := bytes.Repeat([]byte("v"), 100)
	ns.Put("victim", want)
	for i := 0; i < 4; i++ {
		ns.Put(fmt.Sprintf("filler-%d", i), want)
	}
	l := s.disk.index[memKey{ns: "graphs", key: "victim"}]
	if l.seg == s.disk.curID {
		t.Fatalf("victim still in the active segment %d", l.seg)
	}
	flipByte(t, dir, l, int64(l.len)-1) // last value byte

	if v, ok := ns.Get("victim"); ok {
		t.Fatalf("corrupt record served: %q", v)
	}
	d := s.Stats().Disk
	if d.CorruptRecords != 1 || d.Entries != 4 {
		t.Fatalf("disk stats after corrupt read: %+v", d)
	}
	if st := ns.Stats(); st.Misses != 1 || st.DiskHits != 0 {
		t.Fatalf("namespace stats after corrupt read: %+v", st)
	}
	fresh := bytes.Repeat([]byte("w"), 100)
	ns.Put("victim", fresh)
	s.Close()

	s2, err := NewStoreWithDisk(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.Namespace("graphs").Get("victim"); !ok || !bytes.Equal(v, fresh) {
		t.Fatalf("re-put value not served after reopen: %q (ok=%v)", v, ok)
	}
}

// flipByte corrupts the byte at offset at inside the record frame l.
func flipByte(t *testing.T, dir string, l loc, at int64) {
	t.Helper()
	seg := segmentPath(dir, l.seg)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[l.off+at] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMemoryEvictionFallsThroughToDisk: an entry evicted from the
// memory tier is still served (as a disk hit).
func TestMemoryEvictionFallsThroughToDisk(t *testing.T) {
	dir := t.TempDir()
	// Tiny memory budget: every shard holds ~1 value.
	s, err := NewStoreWithDisk(64*shardCount, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ns := s.Namespace("results")
	val := bytes.Repeat([]byte("z"), 60)
	for i := 0; i < 200; i++ {
		ns.Put(fmt.Sprintf("spill-%03d", i), val)
	}
	st := ns.Stats()
	if st.Evictions == 0 {
		t.Fatal("expected memory evictions")
	}
	for i := 0; i < 200; i++ {
		if v, ok := ns.Get(fmt.Sprintf("spill-%03d", i)); !ok || !bytes.Equal(v, val) {
			t.Fatalf("spill-%03d unreadable after eviction", i)
		}
	}
	if st := ns.Stats(); st.DiskHits == 0 {
		t.Fatal("evicted entries never fell through to disk")
	}
}

// TestDiskReplacementVisibleAfterReopen: re-putting an existing key
// (the corrupt-old-record recovery path) must shadow the old disk
// record, keeping both tiers in agreement across restarts.
func TestDiskReplacementVisibleAfterReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStoreWithDisk(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	ns := s.Namespace("results")
	ns.Put("k", []byte("v1"))
	ns.Put("k", []byte("v2"))
	if v, _ := ns.Get("k"); string(v) != "v2" {
		t.Fatalf("memory tier holds %q", v)
	}
	s.Close()
	s2, err := NewStoreWithDisk(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.Namespace("results").Get("k"); !ok || string(v) != "v2" {
		t.Fatalf("disk tier resurrected stale value %q (ok=%v)", v, ok)
	}
}
