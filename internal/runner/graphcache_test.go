package runner

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
)

// mapBlobStore is a minimal BlobStore for tests, with a put/get trace.
type mapBlobStore struct {
	mu   sync.Mutex
	m    map[string][]byte
	gets int
	puts int
}

func newMapBlobStore() *mapBlobStore { return &mapBlobStore{m: make(map[string][]byte)} }

func (s *mapBlobStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	v, ok := s.m[key]
	return v, ok
}

func (s *mapBlobStore) Put(key string, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	s.m[key] = value
}

// TestGraphCacheSharedInstance: repeated Gets of one coordinate return
// the same instance, built once, identical to a direct Build.
func TestGraphCacheSharedInstance(t *testing.T) {
	gc := NewGraphCache(nil, 0)
	g1, err := gc.Get(graph.FamilyGrid2D, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := gc.Get(graph.FamilyGrid2D, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("same coordinate returned distinct instances")
	}
	direct, err := graph.Build(graph.FamilyGrid2D, 64, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := graph.EncodeCSR(direct)
	got, _ := graph.EncodeCSR(g1)
	if !bytes.Equal(want, got) {
		t.Fatal("cached graph differs from a direct build")
	}
	st := gc.Stats()
	if st.Builds != 1 || st.MemHits != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestGraphCacheSingleflight: many concurrent workers asking for the
// same coordinate trigger exactly one build.
func TestGraphCacheSingleflight(t *testing.T) {
	gc := NewGraphCache(nil, 0)
	const workers = 16
	graphs := make([]*graph.Graph, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g, err := gc.Get(graph.FamilyExpander, 128, 3)
			if err != nil {
				t.Error(err)
				return
			}
			graphs[w] = g
		}(w)
	}
	wg.Wait()
	for _, g := range graphs[1:] {
		if g != graphs[0] {
			t.Fatal("concurrent Gets returned distinct instances")
		}
	}
	st := gc.Stats()
	if st.Builds != 1 {
		t.Fatalf("%d concurrent Gets built %d graphs, want 1 (stats %+v)", workers, st.Builds, st)
	}
	if st.MemHits+st.Dedups != workers-1 {
		t.Fatalf("hits %d + dedups %d don't cover the other %d workers", st.MemHits, st.Dedups, workers-1)
	}
}

// TestGraphCachePersistRestore: a second cache over the same blob store
// restores topologies by decoding, building nothing.
func TestGraphCachePersistRestore(t *testing.T) {
	store := newMapBlobStore()
	gc1 := NewGraphCache(store, 0)
	coords := []struct {
		fam  graph.Family
		n    int
		seed int64
	}{
		{graph.FamilyPath, 48, 1},
		{graph.FamilyLollipop, 48, 2},
		{graph.FamilyRandom, 48, 3},
	}
	encodings := map[string][]byte{}
	for _, c := range coords {
		g, err := gc1.Get(c.fam, c.n, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		encodings[GraphKey(c.fam, c.n, c.seed)], _ = graph.EncodeCSR(g)
	}
	if st := gc1.Stats(); st.Builds != 3 || store.puts != 3 {
		t.Fatalf("first cache: stats %+v, %d puts", st, store.puts)
	}

	gc2 := NewGraphCache(store, 0)
	for _, c := range coords {
		g, err := gc2.Get(c.fam, c.n, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		if enc, _ := graph.EncodeCSR(g); !bytes.Equal(enc, encodings[GraphKey(c.fam, c.n, c.seed)]) {
			t.Fatalf("%s/%d/%d: restored graph differs from the built one", c.fam, c.n, c.seed)
		}
	}
	if st := gc2.Stats(); st.Builds != 0 || st.StoreHits != 3 {
		t.Fatalf("restore was not build-free: %+v", st)
	}
}

// TestGraphCacheCorruptBlobRebuilds: an undecodable store entry falls
// back to a rebuild and shadows the bad record.
func TestGraphCacheCorruptBlobRebuilds(t *testing.T) {
	store := newMapBlobStore()
	key := GraphKey(graph.FamilyCycle, 32, 5)
	store.m[key] = []byte("not a csr blob")
	gc := NewGraphCache(store, 0)
	g, err := gc.Get(graph.FamilyCycle, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st := gc.Stats(); st.Builds != 1 || st.StoreHits != 0 {
		t.Fatalf("corrupt blob not rebuilt: %+v", st)
	}
	if want, _ := graph.EncodeCSR(g); !bytes.Equal(store.m[key], want) {
		t.Fatal("rebuild did not shadow the corrupt record")
	}
}

// TestGraphCacheEvictionBound: the decoded-instance LRU respects its
// limit; evicted coordinates are restored from the store, not rebuilt.
func TestGraphCacheEvictionBound(t *testing.T) {
	store := newMapBlobStore()
	gc := NewGraphCache(store, 2)
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := gc.Get(graph.FamilyPath, 32, seed); err != nil {
			t.Fatal(err)
		}
	}
	st := gc.Stats()
	if st.Entries != 2 || st.Evictions != 1 || st.Builds != 3 {
		t.Fatalf("stats %+v", st)
	}
	// Seed 1 was evicted: the store restores it without a rebuild.
	if _, err := gc.Get(graph.FamilyPath, 32, 1); err != nil {
		t.Fatal(err)
	}
	if st := gc.Stats(); st.Builds != 3 || st.StoreHits != 1 {
		t.Fatalf("eviction refill rebuilt: %+v", st)
	}
}

// TestCollectBuildsEachGraphOnce is the tentpole acceptance at the
// runner level: a sweep whose grid shares topologies across points
// builds each distinct (family, n, GraphSeed) exactly once, and an
// immediately repeated sweep builds zero.
func TestCollectBuildsEachGraphOnce(t *testing.T) {
	gc := NewGraphCache(nil, 0)
	type row struct{ Hash string }
	sc := &Scenario[row]{
		Name:     "graphshare",
		Families: []graph.Family{graph.FamilyPath, graph.FamilyGrid2D},
		Ns:       []int{32, 64},
		Seeds:    []int64{1, 2},
		Points:   PointsK([]int{1, 2, 4}),
		Run: func(c *Cell) ([]row, error) {
			g, err := c.BuildGraph()
			if err != nil {
				return nil, err
			}
			h, err := graph.CSRHash(g)
			if err != nil {
				return nil, err
			}
			return []row{{Hash: h}}, nil
		},
	}
	distinct := 2 * 2 * 2 // families × ns × seeds; points share

	cold, err := Collect(&Runner{Workers: 8, Graphs: gc}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if st := gc.Stats(); int(st.Builds) != distinct {
		t.Fatalf("cold sweep built %d graphs, want %d (stats %+v)", st.Builds, distinct, st)
	}

	// The same sweep again: everything is a memory hit.
	warm, err := Collect(&Runner{Workers: 8, Graphs: gc}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if st := gc.Stats(); int(st.Builds) != distinct {
		t.Fatalf("repeated sweep built %d more graphs", int(st.Builds)-distinct)
	}
	for i := range cold {
		if cold[i] != warm[i] {
			t.Fatalf("row %d changed across cache reuse: %+v vs %+v", i, cold[i], warm[i])
		}
	}

	// And the rows are identical to a cache-free run: sharing does not
	// change what a cell measures.
	bare, err := Collect(&Runner{Workers: 1}, sc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bare {
		if bare[i] != cold[i] {
			t.Fatalf("row %d differs from the uncached run: %+v vs %+v", i, cold[i], bare[i])
		}
	}
}

// TestGraphCacheFailedBuildNotCached: a build error reaches every
// caller and leaves nothing behind — the next Get tries again, and
// nothing is counted, cached or persisted.
func TestGraphCacheFailedBuildNotCached(t *testing.T) {
	store := newMapBlobStore()
	gc := NewGraphCache(store, 0)
	for i := 0; i < 2; i++ {
		if g, err := gc.Get(graph.Family("no-such-family"), 32, 1); err == nil {
			t.Fatalf("Get %d: unknown family built %v", i, g)
		}
	}
	if st := gc.Stats(); st.Builds != 0 || st.Entries != 0 || store.puts != 0 {
		t.Fatalf("failed build left state behind: stats %+v, %d puts", st, store.puts)
	}
}
