package runner

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/nq"
)

// profileCacheGraph builds the shared instance of one coordinate
// the way a sweep would (through a GraphCache).
func profileCacheGraph(t *testing.T, fam graph.Family, n int, seed int64) *graph.Graph {
	t.Helper()
	g, err := NewGraphCache(nil, 0).Get(fam, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestProfileCacheSharedArtifact: repeated Attach calls for one
// coordinate compute the profile once, memoize it on the graph, and
// serve later calls from the attachment.
func TestProfileCacheSharedArtifact(t *testing.T) {
	pc := NewProfileCache(nil, 0)
	g := profileCacheGraph(t, graph.FamilyGrid2D, 64, 7)
	p1 := pc.Attach(g, graph.FamilyGrid2D, 64, 7)
	p2 := pc.Attach(g, graph.FamilyGrid2D, 64, 7)
	if p1 != p2 {
		t.Fatal("same coordinate returned distinct artifacts")
	}
	if g.Profiles() != p1 {
		t.Fatal("artifact not memoized on the graph")
	}
	want := graph.EncodeProfiles(g.BallProfiles(graph.ProfileRadius(g.N(), g.Diameter())))
	if !bytes.Equal(graph.EncodeProfiles(p1), want) {
		t.Fatal("cached artifact differs from a direct computation")
	}
	st := pc.Stats()
	if st.Computes != 1 || st.AttachHits != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestProfileCacheSingleflight: concurrent workers asking for the same
// coordinate trigger exactly one computation.
func TestProfileCacheSingleflight(t *testing.T) {
	pc := NewProfileCache(nil, 0)
	g := profileCacheGraph(t, graph.FamilyExpander, 128, 3)
	const workers = 16
	out := make([]*graph.Profiles, workers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			out[w] = pc.Attach(g, graph.FamilyExpander, 128, 3)
		}(w)
	}
	close(start)
	wg.Wait()
	for _, p := range out[1:] {
		if p != out[0] {
			t.Fatal("concurrent Attaches returned distinct artifacts")
		}
	}
	if st := pc.Stats(); st.Computes != 1 {
		t.Fatalf("%d concurrent Attaches computed %d profiles, want 1 (stats %+v)", workers, st.Computes, st)
	}
}

// TestProfileCachePersistRestore: a second cache over the same blob
// store restores artifacts by decoding, computing nothing — the
// resubmission path of a persistent sweep service.
func TestProfileCachePersistRestore(t *testing.T) {
	store := newMapBlobStore()
	pc1 := NewProfileCache(store, 0)
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
		g := profileCacheGraph(t, c.fam, c.n, c.seed)
		p := pc1.Attach(g, c.fam, c.n, c.seed)
		encodings[ProfileKey(c.fam, c.n, c.seed)] = graph.EncodeProfiles(p)
	}
	if st := pc1.Stats(); st.Computes != 3 || store.puts != 3 {
		t.Fatalf("first cache: stats %+v, %d puts", st, store.puts)
	}

	pc2 := NewProfileCache(store, 0)
	for _, c := range coords {
		g := profileCacheGraph(t, c.fam, c.n, c.seed)
		p := pc2.Attach(g, c.fam, c.n, c.seed)
		if enc := graph.EncodeProfiles(p); !bytes.Equal(enc, encodings[ProfileKey(c.fam, c.n, c.seed)]) {
			t.Fatalf("%s/%d/%d: restored artifact differs from the computed one", c.fam, c.n, c.seed)
		}
	}
	if st := pc2.Stats(); st.Computes != 0 || st.StoreHits != 3 {
		t.Fatalf("restore was not computation-free: %+v", st)
	}
}

// TestProfileCacheCorruptBlobRecomputes: an undecodable store entry
// falls back to a recomputation and shadows the bad record.
func TestProfileCacheCorruptBlobRecomputes(t *testing.T) {
	store := newMapBlobStore()
	key := ProfileKey(graph.FamilyCycle, 32, 5)
	store.m[key] = []byte("not a profile blob")
	pc := NewProfileCache(store, 0)
	g := profileCacheGraph(t, graph.FamilyCycle, 32, 5)
	p := pc.Attach(g, graph.FamilyCycle, 32, 5)
	if st := pc.Stats(); st.Computes != 1 || st.StoreHits != 0 {
		t.Fatalf("corrupt blob not recomputed: %+v", st)
	}
	if !bytes.Equal(store.m[key], graph.EncodeProfiles(p)) {
		t.Fatal("recomputation did not shadow the corrupt record")
	}
}

// TestProfileCacheEvictionBound: the decoded-artifact LRU respects its
// limit; evicted coordinates are restored from the store, not
// recomputed.
func TestProfileCacheEvictionBound(t *testing.T) {
	store := newMapBlobStore()
	pc := NewProfileCache(store, 2)
	for seed := int64(1); seed <= 3; seed++ {
		pc.Attach(profileCacheGraph(t, graph.FamilyPath, 32, seed), graph.FamilyPath, 32, seed)
	}
	st := pc.Stats()
	if st.Entries != 2 || st.Evictions != 1 || st.Computes != 3 {
		t.Fatalf("stats %+v", st)
	}
	// Seed 1 was evicted: the store restores it without a recompute.
	pc.Attach(profileCacheGraph(t, graph.FamilyPath, 32, 1), graph.FamilyPath, 32, 1)
	if st := pc.Stats(); st.Computes != 3 || st.StoreHits != 1 {
		t.Fatalf("eviction refill recomputed: %+v", st)
	}
}

// TestCollectComputesEachProfileOnce is the tentpole acceptance at the
// runner level: an nqscaling-shaped sweep whose cells share topologies
// across k-points computes each distinct coordinate's ball profile
// exactly once, a repeated sweep computes zero, and the NQ values are
// identical to a profile-free run.
func TestCollectComputesEachProfileOnce(t *testing.T) {
	gc := NewGraphCache(nil, 0)
	pc := NewProfileCache(nil, 0)
	type row struct{ NQ int }
	sc := &Scenario[row]{
		Name:     "profileshare",
		Families: []graph.Family{graph.FamilyPath, graph.FamilyGrid2D},
		Ns:       []int{32, 64},
		Seeds:    []int64{1, 2},
		Points:   PointsK([]int{4, 16, 64, 256}),
		Run: func(c *Cell) ([]row, error) {
			g, err := c.BuildGraph()
			if err != nil {
				return nil, err
			}
			c.BallProfiles(g)
			q, err := nq.Of(g, c.Point.K)
			if err != nil {
				return nil, err
			}
			return []row{{NQ: q}}, nil
		},
	}
	distinct := 2 * 2 * 2 // families × ns × seeds; k-points share

	cold, err := Collect(&Runner{Workers: 8, Graphs: gc, Profiles: pc}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if st := pc.Stats(); int(st.Computes) != distinct {
		t.Fatalf("cold sweep computed %d profiles, want %d (stats %+v)", st.Computes, distinct, st)
	}

	warm, err := Collect(&Runner{Workers: 8, Graphs: gc, Profiles: pc}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if st := pc.Stats(); int(st.Computes) != distinct {
		t.Fatalf("repeated sweep computed %d more profiles", int(st.Computes)-distinct)
	}

	// Rows are identical to a run with no profile layer at all: the
	// profile path answers exactly what per-cell ball growth answers.
	bare, err := Collect(&Runner{Workers: 1}, &Scenario[row]{
		Name:     sc.Name,
		Families: sc.Families,
		Ns:       sc.Ns,
		Seeds:    sc.Seeds,
		Points:   sc.Points,
		Run: func(c *Cell) ([]row, error) {
			g, err := c.BuildGraph()
			if err != nil {
				return nil, err
			}
			q, err := nq.Of(g, c.Point.K)
			if err != nil {
				return nil, err
			}
			return []row{{NQ: q}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range bare {
		if bare[i] != cold[i] || cold[i] != warm[i] {
			t.Fatalf("row %d differs across modes: bare=%+v cold=%+v warm=%+v", i, bare[i], cold[i], warm[i])
		}
	}
}

// TestProfileCacheMismatchedArtifactRecomputes: an artifact stored or
// cached under a coordinate's key but grown on a graph of another size
// never serves the caller — a stored blob is recomputed and shadowed,
// and so is a memory entry that does not fit the caller's graph.
func TestProfileCacheMismatchedArtifactRecomputes(t *testing.T) {
	store := newMapBlobStore()
	key := ProfileKey(graph.FamilyPath, 32, 1)
	small := profileCacheGraph(t, graph.FamilyPath, 16, 1)
	store.m[key] = graph.EncodeProfiles(small.BallProfiles(graph.ProfileRadius(small.N(), small.Diameter())))
	pc := NewProfileCache(store, 0)

	g := profileCacheGraph(t, graph.FamilyPath, 32, 1)
	p := pc.Attach(g, graph.FamilyPath, 32, 1)
	if p.N() != g.N() {
		t.Fatalf("served an artifact of %d nodes for a %d-node graph", p.N(), g.N())
	}
	if st := pc.Stats(); st.Computes != 1 || st.StoreHits != 0 {
		t.Fatalf("mismatched blob not recomputed: %+v", st)
	}
	if !bytes.Equal(store.m[key], graph.EncodeProfiles(p)) {
		t.Fatal("recomputation did not shadow the mismatched record")
	}

	// The memory entry now holds the 32-node artifact; a caller with a
	// graph of another size under the same key gets its own.
	other := profileCacheGraph(t, graph.FamilyPath, 16, 1)
	q := pc.Attach(other, graph.FamilyPath, 32, 1)
	if q.N() != other.N() {
		t.Fatalf("served an artifact of %d nodes for a %d-node graph", q.N(), other.N())
	}
	if st := pc.Stats(); st.Computes != 2 || st.MemHits != 0 || st.StoreHits != 0 {
		t.Fatalf("mismatched memory entry served: %+v", st)
	}
}
