package runner

// The topology layer (DESIGN.md §9). The paper's universal-optimality
// results are bounds *per input graph*: every point of a table row, and
// every resubmission of a sweep, measures the same instance of G. The
// runner encodes that by deriving a point-independent GraphSeed per
// cell — and the GraphCache exploits it: concurrent workers asking for
// the same (family, n, GraphSeed) coordinate build the graph exactly
// once (singleflight), share the immutable instance in memory, and
// persist its CSR encoding through the artifact store so later
// processes restore instead of rebuild. Sharing is safe because a
// graph.Graph has no mutators and every lazy annotation on it is
// atomic.

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// DefaultMaxGraphs bounds the decoded instances a GraphCache keeps in
// memory when NewGraphCache is given a non-positive limit. Evicted
// instances remain restorable from the blob store, if one is attached.
const DefaultMaxGraphs = 64

// BlobStore is the persistence hook of the graph cache: a
// content-addressed blob store, satisfied by artifact.Namespace.
// Implementations must be safe for concurrent use; values handed to
// Put and returned by Get are treated as immutable.
type BlobStore interface {
	Get(key string) ([]byte, bool)
	Put(key string, value []byte)
}

// GraphKey returns the content address of one topology coordinate. It
// covers the build inputs (family, n, seed) and graph.CodecVersion, so
// a codec format change orphans persisted topologies instead of
// misreading them.
func GraphKey(family graph.Family, n int, seed int64) string {
	h := sha256.New()
	fmt.Fprintf(h, "graph\x00codec=%d\x00family=%s\x00n=%d\x00seed=%d", graph.CodecVersion, family, n, seed)
	return hex.EncodeToString(h.Sum(nil))
}

// GraphCacheStats snapshots a GraphCache's effectiveness counters.
type GraphCacheStats struct {
	// Builds counts graphs constructed from scratch — the acceptance
	// invariant is one build per distinct (family, n, GraphSeed) across
	// a whole sweep, zero across a resubmission.
	Builds uint64 `json:"builds"`
	// MemHits counts Gets served by a decoded in-memory instance.
	MemHits uint64 `json:"mem_hits"`
	// StoreHits counts Gets restored by decoding a blob-store entry
	// (an artifact-tier hit: memory or disk segment).
	StoreHits uint64 `json:"store_hits"`
	// Dedups counts Gets that joined another worker's in-flight build
	// instead of starting their own (singleflight).
	Dedups uint64 `json:"dedups"`
	// Evictions counts decoded instances dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Entries is the number of decoded instances currently shared.
	Entries int `json:"entries"`
}

// GraphCache deduplicates topology construction across sweep cells,
// concurrent sweeps, and Pool tenants. Construct with NewGraphCache;
// attach to Runner.Graphs (or share one across many Runners).
type GraphCache struct {
	store     BlobStore // optional persistence; nil = memory only
	maxGraphs int

	mu       sync.Mutex
	graphs   map[string]*list.Element // key → lru element holding *graphEntry
	lru      *list.List               // front = most recently used
	inflight map[string]*graphCall

	builds, memHits, storeHits, dedups, evictions atomic.Uint64
}

type graphEntry struct {
	key string
	g   *graph.Graph
}

// graphCall is one in-flight build all concurrent askers share.
type graphCall struct {
	done chan struct{}
	g    *graph.Graph
	err  error
}

// NewGraphCache returns a cache holding up to maxGraphs decoded
// instances (non-positive means DefaultMaxGraphs), persisting CSR
// encodings through store when it is non-nil.
func NewGraphCache(store BlobStore, maxGraphs int) *GraphCache {
	if maxGraphs <= 0 {
		maxGraphs = DefaultMaxGraphs
	}
	return &GraphCache{
		store:     store,
		maxGraphs: maxGraphs,
		graphs:    make(map[string]*list.Element),
		lru:       list.New(),
		inflight:  make(map[string]*graphCall),
	}
}

// Get returns the graph of one topology coordinate, building it
// at most once per process regardless of how many workers ask
// concurrently. The returned instance is shared: callers must not
// assume exclusive ownership of anything reachable from it.
func (gc *GraphCache) Get(family graph.Family, n int, seed int64) (*graph.Graph, error) {
	key := GraphKey(family, n, seed)
	gc.mu.Lock()
	if el, ok := gc.graphs[key]; ok {
		gc.lru.MoveToFront(el)
		g := el.Value.(*graphEntry).g
		gc.mu.Unlock()
		gc.memHits.Add(1)
		return g, nil
	}
	if c, ok := gc.inflight[key]; ok {
		gc.mu.Unlock()
		gc.dedups.Add(1)
		<-c.done
		return c.g, c.err
	}
	c := &graphCall{done: make(chan struct{})}
	gc.inflight[key] = c
	gc.mu.Unlock()

	c.g, c.err = gc.load(family, n, seed, key)

	gc.mu.Lock()
	delete(gc.inflight, key)
	if c.err == nil {
		gc.insert(key, c.g)
	}
	gc.mu.Unlock()
	close(c.done)
	return c.g, c.err
}

// load produces the ready-to-share instance: the blob-store restore or
// fresh build, plus the lazy annotations worth computing exactly once.
func (gc *GraphCache) load(family graph.Family, n int, seed int64, key string) (*graph.Graph, error) {
	g, err := gc.loadBlob(family, n, seed, key)
	if err != nil {
		return nil, err
	}
	// Warm the lazy diameter while still under the singleflight: every
	// registered measurement reads it (the baseline formulas and the
	// min{·, D} predictions), and without this the cells released
	// together would each pay the all-sources sweep that sharing is
	// supposed to amortize. The codec carries the diameter, so a store
	// restore (disk or peer fill) arrives warm and this is free; only a
	// fresh build of an unseeded family pays it — in EncodeCSR when a
	// store is attached, here otherwise.
	g.Diameter()
	return g, nil
}

// loadBlob restores the graph from the blob store or builds and
// persists it. A blob that fails to decode (corruption, partial write)
// falls back to a rebuild — and the rebuilt encoding is re-put,
// shadowing the bad record.
func (gc *GraphCache) loadBlob(family graph.Family, n int, seed int64, key string) (*graph.Graph, error) {
	if gc.store != nil {
		if blob, ok := gc.store.Get(key); ok {
			if g, err := graph.DecodeCSR(blob); err == nil {
				gc.storeHits.Add(1)
				return g, nil
			}
		}
	}
	g, err := graph.Build(family, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	gc.builds.Add(1)
	if gc.store != nil {
		if blob, err := graph.EncodeCSR(g); err == nil {
			gc.store.Put(key, blob)
		}
	}
	return g, nil
}

// insert places a decoded instance into the LRU (caller holds gc.mu).
// Evicted instances stay alive for the cells already holding them; the
// cache merely stops handing them out.
func (gc *GraphCache) insert(key string, g *graph.Graph) {
	if el, ok := gc.graphs[key]; ok {
		gc.lru.MoveToFront(el)
		return
	}
	gc.graphs[key] = gc.lru.PushFront(&graphEntry{key: key, g: g})
	for gc.lru.Len() > gc.maxGraphs {
		back := gc.lru.Back()
		gc.lru.Remove(back)
		delete(gc.graphs, back.Value.(*graphEntry).key)
		gc.evictions.Add(1)
	}
}

// Stats snapshots the counters.
func (gc *GraphCache) Stats() GraphCacheStats {
	gc.mu.Lock()
	entries := gc.lru.Len()
	gc.mu.Unlock()
	return GraphCacheStats{
		Builds:    gc.builds.Load(),
		MemHits:   gc.memHits.Load(),
		StoreHits: gc.storeHits.Load(),
		Dedups:    gc.dedups.Load(),
		Evictions: gc.evictions.Load(),
		Entries:   entries,
	}
}
