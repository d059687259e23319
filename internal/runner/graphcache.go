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
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

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
	c *blobCache[*graph.Graph]
}

// NewGraphCache returns a cache holding up to maxGraphs decoded
// instances (non-positive means 64), persisting CSR encodings through
// store when it is non-nil.
func NewGraphCache(store BlobStore, maxGraphs int) *GraphCache {
	return &GraphCache{c: newBlobCache(store, maxGraphs, graph.EncodeCSR, graph.DecodeCSR)}
}

// Get returns the graph of one topology coordinate, building it
// at most once per process regardless of how many workers ask
// concurrently. The returned instance is shared: callers must not
// assume exclusive ownership of anything reachable from it.
func (gc *GraphCache) Get(family graph.Family, n int, seed int64) (*graph.Graph, error) {
	return gc.c.get(GraphKey(family, n, seed), anyGraph, func() (*graph.Graph, error) {
		g, err := graph.Build(family, n, rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, err
		}
		// Warm the lazy diameter while still under the singleflight:
		// every registered measurement reads it (the baseline formulas
		// and the min{·, D} predictions), and without this the cells
		// released together would each pay the all-sources sweep that
		// sharing is supposed to amortize. The codec carries the
		// diameter, so a store restore (disk or peer fill) arrives warm.
		g.Diameter()
		return g, nil
	})
}

// anyGraph accepts every instance: a topology key covers all of its
// build inputs, so whatever is stored under it is the graph asked for.
func anyGraph(*graph.Graph) bool { return true }

// Stats snapshots the counters.
func (gc *GraphCache) Stats() GraphCacheStats {
	return GraphCacheStats{
		Builds:    gc.c.builds.Load(),
		MemHits:   gc.c.memHits.Load(),
		StoreHits: gc.c.storeHits.Load(),
		Dedups:    gc.c.dedups.Load(),
		Evictions: gc.c.evictions.Load(),
		Entries:   gc.c.len(),
	}
}
