package runner

// The derived-artifact layer over the topology cache (DESIGN.md §10).
// A ball-profile artifact (graph.Profiles) is a pure function of one
// topology coordinate, just like the graph itself — so the same
// content-addressing that shares graphs across sweep cells
// (GraphCache, §9) shares the profiles derived from them: concurrent
// workers asking for the same (family, n, GraphSeed) coordinate
// compute the profile exactly once (singleflight), share the immutable
// decoded artifact in memory, and persist its encoding through the
// artifact store's "profiles" namespace so later processes restore
// instead of recompute. An entire nqscaling sweep therefore grows ball
// profiles once per distinct graph — and zero times on resubmission.

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// DefaultMaxProfiles bounds the decoded artifacts a ProfileCache keeps
// in memory when NewProfileCache is given a non-positive limit.
const DefaultMaxProfiles = 64

// ProfileKey returns the content address of one topology coordinate's
// ball-profile artifact. It covers the build inputs (family, n, seed),
// graph.CodecVersion (the profile derives from the decoded topology)
// and graph.ProfilesCodecVersion (wire format and truncation policy),
// so a change to either orphans persisted artifacts instead of
// misreading them.
func ProfileKey(family graph.Family, n int, seed int64) string {
	h := sha256.New()
	fmt.Fprintf(h, "profiles\x00codec=%d\x00profilecodec=%d\x00family=%s\x00n=%d\x00seed=%d",
		graph.CodecVersion, graph.ProfilesCodecVersion, family, n, seed)
	return hex.EncodeToString(h.Sum(nil))
}

// ProfileCacheStats snapshots a ProfileCache's effectiveness counters.
type ProfileCacheStats struct {
	// Computes counts profiles grown from scratch by the batch kernel —
	// the acceptance invariant is one per distinct (family, n,
	// GraphSeed) across a whole sweep, zero across a resubmission.
	Computes uint64 `json:"computes"`
	// AttachHits counts Gets answered by a profile already attached to
	// the shared graph instance (the cheapest path: no lock, no lookup).
	AttachHits uint64 `json:"attach_hits"`
	// MemHits counts Gets served by a decoded in-memory artifact.
	MemHits uint64 `json:"mem_hits"`
	// StoreHits counts Gets restored by decoding a blob-store entry.
	StoreHits uint64 `json:"store_hits"`
	// Dedups counts Gets that joined another worker's in-flight
	// computation instead of starting their own (singleflight).
	Dedups uint64 `json:"dedups"`
	// Evictions counts decoded artifacts dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Entries is the number of decoded artifacts currently shared.
	Entries int `json:"entries"`
}

// ProfileCache deduplicates ball-profile computation across sweep
// cells, concurrent sweeps, and Pool tenants. Construct with
// NewProfileCache; attach to Runner.Profiles (or share one across many
// Runners, typically alongside the GraphCache it mirrors).
type ProfileCache struct {
	store       BlobStore // optional persistence; nil = memory only
	maxProfiles int

	mu       sync.Mutex
	profiles map[string]*list.Element // key → lru element holding *profileEntry
	lru      *list.List               // front = most recently used
	inflight map[string]*profileCall

	computes, attachHits, memHits, storeHits, dedups, evictions atomic.Uint64
}

type profileEntry struct {
	key string
	p   *graph.Profiles
}

// profileCall is one in-flight computation all concurrent askers share.
type profileCall struct {
	done chan struct{}
	p    *graph.Profiles
}

// NewProfileCache returns a cache holding up to maxProfiles decoded
// artifacts (non-positive means DefaultMaxProfiles), persisting
// encodings through store when it is non-nil.
func NewProfileCache(store BlobStore, maxProfiles int) *ProfileCache {
	if maxProfiles <= 0 {
		maxProfiles = DefaultMaxProfiles
	}
	return &ProfileCache{
		store:       store,
		maxProfiles: maxProfiles,
		profiles:    make(map[string]*list.Element),
		lru:         list.New(),
		inflight:    make(map[string]*profileCall),
	}
}

// Attach returns the ball-profile artifact of one topology coordinate,
// computing it at most once per process regardless of how many workers
// ask concurrently, and memoizes it on g so every NQ query against the
// shared instance answers from the profile. g must be the graph of the
// same coordinate (the one Cell.BuildGraph returned). The returned
// artifact is immutable and shared.
func (pc *ProfileCache) Attach(g *graph.Graph, family graph.Family, n int, seed int64) *graph.Profiles {
	// The canonical radius is a function of the graph alone, so the
	// artifact's content never depends on which cell asked first.
	radius := graph.ProfileRadius(g.N(), g.Diameter())
	if p := g.Profiles(); p != nil && p.Covers(radius) {
		pc.attachHits.Add(1)
		return p
	}
	key := ProfileKey(family, n, seed)
	pc.mu.Lock()
	if el, ok := pc.profiles[key]; ok {
		p := el.Value.(*profileEntry).p
		if pc.usable(p, g, radius) {
			pc.lru.MoveToFront(el)
			pc.mu.Unlock()
			pc.memHits.Add(1)
			return g.AttachProfiles(p)
		}
		// A stale entry (policy change, or a key collision across
		// mismatched graphs) is dropped and recomputed below.
		pc.lru.Remove(el)
		delete(pc.profiles, key)
	}
	if c, ok := pc.inflight[key]; ok {
		pc.mu.Unlock()
		pc.dedups.Add(1)
		<-c.done
		if pc.usable(c.p, g, radius) {
			return g.AttachProfiles(c.p)
		}
		// The joined computation ran against a different instance
		// (possible only under key collisions); fall back to a local
		// computation without poisoning the cache.
		return g.AttachProfiles(g.BallProfiles(radius))
	}
	c := &profileCall{done: make(chan struct{})}
	pc.inflight[key] = c
	pc.mu.Unlock()

	c.p = pc.load(g, radius, key)

	pc.mu.Lock()
	delete(pc.inflight, key)
	pc.insert(key, c.p)
	pc.mu.Unlock()
	close(c.done)
	return g.AttachProfiles(c.p)
}

// usable reports whether a cached artifact fits this graph and covers
// the canonical radius (a deeper or complete artifact also qualifies).
func (pc *ProfileCache) usable(p *graph.Profiles, g *graph.Graph, radius int) bool {
	return p != nil && p.N() == g.N() && p.Covers(radius)
}

// load restores the artifact from the blob store or computes and
// persists it. A blob that fails to decode, mismatches the graph, or
// predates a deeper truncation policy falls back to a recomputation —
// and the fresh encoding is re-put, shadowing the stale record.
func (pc *ProfileCache) load(g *graph.Graph, radius int, key string) *graph.Profiles {
	if pc.store != nil {
		if blob, ok := pc.store.Get(key); ok {
			if p, err := graph.DecodeProfiles(blob); err == nil && pc.usable(p, g, radius) {
				pc.storeHits.Add(1)
				return p
			}
		}
	}
	p := g.BallProfiles(radius)
	pc.computes.Add(1)
	if pc.store != nil {
		pc.store.Put(key, graph.EncodeProfiles(p))
	}
	return p
}

// insert places a decoded artifact into the LRU (caller holds pc.mu).
// Evicted artifacts stay alive for the graphs they are attached to;
// the cache merely stops handing them out.
func (pc *ProfileCache) insert(key string, p *graph.Profiles) {
	if el, ok := pc.profiles[key]; ok {
		el.Value.(*profileEntry).p = p
		pc.lru.MoveToFront(el)
		return
	}
	pc.profiles[key] = pc.lru.PushFront(&profileEntry{key: key, p: p})
	for pc.lru.Len() > pc.maxProfiles {
		back := pc.lru.Back()
		pc.lru.Remove(back)
		delete(pc.profiles, back.Value.(*profileEntry).key)
		pc.evictions.Add(1)
	}
}

// Stats snapshots the counters.
func (pc *ProfileCache) Stats() ProfileCacheStats {
	pc.mu.Lock()
	entries := pc.lru.Len()
	pc.mu.Unlock()
	return ProfileCacheStats{
		Computes:   pc.computes.Load(),
		AttachHits: pc.attachHits.Load(),
		MemHits:    pc.memHits.Load(),
		StoreHits:  pc.storeHits.Load(),
		Dedups:     pc.dedups.Load(),
		Evictions:  pc.evictions.Load(),
		Entries:    entries,
	}
}
