package runner

// The derived-artifact layer over the topology cache (DESIGN.md §10).
// A ball-profile artifact (graph.Profiles) is a pure function of one
// topology coordinate, just like the graph itself — so the same
// content-addressed core that shares graphs across sweep cells
// (GraphCache, §9) shares the profiles derived from them: concurrent
// workers asking for the same topology (keyed like GraphKey, the seed
// folded away for seed-free families) compute the profile exactly once
// (singleflight), share the immutable
// decoded artifact in memory, and persist its encoding through the
// artifact store's "profiles" namespace so later processes restore
// instead of recompute. An entire nqscaling sweep therefore grows ball
// profiles once per distinct graph — and zero times on resubmission.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync/atomic"

	"repro/internal/graph"
)

// ProfileKey returns the content address of one topology coordinate's
// ball-profile artifact. It covers the build inputs (family, n, and
// the seed if the family is seeded, as in GraphKey),
// graph.CodecVersion (the profile derives from the decoded topology)
// and graph.ProfilesCodecVersion (wire format and truncation policy),
// so a change to either orphans persisted artifacts instead of
// misreading them.
func ProfileKey(family graph.Family, n int, seed int64) string {
	h := sha256.New()
	fmt.Fprintf(h, "profiles\x00codec=%d\x00profilecodec=%d\x00family=%s\x00n=%d\x00seed=%d",
		graph.CodecVersion, graph.ProfilesCodecVersion, family, n, topologySeed(family, seed))
	return hex.EncodeToString(h.Sum(nil))
}

// ProfileCacheStats snapshots a ProfileCache's effectiveness counters.
type ProfileCacheStats struct {
	// Computes counts profiles this cache grew from scratch with the
	// batch kernel — at most one per distinct ProfileKey per process
	// (one per (family, n) for a seed-free family), zero across a
	// resubmission. Profiles that nq grows itself for a graph the
	// cache never saw (the NQ queries of tables 1–3) are not counted.
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
// Runners, typically alongside a GraphCache).
type ProfileCache struct {
	c          *blobCache[*graph.Profiles]
	attachHits atomic.Uint64
}

// NewProfileCache returns a cache holding up to maxProfiles decoded
// artifacts (non-positive means 64), persisting encodings through
// store when it is non-nil.
func NewProfileCache(store BlobStore, maxProfiles int) *ProfileCache {
	encode := func(p *graph.Profiles) ([]byte, error) { return graph.EncodeProfiles(p), nil }
	return &ProfileCache{c: newBlobCache(store, maxProfiles, encode, graph.DecodeProfiles)}
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
	// An artifact serves g if it was grown on a graph of g's size and
	// decides every k ≤ K, as the canonical one does: every row stops
	// at 9n within the canonical radius, and the families whose m
	// exceeds 9n have D within it. Anything else — a policy change, or
	// a key collision across mismatched graphs — is recomputed.
	stop := g.ProfileStop()
	fits := func(p *graph.Profiles) bool { return p != nil && p.N() == g.N() && p.Decides(stop) }
	if p := g.AttachedProfiles(); fits(p) {
		pc.attachHits.Add(1)
		return p
	}
	// The build cannot fail, so neither can get. Profiles that g holds
	// at the canonical radius are the artifact itself — the Diameter
	// pass keeps them when they are short — so the build takes them
	// instead of running the kernel again, and they are counted and
	// persisted like a computed artifact.
	p, _ := pc.c.get(ProfileKey(family, n, seed), fits, func() (*graph.Profiles, error) {
		if p := g.Profiles(); p != nil && p.MaxR() == radius {
			return p, nil
		}
		return g.BallProfiles(radius), nil
	})
	return g.AttachProfiles(p)
}

// Stats snapshots the counters.
func (pc *ProfileCache) Stats() ProfileCacheStats {
	return ProfileCacheStats{
		Computes:   pc.c.builds.Load(),
		AttachHits: pc.attachHits.Load(),
		MemHits:    pc.c.memHits.Load(),
		StoreHits:  pc.c.storeHits.Load(),
		Dedups:     pc.c.dedups.Load(),
		Evictions:  pc.c.evictions.Load(),
		Entries:    pc.c.len(),
	}
}
