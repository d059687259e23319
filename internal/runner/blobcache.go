package runner

// The one derived-artifact cache (DESIGN.md §9–§10). A topology and
// its ball profiles are both pure functions of one topology coordinate
// — (family, n, GraphSeed) for a seeded family, (family, n) for a
// seed-free one — so GraphCache and ProfileCache are thin
// front-ends over this core: each supplies a content address, a codec
// and a build, and the core shares the decoded value in a bounded LRU,
// builds it at most once per process (internal/singleflight), and
// persists its encoding through an optional BlobStore so later
// processes restore instead of rebuild.

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/singleflight"
)

// defaultMaxEntries bounds the decoded values a cache keeps in memory
// when its constructor is given a non-positive limit. Evicted values
// remain restorable from the blob store, if one is attached.
const defaultMaxEntries = 64

// BlobStore is the one store interface of the runner: a
// content-addressed blob store, the persistence hook of the
// derived-artifact caches and, as CellCache, the cell-row cache. It is
// satisfied by artifact.Namespace. Implementations must be safe for
// concurrent use; values handed to Put and returned by Get are treated
// as immutable.
type BlobStore interface {
	Get(key string) ([]byte, bool)
	Put(key string, value []byte)
}

// rejecter is the optional half of a BlobStore that counts its blobs'
// use: Reject reports that a blob one of its Gets returned could not be
// used (it failed to decode, or decoded to a value that does not fit),
// so the store can count that Get as a miss. artifact.Namespace
// implements it; BlobStore stays Get/Put, so a wrapper without it still
// serves.
type rejecter interface {
	Reject()
}

// reject tells store, if it counts rejections, that a blob one of its
// Gets returned was unusable.
func reject(store BlobStore) {
	if r, ok := store.(rejecter); ok {
		r.Reject()
	}
}

// blobCache is the shared core of GraphCache and ProfileCache.
type blobCache[V any] struct {
	store  BlobStore // optional persistence; nil = memory only
	encode func(V) ([]byte, error)
	decode func([]byte) (V, error)
	max    int
	flight singleflight.Group[V]

	mu      sync.Mutex
	entries map[string]*list.Element // key → lru element holding *blobEntry[V]
	lru     *list.List               // front = most recently used

	// testHookMissed, when set by a test, runs in get between the
	// memory miss and the flight.
	testHookMissed func(key string)

	builds, memHits, storeHits, dedups, evictions atomic.Uint64
}

type blobEntry[V any] struct {
	key string
	v   V
}

func newBlobCache[V any](store BlobStore, max int, encode func(V) ([]byte, error), decode func([]byte) (V, error)) *blobCache[V] {
	if max <= 0 {
		max = defaultMaxEntries
	}
	return &blobCache[V]{
		store:   store,
		encode:  encode,
		decode:  decode,
		max:     max,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// get returns the value stored under key, loading it at most once per
// process regardless of how many workers ask concurrently. fits
// reports whether a value found under key serves this caller; one that
// does not (a policy change, or a key collision across mismatched
// inputs) is rebuilt — a memory entry or a stored blob is replaced, a
// joined call's value is rebuilt locally without poisoning the cache.
// A failed build is returned to every joined caller and neither cached
// nor persisted.
func (c *blobCache[V]) get(key string, fits func(V) bool, build func() (V, error)) (V, error) {
	if v, ok := c.lookup(key, fits); ok {
		return v, nil
	}
	if c.testHookMissed != nil {
		c.testHookMissed(key)
	}
	v, err, joined := c.flight.Do(key, func() (V, error) {
		// The miss above happened outside the flight, so a previous
		// leader may have inserted the value and retired in between.
		// Look once more before loading.
		if v, ok := c.lookup(key, fits); ok {
			return v, nil
		}
		v, err := c.load(key, fits, build)
		if err == nil {
			c.insert(key, v)
		}
		return v, err
	})
	if joined {
		c.dedups.Add(1)
		if err == nil && !fits(v) {
			return build()
		}
	}
	return v, err
}

// lookup returns the memory entry under key if it fits the caller,
// counting a memory hit; an entry that does not fit is dropped.
func (c *blobCache[V]) lookup(key string, fits func(V) bool) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		if v := el.Value.(*blobEntry[V]).v; fits(v) {
			c.lru.MoveToFront(el)
			c.memHits.Add(1)
			return v, true
		}
		c.lru.Remove(el)
		delete(c.entries, key)
	}
	var zero V
	return zero, false
}

// load restores the value from the blob store or builds and persists
// it. A blob that fails to decode (corruption, partial write) or does
// not fit is rejected back to the store and falls back to a rebuild —
// and the fresh encoding is re-put, shadowing the bad record.
func (c *blobCache[V]) load(key string, fits func(V) bool, build func() (V, error)) (V, error) {
	if c.store != nil {
		if blob, ok := c.store.Get(key); ok {
			if v, err := c.decode(blob); err == nil && fits(v) {
				c.storeHits.Add(1)
				return v, nil
			}
			reject(c.store)
		}
	}
	v, err := build()
	if err != nil {
		return v, err
	}
	c.builds.Add(1)
	if c.store != nil {
		if blob, err := c.encode(v); err == nil {
			c.store.Put(key, blob)
		}
	}
	return v, nil
}

// insert places a decoded value into the LRU. Evicted values stay
// alive for the callers already holding them; the cache merely stops
// handing them out.
func (c *blobCache[V]) insert(key string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[key] = c.lru.PushFront(&blobEntry[V]{key: key, v: v})
	for c.lru.Len() > c.max {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*blobEntry[V]).key)
		c.evictions.Add(1)
	}
}

// len returns the number of decoded values currently shared.
func (c *blobCache[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
