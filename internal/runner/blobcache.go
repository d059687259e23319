package runner

// The one derived-artifact cache (DESIGN.md §9–§10). A topology and
// its ball profiles are both pure functions of one (family, n,
// GraphSeed) coordinate, so GraphCache and ProfileCache are thin
// front-ends over this core: each supplies a content address, a codec
// and a build, and the core shares the decoded value in a bounded LRU,
// builds it at most once per process (singleflight), and persists its
// encoding through an optional BlobStore so later processes restore
// instead of rebuild.

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// defaultMaxEntries bounds the decoded values a cache keeps in memory
// when its constructor is given a non-positive limit. Evicted values
// remain restorable from the blob store, if one is attached.
const defaultMaxEntries = 64

// BlobStore is the persistence hook of the derived-artifact caches: a
// content-addressed blob store, satisfied by artifact.Namespace.
// Implementations must be safe for concurrent use; values handed to
// Put and returned by Get are treated as immutable.
type BlobStore interface {
	Get(key string) ([]byte, bool)
	Put(key string, value []byte)
}

// blobCache is the shared core of GraphCache and ProfileCache.
type blobCache[V any] struct {
	store  BlobStore // optional persistence; nil = memory only
	encode func(V) ([]byte, error)
	decode func([]byte) (V, error)
	max    int

	mu       sync.Mutex
	entries  map[string]*list.Element // key → lru element holding *blobEntry[V]
	lru      *list.List               // front = most recently used
	inflight map[string]*blobCall[V]

	builds, memHits, storeHits, dedups, evictions atomic.Uint64
}

type blobEntry[V any] struct {
	key string
	v   V
}

// blobCall is one in-flight load all concurrent askers share.
type blobCall[V any] struct {
	done chan struct{}
	v    V
	err  error
}

func newBlobCache[V any](store BlobStore, max int, encode func(V) ([]byte, error), decode func([]byte) (V, error)) *blobCache[V] {
	if max <= 0 {
		max = defaultMaxEntries
	}
	return &blobCache[V]{
		store:    store,
		encode:   encode,
		decode:   decode,
		max:      max,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		inflight: make(map[string]*blobCall[V]),
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
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		if v := el.Value.(*blobEntry[V]).v; fits(v) {
			c.lru.MoveToFront(el)
			c.mu.Unlock()
			c.memHits.Add(1)
			return v, nil
		}
		c.lru.Remove(el)
		delete(c.entries, key)
	}
	if call, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		c.dedups.Add(1)
		<-call.done
		if call.err != nil || fits(call.v) {
			return call.v, call.err
		}
		return build()
	}
	call := &blobCall[V]{done: make(chan struct{})}
	c.inflight[key] = call
	c.mu.Unlock()

	call.v, call.err = c.load(key, fits, build)

	c.mu.Lock()
	delete(c.inflight, key)
	if call.err == nil {
		c.insert(key, call.v)
	}
	c.mu.Unlock()
	close(call.done)
	return call.v, call.err
}

// load restores the value from the blob store or builds and persists
// it. A blob that fails to decode (corruption, partial write) or does
// not fit falls back to a rebuild — and the fresh encoding is re-put,
// shadowing the bad record.
func (c *blobCache[V]) load(key string, fits func(V) bool, build func() (V, error)) (V, error) {
	if c.store != nil {
		if blob, ok := c.store.Get(key); ok {
			if v, err := c.decode(blob); err == nil && fits(v) {
				c.storeHits.Add(1)
				return v, nil
			}
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

// insert places a decoded value into the LRU (caller holds c.mu).
// Evicted values stay alive for the callers already holding them; the
// cache merely stops handing them out.
func (c *blobCache[V]) insert(key string, v V) {
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
