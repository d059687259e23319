// Package artifact is the content-addressed blob layer under the sweep
// pipeline (DESIGN.md §9): a namespaced, generic two-tier store that
// serves every artifact kind the harness content-addresses — encoded
// result rows (namespace "results", see runner.CellCache) and
// CSR graph topologies (namespace "graphs", see
// runner.GraphCache) — through one byte-bounded memory tier and one
// persistent disk tier.
//
// The store generalizes the result cache of DESIGN.md §7, and the same
// universal-optimality reading applies: just as Chang, Hecht,
// Leitersdorf and Schneider (PODC 2024) replace worst-case bounds with
// per-input-graph guarantees, every blob here is instance-keyed —
// valid for exactly one content address and byte-reproducible from it.
// Sharing one topology across every point of a table row is the
// storage-side counterpart of the paper's "bounds are functions of the
// graph" move.
//
// Layout: a Store owns the tiers; a Namespace is a named view of them.
// The memory tier is a 16-shard byte-bounded LRU over (namespace, key)
// pairs; the disk tier is an append-only log of binary segments shared
// by all namespaces, each record one CRC-32C-checked frame carrying its
// namespace, key and value (see disk.go). Gets fall through memory to
// disk (promoting hits, verifying every frame read back); Puts write
// through to both. Stats are kept per namespace and for the disk tier.
// All methods are safe for concurrent use.
package artifact

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// shardCount spreads lock contention; keys are uniform (SHA-256 hex),
// so a power of two gives balanced shards.
const shardCount = 16

// DefaultMaxBytes is the memory budget used when NewStore is given a
// non-positive one.
const DefaultMaxBytes = 64 << 20

// DefaultNamespace is the namespace Store.Namespace("") resolves to —
// the result rows, which predate the namespace scheme.
const DefaultNamespace = "results"

// Stats is a point-in-time snapshot of one namespace's (or the whole
// store's) effectiveness counters.
type Stats struct {
	// Hits counts Gets served from memory or disk.
	Hits uint64 `json:"hits"`
	// Misses counts Gets served by neither tier.
	Misses uint64 `json:"misses"`
	// Puts counts stored values.
	Puts uint64 `json:"puts"`
	// Evictions counts entries dropped from the memory tier by the LRU
	// policy (they remain readable from the disk tier, if enabled).
	Evictions uint64 `json:"evictions"`
	// DiskHits counts the subset of Hits that fell through to the disk
	// tier (and were promoted back into memory).
	DiskHits uint64 `json:"disk_hits"`
	// DiskPuts counts records appended to the disk tier.
	DiskPuts uint64 `json:"disk_puts"`
	// Fills counts Gets served by the remote fill hook (see SetFill):
	// local misses healed by a verified peer fetch.
	Fills uint64 `json:"fills,omitempty"`
	// FillRejects counts remote blobs discarded because their bytes
	// did not match the advertised content hash.
	FillRejects uint64 `json:"fill_rejects,omitempty"`
	// FillErrors counts fill attempts that failed for any reason other
	// than a clean remote miss (ErrFillUnavailable).
	FillErrors uint64 `json:"fill_errors,omitempty"`
	// Entries and Bytes describe the current memory tier.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// HitRate returns Hits/(Hits+Misses), or 0 before any Get.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Puts += o.Puts
	s.Evictions += o.Evictions
	s.DiskHits += o.DiskHits
	s.DiskPuts += o.DiskPuts
	s.Fills += o.Fills
	s.FillRejects += o.FillRejects
	s.FillErrors += o.FillErrors
	s.Entries += o.Entries
	s.Bytes += o.Bytes
}

// DiskStats describes the persistent tier.
type DiskStats struct {
	// Segments is the number of segment files.
	Segments int `json:"segments"`
	// Bytes is the total size of all segments.
	Bytes int64 `json:"bytes"`
	// LiveBytes is the subset of Bytes still referenced by the index;
	// the difference is dead weight (shadowed, torn, or orphaned
	// records) the collector may reclaim.
	LiveBytes int64 `json:"live_bytes"`
	// Entries is the number of distinct keys the index serves.
	Entries int `json:"entries"`
	// Reindexed counts the distinct keys recovered from pre-existing
	// segments when the store was opened (restart recovery; shadowed
	// re-put records collapse into their final key).
	Reindexed int `json:"reindexed"`
	// Compactions counts GC passes that rewrote or dropped a segment.
	Compactions int `json:"compactions"`
	// SegmentsCompacted counts sealed segments rewritten (live records
	// moved forward, file deleted) because their live ratio fell below
	// the threshold.
	SegmentsCompacted int `json:"segments_compacted"`
	// SegmentsDropped counts segments deleted whole to enforce the
	// byte bound, live records included, and segments of the retired
	// JSONL format deleted on open.
	SegmentsDropped int `json:"segments_dropped"`
	// RecordsCollected counts index entries discarded by the retain
	// filter or a segment drop.
	RecordsCollected int `json:"records_collected"`
	// CorruptRecords counts records dropped from the index because
	// their frame failed its CRC, namespace or key check on a Get or
	// during compaction; each such Get is a miss.
	CorruptRecords int `json:"corrupt_records,omitempty"`
}

// StoreStats is the full snapshot Stats() returns: the totals across
// every namespace (embedded, so the JSON document keeps the historical
// flat fields), the per-namespace breakdown, and the disk tier.
type StoreStats struct {
	Stats
	// Namespaces maps each namespace that has seen traffic to its own
	// counters.
	Namespaces map[string]Stats `json:"namespaces"`
	// Disk is nil for a memory-only store.
	Disk *DiskStats `json:"disk,omitempty"`
}

// Store is a namespaced two-tier content-addressed blob store. The
// zero value is not usable; construct with NewStore or NewStoreWithDisk.
type Store struct {
	shards [shardCount]shard
	disk   *diskTier

	mu         sync.Mutex
	namespaces map[string]*Namespace
}

// counters is one namespace's atomic counter block.
type counters struct {
	hits, misses, puts, evictions, diskHits, diskPuts atomic.Uint64
	fills, fillRejects, fillErrors                    atomic.Uint64
	entries                                           atomic.Int64
	bytes                                             atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Puts:        c.puts.Load(),
		Evictions:   c.evictions.Load(),
		DiskHits:    c.diskHits.Load(),
		DiskPuts:    c.diskPuts.Load(),
		Fills:       c.fills.Load(),
		FillRejects: c.fillRejects.Load(),
		FillErrors:  c.fillErrors.Load(),
		Entries:     int(c.entries.Load()),
		Bytes:       c.bytes.Load(),
	}
}

type shard struct {
	mu       sync.Mutex
	entries  map[memKey]*list.Element
	lru      *list.List // front = most recently used
	bytes    int64
	maxBytes int64
}

// memKey addresses one memory-tier entry: namespaces are independent
// key spaces sharing one byte budget.
type memKey struct {
	ns  string
	key string
}

type entry struct {
	k     memKey
	value []byte
	stats *counters // owning namespace's counters, for eviction accounting
}

// NewStore returns a memory-only store bounded by maxBytes
// (non-positive means DefaultMaxBytes).
func NewStore(maxBytes int64) *Store {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	s := &Store{namespaces: make(map[string]*Namespace)}
	per := maxBytes / shardCount
	if per < 1 {
		per = 1
	}
	for i := range s.shards {
		s.shards[i].entries = make(map[memKey]*list.Element)
		s.shards[i].lru = list.New()
		s.shards[i].maxBytes = per
	}
	return s
}

// NewStoreWithDisk returns a store whose blobs additionally persist as
// binary segments under dir; existing segments are indexed on open, so a
// new process serves the previous process's artifacts from disk.
func NewStoreWithDisk(maxBytes int64, dir string) (*Store, error) {
	s := NewStore(maxBytes)
	d, err := openDiskTier(dir)
	if err != nil {
		return nil, err
	}
	s.disk = d
	return s, nil
}

// Close releases the disk tier (a memory-only store needs no Close).
func (s *Store) Close() error {
	if s.disk != nil {
		return s.disk.close()
	}
	return nil
}

// SetGC installs the disk tier's garbage-collection policy and runs an
// immediate pass — so a store reopened under a bumped code version
// ages out its orphaned rows at startup, not at the next rotation.
// No-op on a memory-only store (the LRU already bounds that tier).
func (s *Store) SetGC(cfg GCConfig) {
	if s.disk != nil {
		s.disk.setGC(cfg)
	}
}

// CompactDisk forces one garbage-collection pass now (tests, ops);
// routine passes run automatically after each segment rotation.
func (s *Store) CompactDisk() {
	if s.disk != nil {
		s.disk.compact()
	}
}

// Namespace returns the named view of the store, creating its counter
// block on first use. An empty name means DefaultNamespace. The same
// *Namespace is returned for the same name every time.
func (s *Store) Namespace(name string) *Namespace {
	if name == "" {
		name = DefaultNamespace
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ns, ok := s.namespaces[name]
	if !ok {
		ns = &Namespace{store: s, name: name}
		s.namespaces[name] = ns
	}
	return ns
}

// Stats snapshots every namespace, the cross-namespace totals, and the
// disk tier.
func (s *Store) Stats() StoreStats {
	st := StoreStats{Namespaces: make(map[string]Stats)}
	s.mu.Lock()
	names := make([]*Namespace, 0, len(s.namespaces))
	for _, ns := range s.namespaces {
		names = append(names, ns)
	}
	s.mu.Unlock()
	for _, ns := range names {
		one := ns.Stats()
		st.Namespaces[ns.name] = one
		st.Stats.add(one)
	}
	if s.disk != nil {
		d := s.disk.stats()
		st.Disk = &d
	}
	return st
}

func (s *Store) shard(k memKey) *shard {
	h := fnv.New32a()
	h.Write([]byte(k.ns))
	h.Write([]byte{0})
	h.Write([]byte(k.key))
	return &s.shards[h.Sum32()%shardCount]
}

// Namespace is one named key space of a Store. It satisfies
// runner.CellCache and runner.BlobStore; values handed to Put and
// returned by Get are treated as immutable.
type Namespace struct {
	store        *Store
	name         string
	diskOnlyPuts atomic.Bool

	// fill and replicate are the cluster hooks (see fill.go); nil
	// outside cluster mode.
	fillFn atomic.Pointer[FillFunc]
	replFn atomic.Pointer[ReplicateFunc]

	flightMu sync.Mutex
	flights  map[string]*flight
	// testHookMissed, when set by a test, runs in Get between the
	// local miss and the flight lookup.
	testHookMissed func(key string)

	counters
}

// SetDiskOnlyPuts makes Put skip the memory tier whenever a disk tier
// exists (Gets still promote disk hits into memory, and on a
// memory-only store Put keeps writing to memory so values are never
// dropped). Use it for blob kinds with their own decoded cache in
// front — the graph namespace behind runner.GraphCache — where
// write-through blobs would only evict hotter entries from the byte
// budget they share with other namespaces.
func (ns *Namespace) SetDiskOnlyPuts(on bool) { ns.diskOnlyPuts.Store(on) }

// Name returns the namespace's name.
func (ns *Namespace) Name() string { return ns.name }

// Stats snapshots this namespace's counters.
func (ns *Namespace) Stats() Stats { return ns.counters.snapshot() }

// Get returns the blob stored under key. The returned slice is shared
// and must be treated as read-only. Disk-tier hits are promoted into
// the memory tier; if both tiers miss and a fill hook is installed
// (cluster mode), the blob is pulled from the owning peer, verified,
// and written through locally before being returned.
func (ns *Namespace) Get(key string) ([]byte, bool) {
	if v, ok := ns.getLocal(key); ok {
		ns.hits.Add(1)
		return v, true
	}
	if fp := ns.fillFn.Load(); fp != nil {
		if v, ok := ns.fillThrough(key, *fp); ok {
			ns.hits.Add(1)
			return v, true
		}
	}
	ns.misses.Add(1)
	return nil, false
}

// GetLocal is Get restricted to the local tiers: it never invokes the
// fill hook. The peer artifact endpoint serves through GetLocal, which
// is what terminates fill recursion across the cluster.
func (ns *Namespace) GetLocal(key string) ([]byte, bool) {
	if v, ok := ns.getLocal(key); ok {
		ns.hits.Add(1)
		return v, true
	}
	ns.misses.Add(1)
	return nil, false
}

// getLocal consults memory then disk, counting diskHits but leaving
// hit/miss accounting to the caller.
func (ns *Namespace) getLocal(key string) ([]byte, bool) {
	k := memKey{ns: ns.name, key: key}
	sh := ns.store.shard(k)
	sh.mu.Lock()
	if el, ok := sh.entries[k]; ok {
		sh.lru.MoveToFront(el)
		v := el.Value.(*entry).value
		sh.mu.Unlock()
		return v, true
	}
	sh.mu.Unlock()
	if d := ns.store.disk; d != nil {
		if v, ok := d.get(ns.name, key); ok {
			ns.insert(k, v)
			ns.diskHits.Add(1)
			return v, true
		}
	}
	return nil, false
}

// Put stores the blob under key in both tiers (or the disk tier alone
// under SetDiskOnlyPuts) and, when a replicate hook is installed,
// offers the blob for asynchronous push to its ring owner. Values are
// treated as immutable after Put.
func (ns *Namespace) Put(key string, value []byte) {
	ns.PutLocal(key, value)
	if rp := ns.replFn.Load(); rp != nil {
		(*rp)(key, value)
	}
}

// PutLocal is Put without the replicate hook. Blobs that arrived from
// a peer (fill write-throughs, replication pushes) are stored with
// PutLocal so they are not re-offered to the cluster — the receiving
// side is already the owner or the fetcher, so another hop could only
// echo blobs back and forth.
func (ns *Namespace) PutLocal(key string, value []byte) {
	ns.puts.Add(1)
	d := ns.store.disk
	if d == nil || !ns.diskOnlyPuts.Load() {
		ns.insert(memKey{ns: ns.name, key: key}, value)
	}
	if d != nil {
		if d.put(ns.name, key, value) {
			ns.diskPuts.Add(1)
		}
	}
}

// insert places the blob into the memory tier and evicts from the LRU
// tail down to the shard budget. The newest entry always stays: a value
// larger than the whole shard budget is still cached (alone). Evictions
// are charged to the evicted entry's own namespace.
func (ns *Namespace) insert(k memKey, value []byte) {
	sh := ns.store.shard(k)
	sh.mu.Lock()
	if el, ok := sh.entries[k]; ok {
		e := el.Value.(*entry)
		delta := int64(len(value)) - int64(len(e.value))
		sh.bytes += delta
		ns.bytes.Add(delta)
		e.value = value
		sh.lru.MoveToFront(el)
	} else {
		sh.entries[k] = sh.lru.PushFront(&entry{k: k, value: value, stats: &ns.counters})
		sh.bytes += int64(len(value))
		ns.bytes.Add(int64(len(value)))
		ns.entries.Add(1)
	}
	for sh.bytes > sh.maxBytes && sh.lru.Len() > 1 {
		back := sh.lru.Back()
		e := back.Value.(*entry)
		sh.lru.Remove(back)
		delete(sh.entries, e.k)
		sh.bytes -= int64(len(e.value))
		e.stats.bytes.Add(-int64(len(e.value)))
		e.stats.entries.Add(-1)
		e.stats.evictions.Add(1)
	}
	sh.mu.Unlock()
}
