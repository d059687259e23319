package hybridnet

// The sweep service (DESIGN.md §7, §9, §10, §11): a long-running
// server over the scenario registry of internal/experiments, with a
// shared fair worker pool (runner.Pool) as the batching admission
// layer and a namespaced content-addressed artifact store
// (internal/artifact) underneath — result rows in one namespace,
// CSR topologies in a second, derived ball-profile artifacts in
// a third, finished-sweep records in a fourth — so repeated cells are
// served without re-simulation, every distinct graph instance is built
// exactly once, and a sweep evicted from the bounded in-memory
// registry is rehydrated from its persisted record and re-rendered
// from cache hits, byte-identical to the original run.
//
// Hardening for sustained traffic (DESIGN.md §11): submissions pass
// per-client token-bucket rate limiting and a bounded running-sweep
// count (over-limit requests are shed with HTTP 429 + Retry-After
// instead of queueing unboundedly), every endpoint's latency and
// status codes feed a Prometheus-text /metrics registry alongside
// cache hit ratios, pool depth, and sweep states, and the disk tier
// runs segment compaction with a version-aware retain filter and a
// total-byte bound. In-progress sweeps additionally stream each
// resolved cell's rendered rows to any number of subscribers (SSE or
// chunked JSONL, DESIGN.md §12) with late-subscriber replay and a
// bounded-buffer slow-consumer policy. cmd/hybridd is the stdlib
// net/http binary over Handler; everything here is equally usable
// in-process (NewServer / Submit / WaitContext / WriteResults /
// StreamCells).

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/artifact"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/runner"
)

// graphNamespace is the artifact namespace holding encoded
// topologies (artifact.DefaultNamespace holds the result rows).
const graphNamespace = "graphs"

// profileNamespace is the artifact namespace holding encoded
// ball-profile artifacts derived from the topologies (DESIGN.md §10).
const profileNamespace = "profiles"

// sweepNamespace is the artifact namespace holding finished-sweep
// records, so sweeps evicted from the bounded in-memory registry can
// be rehydrated on later lookups (DESIGN.md §11).
const sweepNamespace = "sweeps"

// DefaultMaxSweeps bounds the in-memory registry of finished sweeps:
// beyond it, the least recently used finished sweep is evicted (and
// served from its persisted record thereafter).
const DefaultMaxSweeps = 256

// ScenarioInfo describes one sweepable artifact of the scenario
// registry, as listed by GET /v1/scenarios.
type ScenarioInfo = experiments.Artifact

// CacheStats is the /v1/cache/stats document: the artifact store's
// cross-namespace totals (flat, backward-compatible fields), the
// per-namespace breakdown, the disk-tier counters, the topology and
// profile caches, and the worker pool's depth.
type CacheStats struct {
	artifact.StoreStats
	// GraphCache counts decoded-topology traffic: builds, shared-
	// instance hits, blob-store restores, singleflight joins.
	GraphCache runner.GraphCacheStats `json:"graph_cache"`
	// ProfileCache counts derived ball-profile traffic: batch-kernel
	// computations, attached-artifact hits, blob-store restores,
	// singleflight joins (DESIGN.md §10).
	ProfileCache runner.ProfileCacheStats `json:"profile_cache"`
	// Pool is the shared worker pool's depth at snapshot time — the
	// signal admission control sheds on (DESIGN.md §11).
	Pool runner.PoolStats `json:"pool"`
	// Peers is the cluster section (DESIGN.md §15); nil outside
	// cluster mode.
	Peers *PeerStats `json:"peers,omitempty"`
}

// Sweep-lifecycle errors.
var (
	// ErrUnknownSweep: no sweep with that id was submitted.
	ErrUnknownSweep = errors.New("hybridnet: unknown sweep")
	// ErrSweepRunning: results were requested before the sweep finished.
	ErrSweepRunning = errors.New("hybridnet: sweep still running")
	// ErrServerClosed: the server no longer admits sweeps.
	ErrServerClosed = errors.New("hybridnet: server closed")
)

// CapacityError is returned by Submit when the bounded running-sweep
// count is exhausted: the request is shed, not queued, and the client
// should retry after the hinted duration (HTTP maps it to 429 +
// Retry-After, DESIGN.md §11).
type CapacityError struct {
	// RetryAfter estimates when capacity will be available, derived
	// from the worker pool's current depth.
	RetryAfter time.Duration
}

func (e *CapacityError) Error() string {
	return fmt.Sprintf("hybridnet: server at sweep capacity; retry after %s", e.RetryAfter)
}

// Sweep states reported by SweepStatus.State.
const (
	SweepRunning = "running"
	SweepDone    = "done"
	SweepFailed  = "failed"
)

// ServerConfig parameterizes a sweep server. The zero value is usable:
// GOMAXPROCS workers, a DefaultMaxBytes in-memory cache, no disk tier,
// no rate limiting, and default sweep bounds.
type ServerConfig struct {
	// Workers sizes the shared worker pool every sweep's cells are
	// scheduled on (≤ 0 means GOMAXPROCS).
	Workers int
	// CacheBytes bounds the in-memory artifact-store tier (result rows
	// and encoded topologies share the budget); 0 means
	// artifact.DefaultMaxBytes, negative disables the store entirely
	// (topologies are then still deduplicated in memory, but nothing
	// is content-addressed or persisted).
	CacheBytes int64
	// CacheDir, when non-empty, adds the persistent disk tier: results
	// and topologies survive restarts and are served from disk after
	// eviction.
	CacheDir string
	// DiskBytes bounds the disk tier's total segment bytes (0 means
	// unbounded); enforced by the segment GC, oldest segments dropped
	// first. Ignored without CacheDir.
	DiskBytes int64
	// Version overrides the code-version component of every content
	// address (default runner.CodeVersion). Two servers sharing a
	// CacheDir must agree on it.
	Version string
	// MaxSweeps bounds the in-memory registry of finished sweeps
	// (0 means DefaultMaxSweeps, negative means unbounded). Evicted
	// sweeps remain addressable through their persisted records when a
	// store is configured.
	MaxSweeps int
	// MaxActive bounds concurrently running sweeps — the admission
	// queue (0 means 4× the pool size, negative means unbounded).
	// Submissions beyond it fail with *CapacityError.
	MaxActive int
	// RatePerSec, when positive, enables per-client token-bucket rate
	// limiting of HTTP sweep submissions at this refill rate.
	RatePerSec float64
	// Burst is the rate limiter's bucket depth (0 means
	// max(1, 2×RatePerSec)).
	Burst int
	// TrustProxy keys the per-client rate limiter on the first
	// X-Forwarded-For hop instead of the socket address. Enable only
	// behind a trusted reverse proxy that sets the header: it is
	// client-forgeable, so trusting it on a directly exposed server
	// lets one client spread its traffic over arbitrary buckets.
	TrustProxy bool
	// StreamBuffer is each stream subscriber's buffered-cell capacity
	// (≤ 0 means DefaultStreamBuffer). A subscriber that falls this
	// many cells behind the sweep is disconnected with a terminal
	// "dropped" event instead of blocking the run (DESIGN.md §12).
	StreamBuffer int

	// Peers, when non-empty, enables cluster mode (DESIGN.md §15): the
	// full static membership of hybridd peers (host:port), including
	// this process. Artifacts are owner-assigned on a consistent-hash
	// ring over the membership; local cache misses fill from the owner
	// and local computes replicate to it. Requires Self and a
	// non-disabled cache.
	Peers []string
	// Self is this process's own advertised host:port; it must appear
	// in Peers. Required iff Peers is set.
	Self string
	// PeerProbeInterval is the liveness probe period (0 means 1s).
	PeerProbeInterval time.Duration
	// PeerFetchTimeout bounds each remote artifact fetch attempt
	// (0 means 2s).
	PeerFetchTimeout time.Duration
	// PeerHedgeDelay is how long the fetcher waits on the primary
	// owner before spending its bounded hedged attempt on the next
	// ring owner (0 means 150ms).
	PeerHedgeDelay time.Duration
	// PeerSeed seeds the deterministic retry jitter (0 derives from
	// Self).
	PeerSeed int64
	// PeerTransport overrides the HTTP transport of all peer calls —
	// the fault-injection seam of the differential cluster tests.
	PeerTransport http.RoundTripper
}

// SweepRequest is a sweep submission: one registered scenario swept
// over a family axis at one instance size and seed. Zero N and Seed
// take the report defaults (n = 576, seed = 1); an empty Families list
// selects the scenario's default axis.
type SweepRequest struct {
	Scenario string   `json:"scenario"`
	Families []string `json:"families,omitempty"`
	N        int      `json:"n,omitempty"`
	Seed     int64    `json:"seed,omitempty"`
	// Fresh forces re-execution when a *finished* sweep with the same
	// content address exists (a still-running one is joined instead of
	// duplicated). Cells still resolve through the result cache, so a
	// fresh resubmission re-renders from cache hits rather than
	// re-simulating.
	Fresh bool `json:"fresh,omitempty"`
}

// SweepStatus is the externally visible state of one sweep.
type SweepStatus struct {
	// ID is the sweep's content address (runner.SweepID): identical
	// requests map to identical ids.
	ID       string `json:"id"`
	Scenario string `json:"scenario"`
	// State is SweepRunning, SweepDone, or SweepFailed.
	State string `json:"state"`
	// Cells counts grid cells resolved so far; CachedCells is the
	// subset served from the result cache without touching the pool.
	Cells       int `json:"cells"`
	CachedCells int `json:"cached_cells"`
	// Reused reports (on Submit only) that a finished or in-flight
	// sweep with the same content address was returned instead of
	// starting a new run.
	Reused bool `json:"reused,omitempty"`
	// Error carries the failure when State is SweepFailed.
	Error string `json:"error,omitempty"`
}

// sweepRecord is the persisted form of a finished sweep (namespace
// "sweeps"), enough to rehydrate status and re-render results through
// the cell cache after the in-memory registry evicted it.
type sweepRecord struct {
	Scenario string   `json:"scenario"`
	Families []string `json:"families,omitempty"`
	N        int      `json:"n"`
	Seed     int64    `json:"seed"`
	Cells    int      `json:"cells"`
	Cached   int      `json:"cached_cells"`
}

// sweep is the server-side state of one submission.
type sweep struct {
	id  string
	req SweepRequest

	mu     sync.Mutex
	state  string
	errMsg string
	tables []*runner.Table
	cells  int
	cached int

	// bcast fans resolved cells out to stream subscribers. Sweeps
	// created by Submit get one up front; rehydrated sweeps get one,
	// together with their tables, from regenerate.
	bcast *broadcaster
	// regenMu serializes regenerate, so a rehydrated sweep re-runs at
	// most once however many results and stream requests race.
	regenMu sync.Mutex

	done chan struct{}
	el   *list.Element // position in the finished-sweep LRU, nil while running
}

func (sw *sweep) status() SweepStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return SweepStatus{
		ID:          sw.id,
		Scenario:    sw.req.Scenario,
		State:       sw.state,
		Cells:       sw.cells,
		CachedCells: sw.cached,
		Error:       sw.errMsg,
	}
}

// versionedCache prefixes cell-cache keys with the code version, so
// the disk tier's retain filter can recognize (and age out) rows
// orphaned by a version bump without decoding opaque content hashes.
type versionedCache struct {
	ns     *artifact.Namespace
	prefix string
}

func (c versionedCache) Get(key string) ([]byte, bool) { return c.ns.Get(c.prefix + key) }
func (c versionedCache) Put(key string, value []byte)  { c.ns.Put(c.prefix+key, value) }

// Reject passes a rejected row back to the namespace's counters.
func (c versionedCache) Reject() { c.ns.Reject() }

// serverMetrics is the registry wiring of the service (DESIGN.md §11).
type serverMetrics struct {
	submitted      *metrics.Counter
	reused         *metrics.Counter
	shedRate       *metrics.Counter
	shedCapacity   *metrics.Counter
	evicted        *metrics.Counter
	rehydrated     *metrics.Counter
	resultsAborted *metrics.Counter
	streamEvents   *metrics.Counter
	streamDropped  *metrics.Counter
	responses      *metrics.CounterVec
	latency        map[string]*metrics.Histogram
}

// Server is the sweep service: it owns the shared worker pool, the
// artifact store, the admission state, the metrics registry, and the
// bounded sweep registry. Create with NewServer; always Close (it
// drains in-flight sweeps and releases the cache).
type Server struct {
	pool     *runner.Pool
	store    *artifact.Store      // nil when caching is disabled
	results  runner.CellCache     // version-prefixed view of the results namespace
	sweepsNS *artifact.Namespace  // persisted sweep records; nil without a store
	graphs   *runner.GraphCache   // always present; store-backed when possible
	profiles *runner.ProfileCache // always present; store-backed when possible
	version  string
	vprefix  string // "v=<version>/" key prefix for version-addressed rows

	maxSweeps int // finished-sweep retention bound; 0 = unbounded
	maxActive int // running-sweep admission bound; 0 = unbounded
	limiter   *admission.Limiter

	trustProxy   bool // key the rate limiter on X-Forwarded-For
	streamBuffer int  // per-subscriber buffered-cell capacity
	streamSubs   atomic.Int64

	cluster *cluster // nil outside cluster mode (see peer.go)

	reg *metrics.Registry
	m   serverMetrics

	mu       sync.Mutex
	sweeps   map[string]*sweep
	finished *list.List // *sweep, front = most recently used
	running  int
	closed   bool
	wg       sync.WaitGroup // in-flight sweep goroutines
}

// NewServer starts the shared pool, opens the artifact store, attaches
// the topology/profile caches, installs the disk GC policy, and
// registers the metrics.
func NewServer(cfg ServerConfig) (*Server, error) {
	s := &Server{
		version:  cfg.Version,
		sweeps:   make(map[string]*sweep),
		finished: list.New(),
	}
	if s.version == "" {
		s.version = runner.CodeVersion
	}
	s.vprefix = "v=" + s.version + "/"
	switch {
	case cfg.MaxSweeps == 0:
		s.maxSweeps = DefaultMaxSweeps
	case cfg.MaxSweeps > 0:
		s.maxSweeps = cfg.MaxSweeps
	}
	s.pool = runner.NewPool(cfg.Workers)
	switch {
	case cfg.MaxActive == 0:
		s.maxActive = 4 * s.pool.Workers()
	case cfg.MaxActive > 0:
		s.maxActive = cfg.MaxActive
	}
	if cfg.RatePerSec > 0 {
		burst := cfg.Burst
		if burst <= 0 {
			burst = int(math.Max(1, 2*cfg.RatePerSec))
		}
		s.limiter = admission.NewLimiter(cfg.RatePerSec, burst, 0)
	}
	s.trustProxy = cfg.TrustProxy
	s.streamBuffer = cfg.StreamBuffer
	if s.streamBuffer <= 0 {
		s.streamBuffer = DefaultStreamBuffer
	}

	// Topologies and profiles are always built once and shared; they
	// persist only with a disk tier. The stores stay untyped nil
	// otherwise: a nil *artifact.Namespace inside the interface would
	// not read as "no store".
	var graphStore, profileStore runner.BlobStore
	if cfg.CacheBytes >= 0 {
		if cfg.CacheDir != "" {
			store, err := artifact.NewStoreWithDisk(cfg.CacheBytes, cfg.CacheDir)
			if err != nil {
				s.pool.Close()
				return nil, fmt.Errorf("hybridnet: opening cache dir: %w", err)
			}
			s.store = store
		} else {
			s.store = artifact.NewStore(cfg.CacheBytes)
		}
		s.results = versionedCache{ns: s.store.Namespace(artifact.DefaultNamespace), prefix: s.vprefix}
		s.sweepsNS = s.store.Namespace(sweepNamespace)
		// The decoded-instance caches in front of the graph and profile
		// namespaces are the real memory tier for those artifacts:
		// their blobs only belong on disk (write-through would evict
		// result rows from the shared byte budget while duplicating
		// every decoded artifact). Without a disk tier the namespaces
		// have nothing to offer over a recomputation, so both caches
		// run store-less.
		if cfg.CacheDir != "" {
			gns := s.store.Namespace(graphNamespace)
			gns.SetDiskOnlyPuts(true)
			graphStore = gns
			pns := s.store.Namespace(profileNamespace)
			pns.SetDiskOnlyPuts(true)
			profileStore = pns
			// Disk GC (DESIGN.md §11): result rows and sweep records are
			// version-addressed, so rows under any other version prefix
			// are orphans no future Get can request — age them out.
			// Topologies and profiles are version-free by design (they
			// survive version bumps) and are always retained.
			prefix := s.vprefix
			s.store.SetGC(artifact.GCConfig{
				MaxBytes: cfg.DiskBytes,
				Retain: func(ns, key string) bool {
					if ns == artifact.DefaultNamespace || ns == sweepNamespace {
						return strings.HasPrefix(key, prefix)
					}
					return true
				},
			})
		}
	}
	s.graphs = runner.NewGraphCache(graphStore, 0)
	s.profiles = runner.NewProfileCache(profileStore, 0)

	if len(cfg.Peers) > 0 || cfg.Self != "" {
		if len(cfg.Peers) == 0 {
			s.shutdownPartial()
			return nil, fmt.Errorf("hybridnet: Self is set but Peers is empty")
		}
		if s.store == nil {
			s.shutdownPartial()
			return nil, fmt.Errorf("hybridnet: cluster mode requires the artifact cache (CacheBytes >= 0)")
		}
		c, err := newCluster(cfg, s.version)
		if err != nil {
			s.shutdownPartial()
			return nil, err
		}
		s.cluster = c
		s.installHooks(cfg.CacheDir != "")
		c.reg.Start()
	}
	s.registerMetrics()
	return s, nil
}

// shutdownPartial releases what NewServer built before a construction
// error.
func (s *Server) shutdownPartial() {
	s.pool.Close()
	if s.store != nil {
		s.store.Close()
	}
}

// registerMetrics builds the /metrics registry: admission counters,
// pull-through gauges for cache/pool/sweep state, and per-endpoint
// latency histograms (DESIGN.md §11).
func (s *Server) registerMetrics() {
	reg := metrics.NewRegistry()
	s.reg = reg
	s.m.submitted = reg.Counter("hybridd_sweeps_submitted_total", "Sweep runs started (reused submissions excluded).")
	s.m.reused = reg.Counter("hybridd_sweeps_reused_total", "Submissions answered by an existing sweep with the same content address.")
	shed := reg.CounterVec("hybridd_admission_shed_total", "Submissions shed by admission control, by reason.", "reason")
	s.m.shedRate = shed.With("rate")
	s.m.shedCapacity = shed.With("capacity")
	s.m.evicted = reg.Counter("hybridd_sweeps_evicted_total", "Finished sweeps evicted from the bounded registry.")
	s.m.rehydrated = reg.Counter("hybridd_sweeps_rehydrated_total", "Evicted sweeps rehydrated from their persisted records.")
	s.m.resultsAborted = reg.Counter("hybridd_results_aborted_total", "Result streams aborted mid-body by a write error.")
	s.m.streamEvents = reg.Counter("hybridd_stream_events_total", "Cell events delivered to stream subscribers.")
	s.m.streamDropped = reg.Counter("hybridd_stream_dropped_total", "Stream subscribers disconnected for falling behind.")
	s.m.responses = reg.CounterVec("hybridd_http_responses_total", "HTTP responses by endpoint and status code.", "endpoint", "code")
	s.m.latency = make(map[string]*metrics.Histogram)
	// "status_wait" and "stream" are dedicated series: a ?wait=1
	// long-poll and a live stream last as long as the client chooses,
	// so folding them into "status" (or recording a stream's lifetime
	// at all — it gets time-to-first-byte instead, see instrument)
	// would poison the latency ceilings the plain endpoints are held to.
	endpoints := []string{"scenarios", "submit", "status", "status_wait", "results", "stream", "cache_stats", "metrics"}
	if s.cluster != nil {
		endpoints = append(endpoints, "peer_ping", "peer_artifact", "peer_artifact_put")
	}
	for _, ep := range endpoints {
		s.m.latency[ep] = reg.Histogram("hybridd_http_request_seconds", "Request latency by endpoint.", nil, metrics.L{Name: "endpoint", Value: ep})
	}
	reg.GaugeFunc("hybridd_stream_subscribers", "Live stream subscribers.", func() float64 { return float64(s.streamSubs.Load()) })

	if c := s.cluster; c != nil {
		// Cluster series (DESIGN.md §15): per-peer liveness, fetch
		// outcomes, graceful degradations, replication pushes. The
		// counter cells double as the cluster's own accounting (see
		// cluster.stats), so they are installed before any traffic.
		fetchVec := reg.CounterVec("hybridd_peer_fetch_total", "Remote artifact fill attempts by outcome.", "outcome")
		for _, o := range fetchOutcomes {
			c.outcomes[o] = fetchVec.With(string(o))
		}
		c.degraded = reg.Counter("hybridd_peer_degraded_total", "Local misses degraded to local compute because the owning peer was unavailable, slow, or corrupt.")
		c.replicate = reg.CounterVec("hybridd_peer_replicate_total", "Owner-directed replication pushes by outcome.", "outcome")
		for _, o := range []string{"ok", "error", "dropped"} {
			c.replicate.With(o)
		}
		c.repl.Observe = func(outcome string) { c.replicate.With(outcome).Inc() }
		for _, member := range c.ring.Members() {
			member := member
			reg.GaugeFunc("hybridd_peer_state", "Peer liveness (0=down, 1=suspect, 2=healthy).", func() float64 {
				return float64(c.reg.State(member))
			}, metrics.L{Name: "peer", Value: member})
		}
	}

	reg.GaugeFunc("hybridd_pool_workers", "Shared worker pool size.", func() float64 { return float64(s.pool.Stats().Workers) })
	reg.GaugeFunc("hybridd_pool_queued", "Cell tasks accepted but not yet dispatched.", func() float64 { return float64(s.pool.Stats().Queued) })
	reg.GaugeFunc("hybridd_pool_active", "Cell tasks currently executing.", func() float64 { return float64(s.pool.Stats().Active) })

	for _, nsName := range []string{artifact.DefaultNamespace, graphNamespace, profileNamespace} {
		nsName := nsName
		reg.GaugeFunc("hybridd_cache_hit_ratio", "Hits/(hits+misses) per artifact namespace.", func() float64 {
			if s.store == nil {
				return 0
			}
			return s.store.Namespace(nsName).Stats().HitRate()
		}, metrics.L{Name: "namespace", Value: nsName})
	}

	for _, state := range []string{SweepRunning, SweepDone, SweepFailed} {
		state := state
		reg.GaugeFunc("hybridd_sweeps", "Sweeps in the in-memory registry by state.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			n := 0
			for _, sw := range s.sweeps {
				sw.mu.Lock()
				if sw.state == state {
					n++
				}
				sw.mu.Unlock()
			}
			return float64(n)
		}, metrics.L{Name: "state", Value: state})
	}

	reg.GaugeFunc("hybridd_disk_bytes", "Disk-tier segment bytes.", func() float64 { return float64(s.diskStats().Bytes) })
	reg.GaugeFunc("hybridd_disk_live_bytes", "Disk-tier bytes still referenced by the index.", func() float64 { return float64(s.diskStats().LiveBytes) })
	reg.GaugeFunc("hybridd_disk_segments", "Disk-tier segment files.", func() float64 { return float64(s.diskStats().Segments) })
	reg.GaugeFunc("hybridd_disk_compactions_total", "Disk GC passes that rewrote or dropped a segment.", func() float64 { return float64(s.diskStats().Compactions) })
	reg.GaugeFunc("hybridd_disk_corrupt_records_total", "Disk-tier records dropped because their frame failed verification.", func() float64 { return float64(s.diskStats().CorruptRecords) })
}

func (s *Server) diskStats() artifact.DiskStats {
	if s.store == nil {
		return artifact.DiskStats{}
	}
	if d := s.store.Stats().Disk; d != nil {
		return *d
	}
	return artifact.DiskStats{}
}

// Close stops admission, waits for every in-flight sweep to drain
// through the pool, then closes the pool and the cache. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
	// Cluster teardown after the sweeps drained (they may still fill
	// or replicate) and before the store closes underneath the hooks.
	if s.cluster != nil {
		s.cluster.close()
	}
	s.pool.Close()
	if s.store != nil {
		return s.store.Close()
	}
	return nil
}

// Scenarios lists the registered artifacts in canonical report order.
func (s *Server) Scenarios() []ScenarioInfo { return experiments.Artifacts() }

// CacheStats snapshots the artifact store (per-namespace and disk
// counters; zero StoreStats when caching is disabled), the topology
// and profile caches, and the worker pool.
func (s *Server) CacheStats() CacheStats {
	st := CacheStats{
		GraphCache:   s.graphs.Stats(),
		ProfileCache: s.profiles.Stats(),
		Pool:         s.pool.Stats(),
	}
	if s.store != nil {
		st.StoreStats = s.store.Stats()
	}
	if s.cluster != nil {
		st.Peers = s.cluster.stats()
	}
	return st
}

// Metrics returns the server's registry — the document served on GET
// /metrics, also usable in-process (e.g. by tests and cmd/hybridload).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Version returns the code-version component of the server's content
// addresses.
func (s *Server) Version() string { return s.version }

// normalize validates the request and fills in the canonical defaults,
// so that equivalent requests share one content address.
func (s *Server) normalize(req *SweepRequest) ([]graph.Family, error) {
	found := false
	for _, a := range experiments.Artifacts() {
		if a.Name == req.Scenario {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("unknown scenario %q", req.Scenario)
	}
	known := make(map[graph.Family]bool)
	for _, f := range graph.Families() {
		known[f] = true
	}
	fams := make([]graph.Family, 0, len(req.Families))
	for _, name := range req.Families {
		f := graph.Family(name)
		if !known[f] {
			return nil, fmt.Errorf("unknown family %q (known: %v)", name, graph.Families())
		}
		fams = append(fams, f)
	}
	if req.N < 0 || req.N > 1<<20 {
		return nil, fmt.Errorf("n %d out of range", req.N)
	}
	if req.N == 0 {
		req.N = experiments.DefaultN
	}
	if req.Seed == 0 {
		req.Seed = experiments.DefaultSeed
	}
	return fams, nil
}

// retryAfter estimates when submission capacity frees up, scaled by
// how deep the shared pool currently is.
func (s *Server) retryAfter() time.Duration {
	st := s.pool.Stats()
	secs := 1 + st.Queued/(st.Workers+1)
	if secs > 60 {
		secs = 60
	}
	return time.Duration(secs) * time.Second
}

// Submit admits one sweep. Submission is content-addressed: a request
// identical to an earlier one returns the existing sweep (Reused set)
// unless Fresh forces a re-run — which still serves repeated cells
// from the result cache. Submit never blocks on simulation; poll
// Status or block on WaitContext. When the bounded running-sweep count
// is exhausted, Submit sheds the request with *CapacityError.
func (s *Server) Submit(req SweepRequest) (SweepStatus, error) {
	fams, err := s.normalize(&req)
	if err != nil {
		return SweepStatus{}, err
	}
	id := runner.SweepID(s.version, req.Scenario, fams, req.N, req.Seed)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return SweepStatus{}, ErrServerClosed
	}
	if existing, ok := s.sweeps[id]; ok {
		// Reuse unless Fresh asks for a re-run — and even then a sweep
		// still in flight is joined, never duplicated: replacing it
		// would orphan its waiters and double the simulation.
		existing.mu.Lock()
		running := existing.state == SweepRunning
		existing.mu.Unlock()
		if running || !req.Fresh {
			s.touchLocked(existing)
			s.mu.Unlock()
			s.m.reused.Inc()
			st := existing.status()
			st.Reused = true
			return st, nil
		}
	}
	// Admission control: a bounded number of concurrently running
	// sweeps; beyond it the request is shed, never queued (§11).
	if s.maxActive > 0 && s.running >= s.maxActive {
		s.mu.Unlock()
		s.m.shedCapacity.Inc()
		return SweepStatus{}, &CapacityError{RetryAfter: s.retryAfter()}
	}
	sw := &sweep{id: id, req: req, state: SweepRunning, done: make(chan struct{}), bcast: newBroadcaster(s.streamBuffer)}
	if old := s.sweeps[id]; old != nil && old.el != nil {
		// Fresh re-run replaces a finished sweep: drop the old entry
		// from the LRU before the new one takes the map slot.
		s.finished.Remove(old.el)
	}
	s.sweeps[id] = sw
	s.running++
	s.wg.Add(1)
	s.mu.Unlock()
	s.m.submitted.Inc()

	go s.runSweep(sw, fams)
	return sw.status(), nil
}

// newRunner builds the runner every sweep (fresh or rehydrated) goes
// through: shared pool, version-prefixed result cache, shared topology
// and profile caches.
func (s *Server) newRunner(observer runner.CellObserver) *runner.Runner {
	r := &runner.Runner{
		Pool:         s.pool,
		CacheVersion: s.version,
		Graphs:       s.graphs,
		Profiles:     s.profiles,
		Observer:     observer,
	}
	if s.results != nil {
		r.Cache = s.results
	}
	return r
}

func (s *Server) runSweep(sw *sweep, fams []graph.Family) {
	defer s.wg.Done()
	cfg := experiments.ReportConfig{N: sw.req.N, Seed: sw.req.Seed, Families: fams}
	r := s.newRunner(func(ev runner.CellEvent) {
		sw.mu.Lock()
		sw.cells++
		if ev.Cached {
			sw.cached++
		}
		sw.mu.Unlock()
		if ev.Err == nil {
			// Fan the resolved cell out to stream subscribers (and into
			// the replay log for late ones). Failed cells are not
			// published: the sweep is about to fail as a whole, and the
			// terminal "failed" event carries the error.
			sw.bcast.publish(chunkFromEvent(ev))
		}
	})
	tables, err := experiments.Generate(sw.req.Scenario, cfg, r)

	// Persist the finished-sweep record before the state flips to done,
	// so any observer of "done" can already rehydrate it after an
	// eviction.
	if err == nil {
		s.persistSweep(sw)
	}
	state := SweepDone
	sw.mu.Lock()
	if err != nil {
		state = SweepFailed
		sw.state = SweepFailed
		sw.errMsg = err.Error()
	} else {
		sw.state = SweepDone
		sw.tables = tables
	}
	sw.mu.Unlock()

	// Registry bookkeeping (capacity release, LRU push, eviction of the
	// oldest finished sweep) happens before done is closed, so anyone
	// woken by Wait observes the post-completion registry.
	s.mu.Lock()
	s.running--
	s.finishLocked(sw)
	s.mu.Unlock()
	close(sw.done)
	// Terminate the streams last, after the state flip: a subscriber
	// woken by the terminal event reads the sweep's final status.
	sw.bcast.finish(state)
}

// persistSweep stores the sweep's record in the sweeps namespace under
// its version-prefixed id.
func (s *Server) persistSweep(sw *sweep) {
	if s.sweepsNS == nil {
		return
	}
	sw.mu.Lock()
	rec := sweepRecord{
		Scenario: sw.req.Scenario,
		Families: sw.req.Families,
		N:        sw.req.N,
		Seed:     sw.req.Seed,
		Cells:    sw.cells,
		Cached:   sw.cached,
	}
	sw.mu.Unlock()
	if blob, err := json.Marshal(rec); err == nil {
		s.sweepsNS.Put(s.vprefix+sw.id, blob)
	}
}

// finishLocked moves a completed sweep into the finished LRU and
// enforces the retention bound. Caller holds s.mu.
func (s *Server) finishLocked(sw *sweep) {
	if s.sweeps[sw.id] != sw {
		return // replaced by a Fresh re-run meanwhile
	}
	sw.el = s.finished.PushFront(sw)
	for s.maxSweeps > 0 && s.finished.Len() > s.maxSweeps {
		back := s.finished.Back()
		old := back.Value.(*sweep)
		s.finished.Remove(back)
		old.el = nil
		if s.sweeps[old.id] == old {
			delete(s.sweeps, old.id)
		}
		s.m.evicted.Inc()
	}
}

// touchLocked marks a finished sweep recently used. Caller holds s.mu.
func (s *Server) touchLocked(sw *sweep) {
	if sw.el != nil {
		s.finished.MoveToFront(sw.el)
	}
}

// lookup resolves a sweep id: first the in-memory registry, then — for
// sweeps evicted from the bounded registry — the persisted record,
// which rehydrates into a done sweep whose results re-render through
// the cell cache.
func (s *Server) lookup(id string) (*sweep, bool) {
	s.mu.Lock()
	sw, ok := s.sweeps[id]
	if ok {
		s.touchLocked(sw)
	}
	s.mu.Unlock()
	if ok {
		return sw, true
	}
	return s.rehydrate(id)
}

// rehydrate rebuilds an evicted sweep from its persisted record. The
// record must be a request that normalize accepts and whose sweep ID is
// id, with 0 ≤ cached ≤ cells; any other record, from a damaged disk
// tier or a peer, is a rejected miss, never a sweep served under an id
// that is not its own.
func (s *Server) rehydrate(id string) (*sweep, bool) {
	if s.sweepsNS == nil {
		return nil, false
	}
	blob, ok := s.sweepsNS.Get(s.vprefix + id)
	if !ok {
		return nil, false
	}
	var rec sweepRecord
	if err := json.Unmarshal(blob, &rec); err != nil || rec.Cells < 0 || rec.Cached < 0 || rec.Cached > rec.Cells {
		s.sweepsNS.Reject()
		return nil, false
	}
	req := SweepRequest{Scenario: rec.Scenario, Families: rec.Families, N: rec.N, Seed: rec.Seed}
	fams, err := s.normalize(&req)
	if err != nil || runner.SweepID(s.version, req.Scenario, fams, req.N, req.Seed) != id {
		s.sweepsNS.Reject()
		return nil, false
	}
	done := make(chan struct{})
	close(done)
	sw := &sweep{
		id:     id,
		req:    req,
		state:  SweepDone,
		cells:  rec.Cells,
		cached: rec.Cached,
		done:   done,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.sweeps[id]; ok {
		return existing, true // lost the race to another rehydration
	}
	s.sweeps[id] = sw
	s.finishLocked(sw)
	s.m.rehydrated.Inc()
	return sw, true
}

// Status reports a sweep's current state.
func (s *Server) Status(id string) (SweepStatus, error) {
	sw, ok := s.lookup(id)
	if !ok {
		return SweepStatus{}, ErrUnknownSweep
	}
	return sw.status(), nil
}

// WaitContext blocks until the sweep finishes or ctx is done. On
// cancellation it returns the sweep's current status together with
// ctx's error, so a caller can both respect the deadline and report
// the in-flight state. Use it anywhere a caller waits on behalf of a
// disconnectable client, so abandoned waits don't leak goroutines.
func (s *Server) WaitContext(ctx context.Context, id string) (SweepStatus, error) {
	sw, ok := s.lookup(id)
	if !ok {
		return SweepStatus{}, ErrUnknownSweep
	}
	select {
	case <-sw.done:
		return sw.status(), nil
	case <-ctx.Done():
		return sw.status(), ctx.Err()
	}
}

// Wait blocks until the sweep finishes and returns its final status.
func (s *Server) Wait(id string) (SweepStatus, error) {
	return s.WaitContext(context.Background(), id)
}

// tables returns a finished sweep's rendered tables, regenerating them
// for a rehydrated sweep. Errors are always returned before any output
// is produced.
func (s *Server) tables(sw *sweep) ([]*runner.Table, error) {
	sw.mu.Lock()
	state, errMsg, tables := sw.state, sw.errMsg, sw.tables
	sw.mu.Unlock()
	switch {
	case state == SweepRunning:
		return nil, ErrSweepRunning
	case state == SweepFailed:
		return nil, fmt.Errorf("hybridnet: sweep failed: %s", errMsg)
	case tables != nil:
		return tables, nil
	}
	tables, _, err := s.regenerate(sw)
	return tables, err
}

// WriteResults streams a finished sweep's tables into w in the given
// format ("md", "csv", or "jsonl"; empty means markdown) through the
// runner sinks — the same rendering path as cmd/experiments, so
// cached, fresh, and rehydrated sweeps are byte-identical. Returns
// ErrSweepRunning while the sweep is in flight and the sweep's own
// error after a failure; every error path is reported before the
// first byte is written.
func (s *Server) WriteResults(w io.Writer, id, format string) error {
	sw, ok := s.lookup(id)
	if !ok {
		return ErrUnknownSweep
	}
	tables, err := s.tables(sw)
	if err != nil {
		return err
	}
	sink, err := (&experiments.ReportConfig{Format: format}).NewSink(w)
	if err != nil {
		return err
	}
	for _, t := range tables {
		if err := runner.WriteTable(sink, t); err != nil {
			return err
		}
	}
	return nil
}

// Handler returns the HTTP surface of the service:
//
//	GET  /v1/scenarios            — list the scenario registry
//	POST /v1/sweeps               — submit a SweepRequest (JSON body)
//	GET  /v1/sweeps/{id}          — poll one sweep's status (?wait=1 long-polls)
//	GET  /v1/sweeps/{id}/results  — stream results (?format=md|csv|jsonl)
//	GET  /v1/sweeps/{id}/stream   — live cell delivery (?format=sse|jsonl, DESIGN.md §12)
//	GET  /v1/cache/stats          — artifact-store and topology-cache counters
//	GET  /metrics                 — Prometheus text exposition (DESIGN.md §11)
//
// Every endpoint is instrumented (latency histogram + response-code
// counter). A known path hit with the wrong method answers 405 Method
// Not Allowed as a JSON error with an Allow header, matching the error
// shape of every other endpoint. Over-limit submissions answer 429
// with a Retry-After header.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/scenarios", s.instrument("scenarios", s.handleScenarios))
	mux.HandleFunc("POST /v1/sweeps", s.instrument("submit", s.handleSubmit))
	mux.HandleFunc("GET /v1/sweeps/{id}", s.instrument("status", s.handleStatus))
	mux.HandleFunc("GET /v1/sweeps/{id}/results", s.instrument("results", s.handleResults))
	mux.HandleFunc("GET /v1/sweeps/{id}/stream", s.instrument("stream", s.handleStream))
	mux.HandleFunc("GET /v1/cache/stats", s.instrument("cache_stats", s.handleCacheStats))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	// Method-less patterns are strictly less specific than the
	// method-qualified ones above, so they catch exactly the
	// wrong-method requests (ServeMux's built-in 405 would answer
	// text/plain, breaking the JSON error contract).
	allowByPath := map[string]string{
		"/v1/scenarios":           "GET",
		"/v1/sweeps":              "POST",
		"/v1/sweeps/{id}":         "GET",
		"/v1/sweeps/{id}/results": "GET",
		"/v1/sweeps/{id}/stream":  "GET",
		"/v1/cache/stats":         "GET",
		"/metrics":                "GET",
	}
	if s.cluster != nil {
		// Peer wire protocol (DESIGN.md §15). {key...} is a
		// rest-of-path wildcard: artifact keys contain '/' (the
		// "v=<version>/" cache prefix) that must survive as structure.
		mux.HandleFunc("GET /v1/peer/ping", s.instrument("peer_ping", s.handlePeerPing))
		mux.HandleFunc("GET /v1/peer/artifact/{ns}/{key...}", s.instrument("peer_artifact", s.handlePeerArtifactGet))
		mux.HandleFunc("PUT /v1/peer/artifact/{ns}/{key...}", s.instrument("peer_artifact_put", s.handlePeerArtifactPut))
		allowByPath["/v1/peer/ping"] = "GET"
		allowByPath["/v1/peer/artifact/{ns}/{key...}"] = "GET, PUT"
	}
	for path, allow := range allowByPath {
		mux.HandleFunc(path, methodNotAllowed(allow))
	}
	return mux
}

// statusRecorder captures the response code and first-byte time for
// the metrics layer.
type statusRecorder struct {
	http.ResponseWriter
	code      int
	start     time.Time
	firstByte time.Time
	endpoint  string // latency/response series; handlers may relabel (e.g. "status_wait")
}

func (r *statusRecorder) WriteHeader(code int) {
	r.mark()
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.mark()
	return r.ResponseWriter.Write(p)
}

func (r *statusRecorder) mark() {
	if r.firstByte.IsZero() {
		r.firstByte = time.Now()
	}
}

// Unwrap exposes the wrapped writer so http.NewResponseController can
// reach its Flusher: without it the recorder would swallow the
// interface and every streaming endpoint behind instrument would
// silently stop flushing.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// ttfbEndpoints record time-to-first-byte instead of handler time in
// the latency histogram: a stream's total duration is chosen by the
// subscriber, not the server, so it measures nothing about the service.
var ttfbEndpoints = map[string]bool{"stream": true}

// instrument wraps a handler with the endpoint's latency histogram and
// response-code counter. The observation runs in a defer so endpoints
// that end by aborting the connection (panic(http.ErrAbortHandler),
// the chunked-stream truncation signal) are still recorded.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK, start: time.Now(), endpoint: endpoint}
		defer func() {
			at := time.Now()
			if ttfbEndpoints[rec.endpoint] && !rec.firstByte.IsZero() {
				at = rec.firstByte
			}
			if hist := s.m.latency[rec.endpoint]; hist != nil {
				hist.Observe(at.Sub(rec.start).Seconds())
			}
			s.m.responses.With(rec.endpoint, strconv.Itoa(rec.code)).Inc()
		}()
		h(rec, r)
	}
}

// methodNotAllowed answers a wrong-method request with 405, the Allow
// header, and the service's JSON error shape. HEAD is allowed wherever
// GET is (ServeMux routes it to the GET handler, never here).
func methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeError(w, http.StatusMethodNotAllowed,
			fmt.Errorf("method %s not allowed on %s (allow: %s)", r.Method, r.URL.Path, allow))
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// retryAfterSeconds renders a Retry-After header value (whole seconds,
// rounded up, at least 1).
func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// clientKey identifies a client for rate limiting: the host part of
// the remote address, so every connection from one source shares one
// bucket regardless of port. With TrustProxy set, the first hop of
// X-Forwarded-For — the original client as recorded by the fronting
// proxy — takes precedence; otherwise the header is ignored, since a
// directly exposed server would be trusting a client-forgeable value.
func (s *Server) clientKey(r *http.Request) string {
	if s.trustProxy {
		if xff := r.Header.Get("X-Forwarded-For"); xff != "" {
			first, _, _ := strings.Cut(xff, ",")
			if first = strings.TrimSpace(first); first != "" {
				return first
			}
		}
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// scenariosResponse is the GET /v1/scenarios document.
type scenariosResponse struct {
	Scenarios []ScenarioInfo `json:"scenarios"`
	Families  []string       `json:"families"`
	Defaults  map[string]any `json:"defaults"`
	Version   string         `json:"version"`
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	fams := graph.Families()
	names := make([]string, len(fams))
	for i, f := range fams {
		names[i] = string(f)
	}
	writeJSON(w, http.StatusOK, scenariosResponse{
		Scenarios: s.Scenarios(),
		Families:  names,
		Defaults:  map[string]any{"n": experiments.DefaultN, "seed": experiments.DefaultSeed},
		Version:   s.version,
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Per-client token-bucket rate limiting (DESIGN.md §11): shed
	// before touching the body, with a JSON 429 + Retry-After.
	if s.limiter != nil {
		if ok, retry := s.limiter.Allow(s.clientKey(r)); !ok {
			s.m.shedRate.Inc()
			w.Header().Set("Retry-After", retryAfterSeconds(retry))
			writeError(w, http.StatusTooManyRequests,
				fmt.Errorf("rate limit exceeded; retry after %s", retry.Round(time.Millisecond)))
			return
		}
	}
	var req SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return
	}
	st, err := s.Submit(req)
	if err != nil {
		var cap *CapacityError
		switch {
		case errors.As(err, &cap):
			w.Header().Set("Retry-After", retryAfterSeconds(cap.RetryAfter))
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrServerClosed):
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	code := http.StatusAccepted
	if st.Reused {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if wait := r.URL.Query().Get("wait"); wait == "1" || wait == "true" {
		// A long-poll's duration is the sweep's runtime, not the
		// handler's — record it under its own latency series so it
		// can't poison the plain status endpoint's ceiling.
		if rec, ok := w.(*statusRecorder); ok {
			rec.endpoint = "status_wait"
		}
		// Long-poll bound to the client connection: a disconnect
		// cancels r.Context(), so abandoned waiters don't pile up.
		st, err := s.WaitContext(r.Context(), id)
		switch {
		case err == nil, errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			writeJSON(w, http.StatusOK, st)
		default:
			writeError(w, http.StatusNotFound, err)
		}
		return
	}
	st, err := s.Status(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	format := r.URL.Query().Get("format")
	// The format whitelist is the experiments package's own sink
	// table, so the two cannot drift.
	ct, ok := experiments.FormatContentType(format)
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (want %s)", format, strings.Join(experiments.Formats(), ", ")))
		return
	}
	sw, found := s.lookup(id)
	if !found {
		writeError(w, http.StatusNotFound, ErrUnknownSweep)
		return
	}
	// Materialize everything fallible before the first body byte, so
	// failures still get a proper JSON status: a running sweep is 409,
	// a failed or unrehydratable one 500.
	tables, err := s.tables(sw)
	if err != nil {
		if errors.Is(err, ErrSweepRunning) {
			writeError(w, http.StatusConflict, err)
		} else {
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	sink, err := (&experiments.ReportConfig{Format: format}).NewSink(w)
	if err != nil {
		// Unreachable while NewSink accepts exactly the formats
		// FormatContentType does; still pre-first-byte if it ever fires.
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", ct)
	for _, t := range tables {
		if err := runner.WriteTable(sink, t); err != nil {
			// Mid-stream write error: the response is already
			// streaming, so HTTP can only abort the body. Count it.
			s.m.resultsAborted.Inc()
			return
		}
	}
}

func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.CacheStats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteText(w)
}
