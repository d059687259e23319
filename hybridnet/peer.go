package hybridnet

// Cluster mode (DESIGN.md §15): a static membership of hybridd peers
// shares its content-addressed artifacts. A consistent-hash ring over
// namespace-qualified keys assigns every blob a primary owner; each
// peer probes the others' liveness, pulls missing blobs from their
// owner on a local cache miss (verified against the content hash,
// singleflighted, written through locally), and pushes every locally
// computed blob to its owner asynchronously. Every peer interaction is
// allowed to fail — the fill path degrades to local compute and counts
// the degradation, mirroring how the HYBRID model's global network is
// useful but never load-bearing for correctness.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"

	"repro/internal/artifact"
	"repro/internal/metrics"
	"repro/internal/peer"
)

// PeerStats is the cluster section of /v1/cache/stats: membership with
// liveness, fetch outcomes, degradations, and the replication queue.
type PeerStats struct {
	Self    string        `json:"self"`
	Members []peer.Status `json:"members"`
	// Fetch counts remote fill attempts by outcome
	// (hit/miss/error/timeout).
	Fetch map[string]uint64 `json:"fetch"`
	// Degraded counts local misses that fell back to local compute
	// because the owning peer was unreachable, slow, or corrupt.
	Degraded uint64 `json:"degraded"`
	// Replication is the owner-directed push queue.
	Replication peer.ReplicatorStats `json:"replication"`
}

// cluster bundles the server's peer-layer state.
type cluster struct {
	self  string
	reg   *peer.Registry
	ring  *peer.Ring
	fetch *peer.Fetcher
	repl  *peer.Replicator

	// Metric cells, installed by registerMetrics before any traffic.
	degraded  *metrics.Counter
	outcomes  map[peer.Outcome]*metrics.Counter
	replicate *metrics.CounterVec
}

// fetchOutcomes is the full label set of hybridd_peer_fetch_total,
// pre-created so the series exist at zero.
var fetchOutcomes = []peer.Outcome{peer.OutcomeHit, peer.OutcomeMiss, peer.OutcomeError, peer.OutcomeTimeout}

// newCluster validates the peer configuration and builds the registry,
// ring, fetcher and replicator. The caller starts probing and installs
// the namespace hooks.
func newCluster(cfg ServerConfig, version string) (*cluster, error) {
	pcfg := peer.Config{
		Self:          cfg.Self,
		Peers:         cfg.Peers,
		Version:       version,
		ProbeInterval: cfg.PeerProbeInterval,
		FetchTimeout:  cfg.PeerFetchTimeout,
		HedgeDelay:    cfg.PeerHedgeDelay,
		Seed:          cfg.PeerSeed,
		Transport:     cfg.PeerTransport,
	}
	reg, err := peer.NewRegistry(pcfg)
	if err != nil {
		return nil, fmt.Errorf("hybridnet: %w", err)
	}
	return &cluster{
		self:     cfg.Self,
		reg:      reg,
		ring:     peer.NewRing(cfg.Peers, 0),
		fetch:    peer.NewFetcher(pcfg, reg),
		repl:     peer.NewReplicator(pcfg, reg),
		outcomes: make(map[peer.Outcome]*metrics.Counter, len(fetchOutcomes)),
	}, nil
}

// close stops liveness probing and drains the replication queue
// best-effort.
func (c *cluster) close() {
	c.repl.Close()
	c.reg.Close()
}

// qualify builds the ring key: namespaces are independent key spaces,
// so ownership is decided on the (namespace, key) pair.
func qualify(nsName, key string) string { return nsName + "\x00" + key }

// fill returns the artifact.FillFunc for one namespace: resolve the
// owner on the ring, fetch with retry/backoff and a bounded hedge, and
// classify the outcome. Anything but a verified hit degrades to local
// compute — the fill never fails a sweep.
func (c *cluster) fill(nsName string) artifact.FillFunc {
	return func(key string) ([]byte, string, error) {
		owners := c.ring.Owners(qualify(nsName, key), 2)
		candidates := owners[:0:0]
		for _, o := range owners {
			if o != c.self {
				candidates = append(candidates, o)
			}
		}
		if len(owners) == 0 || owners[0] == c.self || len(candidates) == 0 {
			// This peer is the key's owner (or is alone on the ring):
			// there is no better-informed peer to ask, so a local miss
			// is authoritative. Not a peer interaction, not counted.
			return nil, "", artifact.ErrFillUnavailable
		}
		blob, digest, outcome := c.fetch.Fetch(context.Background(), nsName, key, candidates)
		if ctr := c.outcomes[outcome]; ctr != nil {
			ctr.Inc()
		}
		switch outcome {
		case peer.OutcomeHit:
			return blob, digest, nil
		case peer.OutcomeMiss:
			// Every consulted owner authoritatively lacks the blob; the
			// local compute that follows is first-time work, not a
			// degradation.
			return nil, "", artifact.ErrFillUnavailable
		default:
			if c.degraded != nil {
				c.degraded.Inc()
			}
			return nil, "", fmt.Errorf("hybridnet: peer fetch %s blob: %s", nsName, outcome)
		}
	}
}

// replicateHook returns the artifact.ReplicateFunc for one namespace:
// offer every locally computed blob to its ring owner. Self-owned
// blobs stay put; the push is async and best-effort.
func (c *cluster) replicateHook(nsName string) artifact.ReplicateFunc {
	return func(key string, value []byte) {
		owner := c.ring.Owner(qualify(nsName, key))
		if owner == "" || owner == c.self {
			return
		}
		c.repl.Enqueue(owner, nsName, key, value)
	}
}

// stats snapshots the cluster for /v1/cache/stats.
func (c *cluster) stats() *PeerStats {
	st := &PeerStats{
		Self:        c.self,
		Members:     c.reg.Snapshot(),
		Fetch:       make(map[string]uint64, len(fetchOutcomes)),
		Replication: c.repl.Stats(),
	}
	for o, ctr := range c.outcomes {
		st.Fetch[string(o)] = ctr.Value()
	}
	if c.degraded != nil {
		st.Degraded = c.degraded.Value()
	}
	return st
}

// installHooks wires the fill and replicate hooks into every clustered
// namespace. Results always participate; the graph and profile
// namespaces only when they are store-backed (diskBacked: CacheDir
// set), since without a disk tier their blobs have nowhere local to
// live — the decoded caches in front of them would recompute anyway.
func (s *Server) installHooks(diskBacked bool) {
	nss := []*artifact.Namespace{s.store.Namespace(artifact.DefaultNamespace)}
	if diskBacked {
		nss = append(nss, s.store.Namespace(graphNamespace), s.store.Namespace(profileNamespace))
	}
	for _, ns := range nss {
		ns.SetFill(s.cluster.fill(ns.Name()))
		ns.SetReplicate(s.cluster.replicateHook(ns.Name()))
	}
}

// peerNamespace resolves the {ns} path segment of the peer artifact
// endpoints to a clustered namespace. The sweeps namespace is excluded
// on purpose: records are tiny, derived, and re-persisted by whichever
// peer finishes the sweep.
func (s *Server) peerNamespace(name string) (*artifact.Namespace, bool) {
	switch name {
	case artifact.DefaultNamespace, graphNamespace, profileNamespace:
		return s.store.Namespace(name), true
	default:
		return nil, false
	}
}

// handlePeerPing answers the liveness probe with this peer's identity
// and artifact code version (a version-skewed peer is useless as a
// blob source — its keys live under another prefix).
func (s *Server) handlePeerPing(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{
		"self":    s.cluster.self,
		"version": s.version,
	})
}

// handlePeerArtifactGet serves one blob to a fetching peer, strictly
// from the local tiers (GetLocal — a fill here would recurse across
// the cluster). The content digest rides in a header so the fetcher
// can verify the bytes end to end.
func (s *Server) handlePeerArtifactGet(w http.ResponseWriter, r *http.Request) {
	ns, ok := s.peerNamespace(r.PathValue("ns"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown artifact namespace %q", r.PathValue("ns")))
		return
	}
	blob, ok := ns.GetLocal(r.PathValue("key"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such artifact"))
		return
	}
	sum := sha256.Sum256(blob)
	w.Header().Set(peer.DigestHeader, hex.EncodeToString(sum[:]))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(blob)
}

// handlePeerArtifactPut accepts an owner-directed replication push:
// verify the advertised digest, then store locally (PutLocal — the
// receiver is the owner, re-offering the blob to the ring would only
// echo it back).
func (s *Server) handlePeerArtifactPut(w http.ResponseWriter, r *http.Request) {
	ns, ok := s.peerNamespace(r.PathValue("ns"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown artifact namespace %q", r.PathValue("ns")))
		return
	}
	blob, err := io.ReadAll(http.MaxBytesReader(w, r.Body, peer.MaxBlobBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading blob: %w", err))
		return
	}
	sum := sha256.Sum256(blob)
	if want := r.Header.Get(peer.DigestHeader); want == "" || want != hex.EncodeToString(sum[:]) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("blob digest mismatch (header %q)", want))
		return
	}
	ns.PutLocal(r.PathValue("key"), blob)
	w.WriteHeader(http.StatusNoContent)
}
