// Command hybridd serves the experiment harness over HTTP: a
// long-running sweep service (stdlib net/http only) over the scenario
// registry of internal/experiments, backed by the namespaced
// content-addressed artifact store of internal/artifact — result rows
// in one namespace, CSR topologies in another — so repeated
// sweep cells are answered without re-simulation and each distinct
// graph instance is built once and shared across points, sweeps, and
// restarts (DESIGN.md §7, §9).
//
// Endpoints:
//
//	GET  /v1/scenarios            list the registered scenarios
//	POST /v1/sweeps               submit {"scenario","families","n","seed"}
//	GET  /v1/sweeps/{id}          poll a sweep's status
//	GET  /v1/sweeps/{id}/results  stream results (?format=md|csv|jsonl)
//	GET  /v1/sweeps/{id}/stream   live cell delivery while the sweep runs
//	                              (?format=sse|jsonl, DESIGN.md §12)
//	GET  /v1/cache/stats          artifact-store counters (per namespace,
//	                              disk tier, topology cache, pool depth)
//	GET  /metrics                 Prometheus text exposition
//
// Wrong-method requests on the /v1/* paths answer 405 with an Allow
// header and the JSON error shape. Sweeps are content-addressed:
// submitting an identical request returns the already-finished sweep,
// and `"fresh": true` re-executes through the cell cache instead.
// Admission control (DESIGN.md §11): -rate/-burst enable per-client
// token-bucket limiting of submissions and -max-active bounds
// concurrently running sweeps; over-limit submissions answer 429 with
// a Retry-After header instead of queueing. -trust-proxy keys the
// limiter on the first X-Forwarded-For hop (only enable behind a
// trusted reverse proxy — the header is client-forgeable).
// -disk-max-mb bounds the persistent tier, enforced by segment
// compaction. -stream-buffer sizes each stream subscriber's cell
// buffer; one that falls that far behind is disconnected.
//
// Cluster mode (DESIGN.md §15): -peers lists the full static
// membership (host:port, comma-separated) and -self names this
// process's own entry. Peers probe each other's liveness, assign every
// artifact a primary owner on a consistent-hash ring, fill local cache
// misses from the owner (hash-verified, with retry/backoff and a
// bounded hedge) and replicate local computes to it — degrading to
// local compute whenever a peer is down, slow, or corrupt, so a sweep
// never fails because of the cluster. The peers answer each other on
// GET /v1/peer/ping and GET/PUT /v1/peer/artifact/{ns}/{key}.
// SIGINT/SIGTERM shut down gracefully, draining in-flight sweeps.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/hybridnet"
	"repro/internal/cliutil"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hybridd:", err)
		os.Exit(1)
	}
}

// run starts the service and blocks until ctx is cancelled (or the
// listener fails). It prints one "listening on ADDR" line to w before
// serving, so callers binding port 0 can discover the address.
func run(ctx context.Context, args []string, w io.Writer) error {
	fs := cliutil.NewFlagSet(w, "hybridd",
		"Serve the scenario-sweep harness over HTTP with a content-addressed result cache.",
		"hybridd -addr 127.0.0.1:8080",
		"hybridd -cache-dir /var/lib/hybridd   # persist results across restarts",
		"hybridd -peers a:8080,b:8080,c:8080 -self a:8080 -cache-dir /var/lib/hybridd   # one cluster member",
		`curl localhost:8080/v1/scenarios`,
		`curl -X POST localhost:8080/v1/sweeps -d '{"scenario":"table1","families":["path","grid2d"],"n":256}'`,
	)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	workers := fs.Int("workers", 0, "shared sweep worker-pool size (0 = GOMAXPROCS)")
	cacheMB := fs.Int("cache-mb", 64, "in-memory result-cache budget in MiB (negative disables caching)")
	cacheDir := fs.String("cache-dir", "", "directory for the persistent result-cache tier (empty = memory only)")
	diskMaxMB := fs.Int("disk-max-mb", 0, "disk-tier byte bound in MiB, GC-enforced (0 = unbounded; needs -cache-dir)")
	rate := fs.Float64("rate", 0, "per-client sweep submissions per second (0 = no rate limiting)")
	burst := fs.Int("burst", 0, "rate-limiter burst size (0 = max(1, 2×rate))")
	maxActive := fs.Int("max-active", 0, "concurrently running sweeps before submissions shed 429 (0 = 4×workers, negative = unbounded)")
	maxSweeps := fs.Int("max-sweeps", 0, "finished sweeps kept in memory; evicted ones re-serve from cache (0 = default, negative = unbounded)")
	trustProxy := fs.Bool("trust-proxy", false, "rate-limit by the first X-Forwarded-For hop (only behind a trusted reverse proxy)")
	streamBuffer := fs.Int("stream-buffer", 0, "buffered cells per stream subscriber before a slow consumer is dropped (0 = default)")
	peersFlag := fs.String("peers", "", "cluster mode: full static membership as comma-separated host:port entries (requires -self)")
	self := fs.String("self", "", "this process's own host:port entry in -peers (required with -peers)")
	probeInterval := fs.Duration("peer-probe-interval", time.Second, "cluster liveness probe period")
	peerTimeout := fs.Duration("peer-timeout", 2*time.Second, "per-attempt timeout of remote artifact fetches")
	if err := fs.Parse(args); err != nil {
		if cliutil.HelpRequested(err) {
			return nil
		}
		return err
	}

	// Validate the cluster flags before anything binds or spawns: a
	// misconfigured member must refuse to start, not half-join the ring.
	peers := splitPeers(*peersFlag)
	switch {
	case len(peers) > 0 && *self == "":
		return errors.New("-peers requires -self (this process's own host:port entry)")
	case *self != "" && len(peers) == 0:
		return errors.New("-self requires -peers (the full cluster membership)")
	case *self != "" && !slices.Contains(peers, *self):
		return fmt.Errorf("-self %q is not in the -peers list %v", *self, peers)
	}

	srv, err := hybridnet.NewServer(hybridnet.ServerConfig{
		Workers:      *workers,
		CacheBytes:   int64(*cacheMB) << 20,
		CacheDir:     *cacheDir,
		DiskBytes:    int64(*diskMaxMB) << 20,
		RatePerSec:   *rate,
		Burst:        *burst,
		MaxActive:    *maxActive,
		MaxSweeps:    *maxSweeps,
		TrustProxy:   *trustProxy,
		StreamBuffer: *streamBuffer,

		Peers:             peers,
		Self:              *self,
		PeerProbeInterval: *probeInterval,
		PeerFetchTimeout:  *peerTimeout,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Close()
		return err
	}
	fmt.Fprintf(w, "hybridd: listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		srv.Close()
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting connections, let in-flight
	// requests finish, then drain the sweep pool and the cache.
	fmt.Fprintf(w, "hybridd: shutting down\n")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		srv.Close()
		return err
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		srv.Close()
		return err
	}
	return srv.Close()
}

// splitPeers parses the -peers flag: comma-separated host:port entries,
// whitespace-tolerant, empty segments dropped so a trailing comma is
// harmless.
func splitPeers(s string) []string {
	var peers []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}
