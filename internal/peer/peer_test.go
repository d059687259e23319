package peer

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRingDeterministicAndBalanced(t *testing.T) {
	peers := []string{"c:3", "a:1", "b:2"}
	r1 := NewRing(peers, 0)
	r2 := NewRing([]string{"b:2", "c:3", "a:1", "b:2"}, 0) // shuffled + dup
	counts := map[string]int{}
	const keys = 10000
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("results\x00v=1/key-%d", i)
		o1, o2 := r1.Owner(k), r2.Owner(k)
		if o1 != o2 {
			t.Fatalf("ring not membership-order independent: %q vs %q for %q", o1, o2, k)
		}
		counts[o1]++
		owners := r1.Owners(k, 3)
		if len(owners) != 3 || owners[0] != o1 {
			t.Fatalf("Owners(%q, 3) = %v, want 3 distinct starting with %q", k, owners, o1)
		}
		if owners[0] == owners[1] || owners[1] == owners[2] || owners[0] == owners[2] {
			t.Fatalf("Owners returned duplicates: %v", owners)
		}
	}
	for p, c := range counts {
		share := float64(c) / keys
		if share < 0.15 || share > 0.55 {
			t.Errorf("peer %s owns %.1f%% of keys; want a roughly balanced ring", p, 100*share)
		}
	}
	if got := r1.Owners("k", 99); len(got) != 3 {
		t.Fatalf("Owners capped at membership: got %v", got)
	}
}

// rtFunc adapts a function to http.RoundTripper.
type rtFunc func(*http.Request) (*http.Response, error)

func (f rtFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func TestRegistryStateMachine(t *testing.T) {
	var fail atomic.Bool
	var version atomic.Value
	version.Store("v1")
	rt := rtFunc(func(r *http.Request) (*http.Response, error) {
		if fail.Load() {
			return nil, fmt.Errorf("injected: connection refused")
		}
		rec := httptest.NewRecorder()
		fmt.Fprintf(rec, `{"self":%q,"version":%q}`, r.URL.Host, version.Load())
		return rec.Result(), nil
	})
	reg, err := NewRegistry(Config{
		Self: "a:1", Peers: []string{"a:1", "b:2"}, Version: "v1",
		Transport: rt, DownAfter: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if got := reg.State("b:2"); got != Healthy {
		t.Fatalf("initial state = %v, want Healthy", got)
	}
	fail.Store(true)
	reg.ProbeOnce(ctx)
	if got := reg.State("b:2"); got != Suspect {
		t.Fatalf("after 1 failure: %v, want Suspect", got)
	}
	reg.ProbeOnce(ctx)
	reg.ProbeOnce(ctx)
	if got := reg.State("b:2"); got != Down {
		t.Fatalf("after 3 failures: %v, want Down", got)
	}
	fail.Store(false)
	reg.ProbeOnce(ctx)
	if got := reg.State("b:2"); got != Healthy {
		t.Fatalf("after recovery probe: %v, want Healthy", got)
	}
	// A version-skewed peer is as bad as a dead one: its blobs live
	// under a different cache prefix.
	version.Store("v2")
	reg.ProbeOnce(ctx)
	if got := reg.State("b:2"); got != Suspect {
		t.Fatalf("after version mismatch: %v, want Suspect", got)
	}
	snap := reg.Snapshot()
	if len(snap) != 2 || snap[0].Addr != "a:1" || snap[0].State != "healthy" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap[1].State != "suspect" || snap[1].Failures != 1 {
		t.Fatalf("snapshot[1] = %+v, want suspect with 1 failure", snap[1])
	}
	if reg.State("a:1") != Healthy {
		t.Fatal("self must always be Healthy")
	}
}

func TestRegistryValidation(t *testing.T) {
	cases := []Config{
		{Self: "", Peers: []string{"a:1"}},
		{Self: "a:1", Peers: nil},
		{Self: "x:9", Peers: []string{"a:1", "b:2"}},
		{Self: "a:1", Peers: []string{"a:1", "a:1"}},
		{Self: "a:1", Peers: []string{"a:1", ""}},
	}
	for i, cfg := range cases {
		if _, err := NewRegistry(cfg); err == nil {
			t.Errorf("case %d: NewRegistry(%+v) accepted an invalid membership", i, cfg)
		}
	}
}

// testPeer starts an httptest server acting as one artifact peer and
// returns its host:port.
func testPeer(t testing.TB, h http.HandlerFunc) string {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

func fetchCfg(self string, peers ...string) Config {
	return Config{
		Self: self, Peers: append([]string{self}, peers...),
		FetchTimeout: 500 * time.Millisecond, FetchRetries: 2,
		HedgeDelay:  30 * time.Millisecond,
		BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond,
		ProbeInterval: time.Hour, // tests probe explicitly
	}
}

func mustRegistry(t *testing.T, cfg Config) *Registry {
	t.Helper()
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestFetcherHit(t *testing.T) {
	blob := []byte("the artifact bytes")
	sum := sha256.Sum256(blob)
	addr := testPeer(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/peer/artifact/results/v=1/deadbeef" {
			t.Errorf("unexpected path %q", r.URL.Path)
		}
		w.Header().Set(DigestHeader, hex.EncodeToString(sum[:]))
		w.Write(blob)
	})
	cfg := fetchCfg("self:0", addr)
	f := NewFetcher(cfg, mustRegistry(t, cfg))
	got, digest, outcome := f.Fetch(context.Background(), "results", "v=1/deadbeef", []string{addr})
	if outcome != OutcomeHit || string(got) != string(blob) {
		t.Fatalf("Fetch = %q, %v; want hit", got, outcome)
	}
	if digest != hex.EncodeToString(sum[:]) {
		t.Fatalf("digest = %q", digest)
	}
}

func TestFetcherMissIsAuthoritative(t *testing.T) {
	var calls atomic.Int32
	addr := testPeer(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"no such artifact"}`, http.StatusNotFound)
	})
	cfg := fetchCfg("self:0", addr)
	f := NewFetcher(cfg, mustRegistry(t, cfg))
	_, _, outcome := f.Fetch(context.Background(), "results", "k", []string{addr})
	if outcome != OutcomeMiss {
		t.Fatalf("outcome = %v, want miss", outcome)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("404 must not be retried: %d calls", n)
	}
}

func TestFetcherRetriesThenError(t *testing.T) {
	var calls atomic.Int32
	addr := testPeer(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	cfg := fetchCfg("self:0", addr)
	f := NewFetcher(cfg, mustRegistry(t, cfg))
	_, _, outcome := f.Fetch(context.Background(), "results", "k", []string{addr})
	if outcome != OutcomeError {
		t.Fatalf("outcome = %v, want error", outcome)
	}
	if n := calls.Load(); n != int32(cfg.FetchRetries) {
		t.Fatalf("calls = %d, want %d (retry on 5xx)", n, cfg.FetchRetries)
	}
}

func TestFetcherTimeout(t *testing.T) {
	addr := testPeer(t, func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	})
	cfg := fetchCfg("self:0", addr)
	cfg.FetchTimeout = 50 * time.Millisecond
	cfg.FetchRetries = 1
	f := NewFetcher(cfg, mustRegistry(t, cfg))
	_, _, outcome := f.Fetch(context.Background(), "results", "k", []string{addr})
	if outcome != OutcomeTimeout {
		t.Fatalf("outcome = %v, want timeout", outcome)
	}
}

func TestFetcherHedgeServesFromSecondary(t *testing.T) {
	blob := []byte("hedged")
	sum := sha256.Sum256(blob)
	slow := testPeer(t, func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	})
	good := testPeer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(DigestHeader, hex.EncodeToString(sum[:]))
		w.Write(blob)
	})
	cfg := fetchCfg("self:0", slow, good)
	cfg.FetchTimeout = time.Second
	f := NewFetcher(cfg, mustRegistry(t, cfg))
	start := time.Now()
	got, _, outcome := f.Fetch(context.Background(), "results", "k", []string{slow, good})
	if outcome != OutcomeHit || string(got) != string(blob) {
		t.Fatalf("Fetch = %q, %v; want hedged hit", got, outcome)
	}
	if d := time.Since(start); d >= cfg.FetchTimeout {
		t.Fatalf("hedge did not overlap the slow primary: took %v", d)
	}
}

func TestFetcherDownPrimarySkippedCountsAsError(t *testing.T) {
	// The primary owner is Down; the secondary authoritatively
	// misses. The caller is still degrading (the owner's answer is
	// unknown), so the outcome must be error, not miss.
	missAddr := testPeer(t, func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	})
	cfg := fetchCfg("self:0", "127.0.0.1:1", missAddr)
	cfg.DownAfter = 1
	reg := mustRegistry(t, cfg)
	reg.Observe("127.0.0.1:1", false) // mark primary Down
	if reg.State("127.0.0.1:1") != Down {
		t.Fatal("setup: primary should be Down")
	}
	f := NewFetcher(cfg, reg)
	var calls []string
	_ = calls
	_, _, outcome := f.Fetch(context.Background(), "results", "k", []string{"127.0.0.1:1", missAddr})
	if outcome != OutcomeError {
		t.Fatalf("outcome = %v, want error (owner down => degradation)", outcome)
	}
	// All candidates down => error without any request.
	reg.Observe(missAddr, false)
	_, _, outcome = f.Fetch(context.Background(), "results", "k", []string{"127.0.0.1:1", missAddr})
	if outcome != OutcomeError {
		t.Fatalf("all-down outcome = %v, want error", outcome)
	}
}

func TestReplicatorRetriesAndStats(t *testing.T) {
	var puts atomic.Int32
	var gotDigest atomic.Value
	addr := testPeer(t, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPut {
			t.Errorf("method = %s", r.Method)
		}
		if puts.Add(1) <= 2 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		gotDigest.Store(r.Header.Get(DigestHeader))
		w.WriteHeader(http.StatusNoContent)
	})
	cfg := fetchCfg("self:0", addr)
	cfg.ReplicateAttempts = 4
	cfg.ReplicateWorkers = 1
	var outcomes []string
	r := NewReplicator(cfg, mustRegistry(t, cfg))
	done := make(chan string, 1)
	r.Observe = func(o string) { done <- o }
	blob := []byte("replicate me")
	r.Enqueue(addr, "results", "v=1/abc", blob)
	select {
	case o := <-done:
		outcomes = append(outcomes, o)
	case <-time.After(5 * time.Second):
		t.Fatal("replication never finished")
	}
	r.Close()
	if outcomes[0] != "ok" {
		t.Fatalf("outcome = %q, want ok after retries", outcomes[0])
	}
	sum := sha256.Sum256(blob)
	if gotDigest.Load() != hex.EncodeToString(sum[:]) {
		t.Fatalf("digest header = %v", gotDigest.Load())
	}
	st := r.Stats()
	if st.Enqueued != 1 || st.Sent != 1 || st.Errors != 0 || st.Pending != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Closed replicator drops instead of blocking.
	r.Enqueue(addr, "results", "k2", blob)
	if st := r.Stats(); st.Dropped != 1 {
		t.Fatalf("post-close enqueue: stats = %+v, want 1 dropped", st)
	}
}

func TestReplicatorGivesUpAndQueueBound(t *testing.T) {
	addr := testPeer(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "never", http.StatusInternalServerError)
	})
	cfg := fetchCfg("self:0", addr)
	cfg.ReplicateAttempts = 2
	cfg.ReplicateWorkers = 1
	cfg.ReplicateQueue = 1
	r := NewReplicator(cfg, mustRegistry(t, cfg))
	for i := 0; i < 50; i++ {
		r.Enqueue(addr, "results", fmt.Sprintf("k%d", i), []byte("x"))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := r.Stats()
		if st.Pending == 0 && st.Errors+st.Dropped == 50 && st.Sent == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never drained: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	r.Close()
	st := r.Stats()
	if st.Errors == 0 || st.Dropped == 0 {
		t.Fatalf("want both exhausted pushes and queue-bound drops, got %+v", st)
	}
}

func TestFaultTransportDeterministic(t *testing.T) {
	var served atomic.Int32
	base := rtFunc(func(r *http.Request) (*http.Response, error) {
		served.Add(1)
		rec := httptest.NewRecorder()
		rec.WriteString("ok")
		return rec.Result(), nil
	})
	outcomes := func(seed int64) []bool {
		tr := &FaultTransport{Faults: Faults{Seed: seed, Drop: 0.5}, Base: base}
		var out []bool
		for i := 0; i < 64; i++ {
			req := httptest.NewRequest(http.MethodGet, "http://p:1/v1/peer/ping", nil)
			resp, err := tr.RoundTrip(req)
			if err == nil {
				resp.Body.Close()
			}
			out = append(out, err == nil)
		}
		return out
	}
	a, b := outcomes(7), outcomes(7)
	c := outcomes(8)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed must inject the same fault schedule")
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds should differ (64 draws at p=0.5)")
	}
	drops := 0
	for _, ok := range a {
		if !ok {
			drops++
		}
	}
	if drops < 16 || drops > 48 {
		t.Fatalf("drop rate wildly off: %d/64 dropped at p=0.5", drops)
	}
}

func TestFaultTransportDelay(t *testing.T) {
	base := rtFunc(func(r *http.Request) (*http.Response, error) {
		rec := httptest.NewRecorder()
		return rec.Result(), nil
	})
	tr := &FaultTransport{Faults: Faults{Seed: 1, Delay: 50 * time.Millisecond}, Base: base}
	req := httptest.NewRequest(http.MethodGet, "http://p:1/x", nil)
	start := time.Now()
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("delay not applied: %v", d)
	}
	// A canceled request context aborts the injected delay.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	req2 := httptest.NewRequest(http.MethodGet, "http://p:1/x", nil).WithContext(ctx)
	tr2 := &FaultTransport{Faults: Faults{Seed: 1, Delay: 10 * time.Second}, Base: base}
	if _, err := tr2.RoundTrip(req2); err == nil {
		t.Fatal("want context error when delay outlives the request context")
	}
}
