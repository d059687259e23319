package hybridnet_test

// Hardening coverage (DESIGN.md §11): admission control (rate and
// capacity shedding with Retry-After), the /metrics exposition, the
// bounded sweep registry with record rehydration, and the
// context-aware wait paths.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/hybridnet"
)

func postSweep(t *testing.T, url string, req hybridnet.SweepRequest) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServerRateLimit429: with a token-bucket limiter configured, a
// client's submissions beyond the burst answer JSON 429 with a
// Retry-After hint, and earlier submissions are unaffected.
func TestServerRateLimit429(t *testing.T) {
	srv := newTestServer(t, hybridnet.ServerConfig{RatePerSec: 0.001, Burst: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp := postSweep(t, ts.URL, nqPathRequest())
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d within burst: code %d", i, resp.StatusCode)
		}
	}
	resp := postSweep(t, ts.URL, nqPathRequest())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-burst submit: code %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("429 Content-Type = %q, want JSON error shape", ct)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("429 body is not the JSON error document: %v", err)
	}
}

// TestServerCapacityShed: the bounded running-sweep count sheds the
// submission that exceeds it with *CapacityError and a retry hint,
// instead of queueing it.
func TestServerCapacityShed(t *testing.T) {
	srv := newTestServer(t, hybridnet.ServerConfig{Workers: 1, MaxActive: 1})
	first, err := srv.Submit(hybridnet.SweepRequest{Scenario: "nq", Families: []string{"path"}, N: 512})
	if err != nil {
		t.Fatal(err)
	}
	_, err = srv.Submit(hybridnet.SweepRequest{Scenario: "nq", Families: []string{"cycle"}, N: 512})
	var cap *hybridnet.CapacityError
	if !errors.As(err, &cap) {
		t.Fatalf("second concurrent submit = %v, want CapacityError", err)
	}
	if cap.RetryAfter <= 0 {
		t.Fatalf("CapacityError without a retry hint: %+v", cap)
	}
	// Resubmitting the running sweep joins it rather than being shed.
	st, err := srv.Submit(hybridnet.SweepRequest{Scenario: "nq", Families: []string{"path"}, N: 512})
	if err != nil || !st.Reused {
		t.Fatalf("join of running sweep = %+v, %v", st, err)
	}
	if _, err := srv.Wait(first.ID); err != nil {
		t.Fatal(err)
	}
	// Capacity freed: the shed sweep is admitted now.
	if _, err := srv.Submit(hybridnet.SweepRequest{Scenario: "nq", Families: []string{"cycle"}, N: 512}); err != nil {
		t.Fatalf("submit after capacity freed: %v", err)
	}
}

// TestServerMetricsEndpoint: /metrics serves the Prometheus text
// exposition with the admission counters, pool gauges, cache hit
// ratios, and per-endpoint response counters.
func TestServerMetricsEndpoint(t *testing.T) {
	srv := newTestServer(t, hybridnet.ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postSweep(t, ts.URL, nqPathRequest())
	var st hybridnet.SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, err := srv.Wait(st.ID); err != nil {
		t.Fatal(err)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: code %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	text := buf.String()
	for _, want := range []string{
		"# TYPE hybridd_http_request_seconds histogram",
		"hybridd_sweeps_submitted_total 1",
		`hybridd_http_responses_total{endpoint="submit",code="202"} 1`,
		`hybridd_cache_hit_ratio{namespace="results"}`,
		"hybridd_pool_workers 2",
		`hybridd_sweeps{state="done"} 1`,
		`hybridd_admission_shed_total{reason="rate"} 0`,
		"hybridd_disk_corrupt_records_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServerSweepEvictionRehydration: with MaxSweeps=1, a finished
// sweep is evicted when the next one lands, yet its status and results
// stay addressable through the persisted record — and the re-rendered
// results are byte-identical to the original run.
func TestServerSweepEvictionRehydration(t *testing.T) {
	srv := newTestServer(t, hybridnet.ServerConfig{CacheDir: t.TempDir(), MaxSweeps: 1})

	a, err := srv.Submit(nqPathRequest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Wait(a.ID); err != nil {
		t.Fatal(err)
	}
	orig := results(t, srv, a.ID, "md")
	origStatus, _ := srv.Status(a.ID)

	b, err := srv.Submit(hybridnet.SweepRequest{Scenario: "nq", Families: []string{"cycle"}, N: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Wait(b.ID); err != nil {
		t.Fatal(err)
	}

	// A is evicted now; the lookup must rehydrate it from its record.
	st, err := srv.Status(a.ID)
	if err != nil {
		t.Fatalf("evicted sweep unaddressable: %v", err)
	}
	if st.State != hybridnet.SweepDone || st.Cells != origStatus.Cells {
		t.Fatalf("rehydrated status %+v, want done with %d cells", st, origStatus.Cells)
	}
	if again := results(t, srv, a.ID, "md"); !bytes.Equal(orig, again) {
		t.Fatal("rehydrated results differ from original run")
	}

	var text bytes.Buffer
	srv.Metrics().WriteText(&text)
	// Two evictions: B's completion evicted A, then A's rehydration
	// into the size-1 registry evicted B.
	if !strings.Contains(text.String(), "hybridd_sweeps_evicted_total 2") {
		t.Errorf("eviction not counted:\n%s", text.String())
	}
	if !strings.Contains(text.String(), "hybridd_sweeps_rehydrated_total 1") {
		t.Errorf("rehydration not counted:\n%s", text.String())
	}
}

// TestServerEvictionWithoutStore: bounded registry without a cache
// dir — the evicted sweep is simply gone (404), never a crash.
func TestServerEvictionWithoutStore(t *testing.T) {
	srv := newTestServer(t, hybridnet.ServerConfig{CacheBytes: -1, MaxSweeps: 1})
	a, err := srv.Submit(nqPathRequest())
	if err != nil {
		t.Fatal(err)
	}
	srv.Wait(a.ID)
	b, err := srv.Submit(hybridnet.SweepRequest{Scenario: "nq", Families: []string{"cycle"}, N: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv.Wait(b.ID)
	if _, err := srv.Status(a.ID); err != hybridnet.ErrUnknownSweep {
		t.Fatalf("evicted sweep without store: %v, want ErrUnknownSweep", err)
	}
	if _, err := srv.Status(b.ID); err != nil {
		t.Fatalf("retained sweep lost: %v", err)
	}
}

// TestServerWaitContext: WaitContext returns promptly with the
// context's error when the caller gives up, and the long-poll form of
// the status endpoint returns the final state.
func TestServerWaitContext(t *testing.T) {
	srv := newTestServer(t, hybridnet.ServerConfig{Workers: 1})
	st, err := srv.Submit(hybridnet.SweepRequest{Scenario: "nq", Families: []string{"path"}, N: 512})
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := srv.WaitContext(canceled, st.ID)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitContext(canceled) = %v", err)
	}
	if got.ID != st.ID {
		t.Fatalf("canceled wait lost the status snapshot: %+v", got)
	}
	if _, err := srv.WaitContext(context.Background(), "sw-nope"); err != hybridnet.ErrUnknownSweep {
		t.Fatalf("WaitContext(unknown) = %v", err)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var final hybridnet.SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	if final.State != hybridnet.SweepDone {
		t.Fatalf("long-poll returned %+v, want done", final)
	}
}

// TestServerResultsErrors: every fallible step of the results endpoint
// answers a proper JSON status before the first body byte — bad format
// 400, unknown sweep 404, still-running 409 — and the Content-Type
// comes from the experiments format table.
func TestServerResultsErrors(t *testing.T) {
	srv := newTestServer(t, hybridnet.ServerConfig{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st, err := srv.Submit(hybridnet.SweepRequest{Scenario: "nq", Families: []string{"path"}, N: 512})
	if err != nil {
		t.Fatal(err)
	}
	// Still running: 409, as JSON, not a truncated stream.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sweeps/"+st.ID+"/results", nil))
	if rec.Code != http.StatusConflict {
		t.Fatalf("results of running sweep: code %d, want 409", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("409 Content-Type = %q", ct)
	}

	for _, tc := range []struct {
		path string
		code int
	}{
		{"/v1/sweeps/" + st.ID + "/results?format=xml", http.StatusBadRequest},
		{"/v1/sweeps/sw-nope/results", http.StatusNotFound},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
			t.Errorf("%s: body is not the JSON error document (%v)", tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: code %d, want %d", tc.path, resp.StatusCode, tc.code)
		}
	}

	if _, err := srv.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/results?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv; charset=utf-8" {
		t.Fatalf("csv Content-Type = %q", ct)
	}
}

// postSweepXFF submits a sweep with an X-Forwarded-For header and
// returns the status code.
func postSweepXFF(t *testing.T, url, xff string, req hybridnet.SweepRequest) int {
	t.Helper()
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequest("POST", url+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if xff != "" {
		hreq.Header.Set("X-Forwarded-For", xff)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestRateLimitTrustProxy: with TrustProxy on, the limiter keys on the
// first X-Forwarded-For hop — the same forwarded client is limited
// across connections while a different forwarded client (same socket,
// the proxy's) keeps its own bucket.
func TestRateLimitTrustProxy(t *testing.T) {
	srv := newTestServer(t, hybridnet.ServerConfig{RatePerSec: 0.001, Burst: 1, TrustProxy: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code := postSweepXFF(t, ts.URL, "203.0.113.7", nqPathRequest()); code >= 300 {
		t.Fatalf("first submission from forwarded client: %d", code)
	}
	if code := postSweepXFF(t, ts.URL, "203.0.113.7", nqPathRequest()); code != http.StatusTooManyRequests {
		t.Fatalf("same forwarded client beyond burst: %d, want 429", code)
	}
	if code := postSweepXFF(t, ts.URL, "198.51.100.9", nqPathRequest()); code >= 300 {
		t.Fatalf("distinct forwarded client should have its own bucket: %d", code)
	}
}

// TestRateLimitIgnoresForwardedByDefault: without TrustProxy the
// client-forgeable header must not split the bucket — both requests
// come from one socket address and the second is shed.
func TestRateLimitIgnoresForwardedByDefault(t *testing.T) {
	srv := newTestServer(t, hybridnet.ServerConfig{RatePerSec: 0.001, Burst: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code := postSweepXFF(t, ts.URL, "203.0.113.7", nqPathRequest()); code >= 300 {
		t.Fatalf("first submission: %d", code)
	}
	if code := postSweepXFF(t, ts.URL, "198.51.100.9", nqPathRequest()); code != http.StatusTooManyRequests {
		t.Fatalf("forged header must not evade the socket bucket: %d, want 429", code)
	}
}
