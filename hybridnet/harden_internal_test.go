package hybridnet

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
)

// newHeldServer returns a server whose one-worker pool a blocking task
// holds until free is called, so a sweep submitted meanwhile stays
// running however fast its cells would run. free waits for the task to
// return; the test's cleanup calls it before it closes the server.
func newHeldServer(t *testing.T, cfg ServerConfig) (srv *Server, free func()) {
	t.Helper()
	cfg.Workers = 1
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	held, release := make(chan struct{}), make(chan struct{})
	blocker := make(chan error, 1)
	go func() { blocker <- srv.pool.Run([]func(){func() { close(held); <-release }}) }()
	<-held
	var once sync.Once
	free = func() {
		once.Do(func() {
			close(release)
			if err := <-blocker; err != nil {
				t.Error(err)
			}
		})
	}
	t.Cleanup(free)
	return srv, free
}

// TestServerCapacityShed: the bounded running-sweep count sheds the
// submission that exceeds it with *CapacityError and a retry hint,
// instead of queueing it. A blocking task holds the one-worker pool
// until the shed is seen, so the first sweep is still running when the
// second submission arrives, however fast its cells would run.
func TestServerCapacityShed(t *testing.T) {
	srv, free := newHeldServer(t, ServerConfig{MaxActive: 1})
	pathReq := SweepRequest{Scenario: "nq", Families: []string{"path"}, N: 512}
	cycleReq := SweepRequest{Scenario: "nq", Families: []string{"cycle"}, N: 512}
	first, err := srv.Submit(pathReq)
	if err != nil {
		t.Fatal(err)
	}
	// The first sweep's cells wait behind the held worker.
	for srv.pool.Stats().Queued == 0 {
		runtime.Gosched()
	}
	_, err = srv.Submit(cycleReq)
	var capErr *CapacityError
	if !errors.As(err, &capErr) {
		t.Fatalf("second concurrent submit = %v, want CapacityError", err)
	}
	if capErr.RetryAfter <= 0 {
		t.Fatalf("CapacityError without a retry hint: %+v", capErr)
	}
	// Resubmitting the running sweep joins it rather than being shed.
	st, err := srv.Submit(pathReq)
	if err != nil || !st.Reused {
		t.Fatalf("join of running sweep = %+v, %v", st, err)
	}

	free()
	if _, err := srv.Wait(first.ID); err != nil {
		t.Fatal(err)
	}
	// Capacity freed: the shed sweep is admitted now.
	if _, err := srv.Submit(cycleReq); err != nil {
		t.Fatalf("submit after capacity freed: %v", err)
	}
}

// TestServerResultsErrors: every fallible step of the results endpoint
// answers a proper JSON status before the first body byte — bad format
// 400, unknown sweep 404, still-running 409 — and the Content-Type
// comes from the experiments format table. A blocking task holds the
// one-worker pool until the 409 is seen, so the sweep is still running
// when its results are asked for.
func TestServerResultsErrors(t *testing.T) {
	srv, free := newHeldServer(t, ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st, err := srv.Submit(SweepRequest{Scenario: "nq", Families: []string{"path"}, N: 512})
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

	free()
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
