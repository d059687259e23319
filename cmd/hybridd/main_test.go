package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/cliutil"
	"repro/internal/experiments"
)

// startServer runs the binary's run() on an ephemeral port and returns
// the base URL plus a shutdown function that triggers the graceful
// path and waits for run to return.
func startServer(t *testing.T, args ...string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), pw)
		pw.Close()
		done <- err
	}()
	scanner := bufio.NewScanner(pr)
	if !scanner.Scan() {
		cancel()
		t.Fatalf("server produced no output: %v", <-done)
	}
	line := scanner.Text()
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		cancel()
		t.Fatalf("unexpected first line %q", line)
	}
	url := "http://" + line[i+len(marker):]
	go func() { // drain the rest of the pipe so run never blocks on it
		io.Copy(io.Discard, pr)
	}()
	return url, func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(30 * time.Second):
			return fmt.Errorf("shutdown timed out")
		}
	}
}

// TestSmoke is the CI smoke contract: start the server, list the
// scenarios, run one sweep end to end, shut down gracefully.
func TestSmoke(t *testing.T) {
	url, shutdown := startServer(t)

	resp, err := http.Get(url + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"table1"`) {
		t.Fatalf("scenarios: code=%d body=%s", resp.StatusCode, body)
	}

	resp, err = http.Post(url+"/v1/sweeps", "application/json",
		strings.NewReader(`{"scenario":"nq","families":["path"],"n":64}`))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit: code=%d %+v", resp.StatusCode, st)
	}

	deadline := time.Now().Add(60 * time.Second)
	for st.State == "running" {
		if time.Now().After(deadline) {
			t.Fatal("sweep did not finish in time")
		}
		r, err := http.Get(url + "/v1/sweeps/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	if st.State != "done" {
		t.Fatalf("sweep state %q: %s", st.State, st.Error)
	}

	r, err := http.Get(url + "/v1/sweeps/" + st.ID + "/results?format=md")
	if err != nil {
		t.Fatal(err)
	}
	md, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK || !strings.Contains(string(md), "| family |") {
		t.Fatalf("results: code=%d body=%s", r.StatusCode, md)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}

// submitSweep posts a sweep request and returns its id.
func submitSweep(t *testing.T, url, body string) (id string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return st.ID
}

// waitSweep polls a sweep until it is done and returns its cell count
// and how many of those cells the cache served.
func waitSweep(t *testing.T, url, id string) (cells, cached int) {
	t.Helper()
	for {
		r, err := http.Get(url + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State  string `json:"state"`
			Cells  int    `json:"cells"`
			Cached int    `json:"cached_cells"`
			Error  string `json:"error"`
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if st.State == "failed" {
			t.Fatalf("sweep failed: %s", st.Error)
		}
		if st.State == "done" {
			return st.Cells, st.Cached
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSmokeRepeatSweepIsCached asserts the serving-layer acceptance
// criterion over real HTTP: the same sweep submitted twice (second time
// fresh) returns byte-identical markdown with every cell of the rerun
// served by the result cache.
func TestSmokeRepeatSweepIsCached(t *testing.T) {
	url, shutdown := startServer(t)
	defer shutdown()

	get := func(id string) string {
		t.Helper()
		r, err := http.Get(url + "/v1/sweeps/" + id + "/results?format=md")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		return string(body)
	}

	req := `{"scenario":"nq","families":["path","cycle"],"n":64}`
	id := submitSweep(t, url, req)
	waitSweep(t, url, id)
	cold := get(id)

	id2 := submitSweep(t, url, `{"scenario":"nq","families":["path","cycle"],"n":64,"fresh":true}`)
	if id2 != id {
		t.Fatalf("content address changed: %s vs %s", id2, id)
	}
	cells, cached := waitSweep(t, url, id2)
	if cells == 0 || float64(cached)/float64(cells) < 0.9 {
		t.Fatalf("rerun served %d/%d cells from cache, want ≥ 90%%", cached, cells)
	}
	if warm := get(id2); warm != cold {
		t.Fatalf("rerun results differ:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
}

// TestGobRowsCountAsRejectedMisses: a disk tier whose cached cell rows
// are gob, the row format before the cell-row codec, serves no cell
// from them. Reopened, it recomputes every cell, and /v1/cache/stats
// counts each stored row as a miss and as rejected, not as a hit.
func TestGobRowsCountAsRejectedMisses(t *testing.T) {
	dir := t.TempDir()
	const req = `{"scenario":"nq","families":["path","cycle"],"n":64}`
	url, shutdown := startServer(t, "-cache-dir", dir)
	cells, _ := waitSweep(t, url, submitSweep(t, url, req))
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}

	// Overwrite every stored row with a gob blob of the scenario's row
	// type. The retain filter is the one walk over the disk index.
	store, err := artifact.NewStoreWithDisk(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	store.SetGC(artifact.GCConfig{LiveRatio: -1, Retain: func(ns, key string) bool {
		if ns == artifact.DefaultNamespace {
			keys = append(keys, key)
		}
		return true
	}})
	if cells == 0 || len(keys) != cells {
		t.Fatalf("the tier holds %d rows for %d cells", len(keys), cells)
	}
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(make([]experiments.NQScalingRow, 1)); err != nil {
		t.Fatal(err)
	}
	rows := store.Namespace(artifact.DefaultNamespace)
	for _, k := range keys {
		rows.Put(k, blob.Bytes())
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	url, shutdown = startServer(t, "-cache-dir", dir)
	defer shutdown()
	got, cached := waitSweep(t, url, submitSweep(t, url, `{"scenario":"nq","families":["path","cycle"],"n":64,"fresh":true}`))
	if got != cells || cached != 0 {
		t.Fatalf("reopened sweep served %d of %d cells from gob rows, want 0 of %d", cached, got, cells)
	}
	resp, err := http.Get(url + "/v1/cache/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Namespaces map[string]artifact.Stats `json:"namespaces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	res := st.Namespaces[artifact.DefaultNamespace]
	if res.Misses != uint64(cells) || res.Rejected != uint64(cells) || res.Hits != 0 {
		t.Fatalf("results namespace: %d hits, %d misses, %d rejected; want 0, %d, %d", res.Hits, res.Misses, res.Rejected, cells, cells)
	}
}

// TestForeignSweepRecordIsRejectedMiss: a persisted sweep record that
// is not the record of its own id — here sweep B's record copied over
// sweep A's — must not rehydrate A as B's sweep after a restart: A is
// unknown (404), the record counts as a rejected miss of the "sweeps"
// namespace, and B still rehydrates from its own record.
func TestForeignSweepRecordIsRejectedMiss(t *testing.T) {
	dir := t.TempDir()
	url, shutdown := startServer(t, "-cache-dir", dir)
	idA := submitSweep(t, url, `{"scenario":"nq","families":["path"],"n":64}`)
	idB := submitSweep(t, url, `{"scenario":"nq","families":["cycle"],"n":64}`)
	waitSweep(t, url, idA)
	waitSweep(t, url, idB)
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}

	store, err := artifact.NewStoreWithDisk(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	var keyA, keyB string
	store.SetGC(artifact.GCConfig{LiveRatio: -1, Retain: func(ns, key string) bool {
		if ns == "sweeps" && strings.HasSuffix(key, "/"+idA) {
			keyA = key
		}
		if ns == "sweeps" && strings.HasSuffix(key, "/"+idB) {
			keyB = key
		}
		return true
	}})
	records := store.Namespace("sweeps")
	recB, ok := records.Get(keyB)
	if keyA == "" || !ok {
		t.Fatalf("the tier holds no records for sweeps %s (%q) and %s (%q)", idA, keyA, idB, keyB)
	}
	records.Put(keyA, recB)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	url, shutdown = startServer(t, "-cache-dir", dir)
	defer shutdown()
	resp, err := http.Get(url + "/v1/sweeps/" + idA)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("sweep %s under sweep %s's record: code %d, want 404", idA, idB, resp.StatusCode)
	}
	if cells, _ := waitSweep(t, url, idB); cells == 0 {
		t.Fatalf("sweep %s rehydrated with no cells", idB)
	}
	resp, err = http.Get(url + "/v1/cache/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Namespaces map[string]artifact.Stats `json:"namespaces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sw := st.Namespaces["sweeps"]; sw.Rejected != 1 || sw.Hits != 1 {
		t.Fatalf("sweeps namespace: %d hits, %d misses, %d rejected; want 1 hit and 1 rejected", sw.Hits, sw.Misses, sw.Rejected)
	}
}

// TestSmokeMetricsAndRateLimit: the hardening flags work end to end —
// an over-burst submission answers 429 with Retry-After, and /metrics
// serves the Prometheus text exposition counting the shed.
func TestSmokeMetricsAndRateLimit(t *testing.T) {
	url, shutdown := startServer(t, "-rate", "0.001", "-burst", "1")
	defer shutdown()

	resp, err := http.Post(url+"/v1/sweeps", "application/json",
		strings.NewReader(`{"scenario":"nq","families":["path"],"n":64}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: code=%d", resp.StatusCode)
	}
	resp, err = http.Post(url+"/v1/sweeps", "application/json",
		strings.NewReader(`{"scenario":"nq","families":["cycle"],"n":64}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-burst submit: code=%d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	r, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: code=%d", r.StatusCode)
	}
	for _, want := range []string{
		`hybridd_admission_shed_total{reason="rate"} 1`,
		"# TYPE hybridd_http_request_seconds histogram",
		"hybridd_pool_workers",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestUsage pins the shared cliutil -h shape.
func TestUsage(t *testing.T) {
	var buf strings.Builder
	if err := run(context.Background(), []string{"-h"}, &buf); err != nil {
		t.Fatalf("-h: %v", err)
	}
	out := buf.String()
	for _, flag := range []string{"-addr", "-peers", "-self", "-peer-probe-interval", "-peer-timeout"} {
		if !strings.Contains(out, flag) {
			t.Errorf("usage missing %s:\n%s", flag, out)
		}
	}
	if err := cliutil.VerifyUsageText("hybridd", out); err != nil {
		t.Errorf("usage text invalid: %v\n%s", err, out)
	}
}

// TestBadFlag: unknown flags fail run with an error.
func TestBadFlag(t *testing.T) {
	var buf strings.Builder
	if err := run(context.Background(), []string{"-nosuch"}, &buf); err == nil {
		t.Fatal("run accepted an unknown flag")
	}
}

// TestClusterFlagValidation: invalid -peers/-self combinations must
// fail run() before anything binds (main turns the error into one
// stderr line + exit 1), never half-start a misconfigured member.
func TestClusterFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"peers without self", []string{"-peers", "a:1,b:2"}, "-peers requires -self"},
		{"self without peers", []string{"-self", "a:1"}, "-self requires -peers"},
		{"self not in peers", []string{"-peers", "a:1,b:2", "-self", "c:3"}, "not in the -peers list"},
		{"peers without cache", []string{"-peers", "a:1,b:2", "-self", "a:1", "-cache-mb", "-1"}, "artifact cache"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf strings.Builder
			err := run(context.Background(), append([]string{"-addr", "127.0.0.1:0"}, tc.args...), &buf)
			if err == nil {
				t.Fatalf("run(%v) started despite invalid cluster flags", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if strings.Contains(buf.String(), "listening on") {
				t.Errorf("server began listening before validation: %q", buf.String())
			}
		})
	}
}

// TestClusterSingleMemberSmoke: a one-member cluster (peers == {self})
// is valid and serves its peer endpoints; every key is self-owned so
// sweeps work exactly as in single-node mode.
func TestClusterSingleMemberSmoke(t *testing.T) {
	url, shutdown := startServer(t,
		"-peers", "127.0.0.1:19999", "-self", "127.0.0.1:19999",
		"-cache-dir", t.TempDir(), "-peer-probe-interval", "100ms")
	defer shutdown()

	resp, err := http.Get(url + "/v1/peer/ping")
	if err != nil {
		t.Fatal(err)
	}
	var ping struct {
		Self string `json:"self"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ping); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ping.Self != "127.0.0.1:19999" {
		t.Fatalf("ping: code=%d self=%q", resp.StatusCode, ping.Self)
	}

	r, err := http.Get(url + "/v1/cache/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Peers *struct {
			Self    string `json:"self"`
			Members []struct {
				Addr  string `json:"addr"`
				State string `json:"state"`
			} `json:"members"`
		} `json:"peers"`
	}
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if st.Peers == nil || st.Peers.Self != "127.0.0.1:19999" || len(st.Peers.Members) != 1 {
		t.Fatalf("cache stats peers section = %+v", st.Peers)
	}
}

// TestFlagErrors: -h prints the usage text to stdout and exits 0; an
// unknown flag prints one error line to stderr, nothing to stdout, and
// exits 1.
func TestFlagErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := exitCode(context.Background(), []string{"-h"}, &stdout, &stderr); code != 0 || stderr.Len() != 0 ||
		!strings.HasPrefix(stdout.String(), "Usage: hybridd [flags]") {
		t.Errorf("-h: exit code %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := exitCode(context.Background(), []string{"-nosuch"}, &stdout, &stderr); code != 1 || stdout.Len() != 0 ||
		stderr.String() != "hybridd: flag provided but not defined: -nosuch\n" {
		t.Errorf("-nosuch: exit code %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}
