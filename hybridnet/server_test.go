package hybridnet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/hybridnet"
	"repro/internal/runner"
)

func newTestServer(t *testing.T, cfg hybridnet.ServerConfig) *hybridnet.Server {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	srv, err := hybridnet.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// nqPathRequest is the cheapest real sweep: 1 family × 1 n × 4 workload
// points of the Theorem 15/16 NQ_k analysis.
func nqPathRequest() hybridnet.SweepRequest {
	return hybridnet.SweepRequest{Scenario: "nq", Families: []string{"path"}, N: 64}
}

func results(t *testing.T, srv *hybridnet.Server, id, format string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := srv.WriteResults(&buf, id, format); err != nil {
		t.Fatalf("WriteResults(%s, %s): %v", id, format, err)
	}
	return buf.Bytes()
}

// TestServerCacheHitSweepByteIdentical is the acceptance contract: the
// same sweep submitted twice returns byte-identical results in every
// format, with the second run served entirely from the result cache.
func TestServerCacheHitSweepByteIdentical(t *testing.T) {
	srv := newTestServer(t, hybridnet.ServerConfig{})

	st, err := srv.Submit(nqPathRequest())
	if err != nil {
		t.Fatal(err)
	}
	st, err = srv.Wait(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != hybridnet.SweepDone {
		t.Fatalf("first sweep state %q: %s", st.State, st.Error)
	}
	if st.Cells == 0 || st.CachedCells != 0 {
		t.Fatalf("cold sweep cells=%d cached=%d", st.Cells, st.CachedCells)
	}
	coldStats := srv.CacheStats()
	coldResults := coldStats.Namespaces["results"]
	if coldResults.Puts != uint64(st.Cells) || coldResults.Misses != uint64(st.Cells) {
		t.Fatalf("cold results-namespace stats %+v for %d cells", coldResults, st.Cells)
	}
	// The sweep's one topology (path, n=64) was built exactly once and
	// shared across the four workload points.
	if gc := coldStats.GraphCache; gc.Builds != 1 {
		t.Fatalf("cold sweep built %d graphs, want 1: %+v", gc.Builds, gc)
	}

	cold := map[string][]byte{}
	for _, format := range []string{"md", "csv", "jsonl"} {
		cold[format] = results(t, srv, st.ID, format)
		if len(cold[format]) == 0 {
			t.Fatalf("empty %s results", format)
		}
	}

	// Fresh forces re-execution through the cache.
	req := nqPathRequest()
	req.Fresh = true
	st2, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != st.ID {
		t.Fatalf("content address changed across resubmission: %s vs %s", st2.ID, st.ID)
	}
	st2, err = srv.Wait(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != hybridnet.SweepDone {
		t.Fatalf("fresh sweep state %q: %s", st2.State, st2.Error)
	}
	if st2.Cells != st.Cells {
		t.Fatalf("fresh sweep resolved %d cells, first run %d", st2.Cells, st.Cells)
	}
	// The acceptance bar is ≥ 90% served from the cache; determinism
	// actually delivers 100%.
	if frac := float64(st2.CachedCells) / float64(st2.Cells); frac < 0.9 {
		t.Fatalf("fresh sweep served %.0f%% from cache, want ≥ 90%%", 100*frac)
	}
	warmStats := srv.CacheStats()
	warmResults := warmStats.Namespaces["results"]
	if warmResults.Hits-coldResults.Hits != uint64(st2.CachedCells) {
		t.Fatalf("cache hits went %d → %d for %d cached cells", coldResults.Hits, warmResults.Hits, st2.CachedCells)
	}
	if warmResults.Misses != coldResults.Misses {
		t.Fatalf("fresh sweep missed the cache: %+v", warmResults)
	}
	// The resubmitted sweep built zero graphs: every cell resolved from
	// the result cache before topology construction could even start.
	if warmStats.GraphCache.Builds != coldStats.GraphCache.Builds {
		t.Fatalf("resubmitted sweep built graphs: %+v vs %+v", warmStats.GraphCache, coldStats.GraphCache)
	}

	for _, format := range []string{"md", "csv", "jsonl"} {
		warm := results(t, srv, st2.ID, format)
		if !bytes.Equal(cold[format], warm) {
			t.Errorf("%s results differ between cold and cached sweep:\ncold:\n%s\nwarm:\n%s", format, cold[format], warm)
		}
	}
}

// TestServerContentAddressedReuse: an identical submission without
// Fresh returns the finished sweep instead of running anything.
func TestServerContentAddressedReuse(t *testing.T) {
	srv := newTestServer(t, hybridnet.ServerConfig{})
	st, err := srv.Submit(nqPathRequest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	statsBefore := srv.CacheStats()
	again, err := srv.Submit(nqPathRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !again.Reused || again.ID != st.ID || again.State != hybridnet.SweepDone {
		t.Fatalf("resubmission not reused: %+v", again)
	}
	if after := srv.CacheStats(); after.Stats != statsBefore.Stats || after.GraphCache != statsBefore.GraphCache {
		t.Fatalf("reused submission touched the cache: %+v vs %+v", after, statsBefore)
	}
	// Defaults normalize into the content address: explicit defaults
	// give the same sweep.
	explicit, err := srv.Submit(hybridnet.SweepRequest{Scenario: "nq", Families: []string{"path"}, N: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if explicit.ID != st.ID {
		t.Fatalf("explicit defaults got a different id: %s vs %s", explicit.ID, st.ID)
	}
}

// TestServerDiskTierSurvivesRestart: a second server over the same
// cache directory serves the first server's cells from disk and renders
// byte-identical results.
func TestServerDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	srv1 := newTestServer(t, hybridnet.ServerConfig{CacheDir: dir})
	st, err := srv1.Submit(nqPathRequest())
	if err != nil {
		t.Fatal(err)
	}
	if st, err = srv1.Wait(st.ID); err != nil || st.State != hybridnet.SweepDone {
		t.Fatalf("first server sweep: %+v, %v", st, err)
	}
	cold := results(t, srv1, st.ID, "md")
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := newTestServer(t, hybridnet.ServerConfig{CacheDir: dir})
	st2, err := srv2.Submit(nqPathRequest())
	if err != nil {
		t.Fatal(err)
	}
	if st2, err = srv2.Wait(st2.ID); err != nil || st2.State != hybridnet.SweepDone {
		t.Fatalf("second server sweep: %+v, %v", st2, err)
	}
	if st2.CachedCells != st2.Cells {
		t.Fatalf("restarted server re-simulated: %d/%d cached", st2.CachedCells, st2.Cells)
	}
	stats := srv2.CacheStats()
	if stats.DiskHits == 0 {
		t.Fatalf("no disk hits after restart: %+v", stats.Stats)
	}
	if stats.Disk == nil || stats.Disk.Reindexed == 0 || stats.Disk.Segments == 0 || stats.Disk.Bytes == 0 {
		t.Fatalf("restart did not report disk-tier recovery: %+v", stats.Disk)
	}
	if warm := results(t, srv2, st2.ID, "md"); !bytes.Equal(cold, warm) {
		t.Fatalf("results differ across restart:\n%s\nvs\n%s", cold, warm)
	}
}

// TestServerTopologyPersistsAcrossRestart: topology content addresses
// omit the code version on purpose — a graph is a pure function of
// (family, n, seed, codec). A restarted server under a bumped version
// must therefore re-simulate every cell (result keys changed) while
// restoring every topology from the artifact disk tier, building zero.
func TestServerTopologyPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	srv1 := newTestServer(t, hybridnet.ServerConfig{CacheDir: dir, Version: "v1"})
	st, err := srv1.Submit(nqPathRequest())
	if err != nil {
		t.Fatal(err)
	}
	if st, err = srv1.Wait(st.ID); err != nil || st.State != hybridnet.SweepDone {
		t.Fatalf("first server sweep: %+v, %v", st, err)
	}
	cold := results(t, srv1, st.ID, "md")
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := newTestServer(t, hybridnet.ServerConfig{CacheDir: dir, Version: "v2"})
	st2, err := srv2.Submit(nqPathRequest())
	if err != nil {
		t.Fatal(err)
	}
	if st2, err = srv2.Wait(st2.ID); err != nil || st2.State != hybridnet.SweepDone {
		t.Fatalf("second server sweep: %+v, %v", st2, err)
	}
	if st2.CachedCells != 0 {
		t.Fatalf("version bump did not orphan result rows: %d/%d cached", st2.CachedCells, st2.Cells)
	}
	gc := srv2.CacheStats().GraphCache
	if gc.Builds != 0 || gc.StoreHits == 0 {
		t.Fatalf("restarted server rebuilt topologies instead of restoring: %+v", gc)
	}
	if warm := results(t, srv2, st2.ID, "md"); !bytes.Equal(cold, warm) {
		t.Fatalf("results differ across version bump:\n%s\nvs\n%s", cold, warm)
	}
}

// TestServerProfileArtifacts: an NQ sweep grows each topology's
// ball-profile artifact exactly once across all its workload points
// (DESIGN.md §10), a resubmission computes zero, and — like the
// topologies — the version-less profile content addresses let a
// restarted server under a bumped code version restore every artifact
// from the disk tier while re-simulating the rows.
func TestServerProfileArtifacts(t *testing.T) {
	dir := t.TempDir()

	srv1 := newTestServer(t, hybridnet.ServerConfig{CacheDir: dir, Version: "v1"})
	st, err := srv1.Submit(nqPathRequest())
	if err != nil {
		t.Fatal(err)
	}
	if st, err = srv1.Wait(st.ID); err != nil || st.State != hybridnet.SweepDone {
		t.Fatalf("first sweep: %+v, %v", st, err)
	}
	cold := srv1.CacheStats()
	if cold.ProfileCache.Computes != 1 {
		t.Fatalf("cold sweep computed %d profiles for one topology: %+v", cold.ProfileCache.Computes, cold.ProfileCache)
	}
	if ns, ok := cold.Namespaces["profiles"]; !ok || ns.Puts != 1 {
		t.Fatalf("profiles namespace saw no traffic on /v1/cache/stats: %+v", cold.Namespaces)
	}

	// Resubmission: every cell resolves from the result cache, so no
	// profile work happens at all.
	req := nqPathRequest()
	req.Fresh = true
	st2, err := srv1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st2, err = srv1.Wait(st2.ID); err != nil || st2.State != hybridnet.SweepDone {
		t.Fatalf("fresh sweep: %+v, %v", st2, err)
	}
	if warm := srv1.CacheStats(); warm.ProfileCache.Computes != cold.ProfileCache.Computes {
		t.Fatalf("resubmitted sweep recomputed profiles: %+v vs %+v", warm.ProfileCache, cold.ProfileCache)
	}
	coldResults := results(t, srv1, st.ID, "md")
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// Version bump orphans the result rows but not the derived
	// artifacts: the re-simulated sweep decodes its profiles from disk.
	srv2 := newTestServer(t, hybridnet.ServerConfig{CacheDir: dir, Version: "v2"})
	st3, err := srv2.Submit(nqPathRequest())
	if err != nil {
		t.Fatal(err)
	}
	if st3, err = srv2.Wait(st3.ID); err != nil || st3.State != hybridnet.SweepDone {
		t.Fatalf("restarted sweep: %+v, %v", st3, err)
	}
	pc := srv2.CacheStats().ProfileCache
	if pc.Computes != 0 || pc.StoreHits == 0 {
		t.Fatalf("restarted server recomputed profiles instead of restoring: %+v", pc)
	}
	if warm := results(t, srv2, st3.ID, "md"); !bytes.Equal(coldResults, warm) {
		t.Fatalf("results differ across restart:\n%s\nvs\n%s", coldResults, warm)
	}
}

// TestCacheStatsJSONKeys pins the graph_cache and profile_cache blocks
// of /v1/cache/stats byte for byte: field names and their order are a
// wire contract for dashboards and the load tool.
func TestCacheStatsJSONKeys(t *testing.T) {
	const (
		graphBlock   = `{"builds":0,"mem_hits":0,"store_hits":0,"dedups":0,"evictions":0,"entries":0}`
		profileBlock = `{"computes":0,"attach_hits":0,"mem_hits":0,"store_hits":0,"dedups":0,"evictions":0,"entries":0}`
	)
	marshal := func(v any) string {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if got := marshal(runner.GraphCacheStats{}); got != graphBlock {
		t.Errorf("GraphCacheStats = %s, want %s", got, graphBlock)
	}
	if got := marshal(runner.ProfileCacheStats{}); got != profileBlock {
		t.Errorf("ProfileCacheStats = %s, want %s", got, profileBlock)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(marshal(newTestServer(t, hybridnet.ServerConfig{}).CacheStats())), &doc); err != nil {
		t.Fatal(err)
	}
	if got := string(doc["graph_cache"]); got != graphBlock {
		t.Errorf("fresh server graph_cache = %s, want %s", got, graphBlock)
	}
	if got := string(doc["profile_cache"]); got != profileBlock {
		t.Errorf("fresh server profile_cache = %s, want %s", got, profileBlock)
	}
}

// TestServerConcurrentSweeps drives distinct sweeps through the shared
// pool at once (run under -race this certifies the admission layer).
func TestServerConcurrentSweeps(t *testing.T) {
	srv := newTestServer(t, hybridnet.ServerConfig{Workers: 4})
	families := []string{"path", "cycle", "grid2d", "grid3d"}
	var wg sync.WaitGroup
	ids := make([]string, len(families))
	for i, fam := range families {
		wg.Add(1)
		go func(i int, fam string) {
			defer wg.Done()
			st, err := srv.Submit(hybridnet.SweepRequest{Scenario: "nq", Families: []string{fam}, N: 64})
			if err != nil {
				t.Errorf("%s: %v", fam, err)
				return
			}
			ids[i] = st.ID
			if st, err := srv.Wait(st.ID); err != nil || st.State != hybridnet.SweepDone {
				t.Errorf("%s: %+v, %v", fam, st, err)
			}
		}(i, fam)
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("distinct requests collided on id %s", id)
		}
		seen[id] = true
	}
}

// TestServerMethodNotAllowed: a known /v1/* path hit with the wrong
// method answers 405 with an Allow header and the JSON error shape,
// instead of ServeMux's text/plain default (or a 404).
func TestServerMethodNotAllowed(t *testing.T) {
	srv := newTestServer(t, hybridnet.ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		method, path, allow string
	}{
		{"POST", "/v1/scenarios", "GET"},
		{"DELETE", "/v1/scenarios", "GET"},
		{"GET", "/v1/sweeps", "POST"},
		{"PUT", "/v1/sweeps", "POST"},
		{"POST", "/v1/sweeps/sw-0000000000000000", "GET"},
		{"DELETE", "/v1/sweeps/sw-0000000000000000/results", "GET"},
		{"POST", "/v1/cache/stats", "GET"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: code %d, want 405", tc.method, tc.path, resp.StatusCode)
			continue
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow = %q, want %q", tc.method, tc.path, got, tc.allow)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type = %q, want JSON error shape", tc.method, tc.path, ct)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s %s: body %q is not the JSON error document", tc.method, tc.path, body)
		}
	}

	// HEAD rides on GET handlers, never the 405 fallback.
	resp, err := http.Head(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("HEAD /v1/scenarios: code %d, want 200", resp.StatusCode)
	}
}

// TestServerValidation covers the rejection paths.
func TestServerValidation(t *testing.T) {
	srv := newTestServer(t, hybridnet.ServerConfig{})
	cases := []hybridnet.SweepRequest{
		{Scenario: "table9"},
		{Scenario: "nq", Families: []string{"nosuch"}},
		{Scenario: "nq", N: -4},
		{},
	}
	for _, req := range cases {
		if _, err := srv.Submit(req); err == nil {
			t.Errorf("Submit(%+v) accepted", req)
		}
	}
	if _, err := srv.Status("sw-nope"); err != hybridnet.ErrUnknownSweep {
		t.Errorf("Status(unknown) = %v", err)
	}
	if err := srv.WriteResults(io.Discard, "sw-nope", "md"); err != hybridnet.ErrUnknownSweep {
		t.Errorf("WriteResults(unknown) = %v", err)
	}
}

// TestServerCloseRejectsNewSweeps: Close drains and further Submits
// fail with ErrServerClosed.
func TestServerCloseRejectsNewSweeps(t *testing.T) {
	srv, err := hybridnet.NewServer(hybridnet.ServerConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv.Submit(nqPathRequest())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Close drained the in-flight sweep.
	final, err := srv.Status(st.ID)
	if err != nil || final.State != hybridnet.SweepDone {
		t.Fatalf("sweep not drained by Close: %+v, %v", final, err)
	}
	if _, err := srv.Submit(nqPathRequest()); err != hybridnet.ErrServerClosed {
		t.Fatalf("Submit after Close = %v", err)
	}
}

// TestServerHTTP exercises the four endpoints end to end over httptest.
func TestServerHTTP(t *testing.T) {
	srv := newTestServer(t, hybridnet.ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// GET /v1/scenarios
	resp, err := http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	var scenarios struct {
		Scenarios []hybridnet.ScenarioInfo `json:"scenarios"`
		Families  []string                 `json:"families"`
		Version   string                   `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&scenarios); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(scenarios.Scenarios) != 9 || len(scenarios.Families) != 11 || scenarios.Version == "" {
		t.Fatalf("scenarios endpoint: code=%d %+v", resp.StatusCode, scenarios)
	}

	// POST /v1/sweeps
	post := func(body string) (*http.Response, hybridnet.SweepStatus) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st hybridnet.SweepStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return resp, st
	}
	resp, st := post(`{"scenario":"nq","families":["path"],"n":64}`)
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit: code=%d %+v", resp.StatusCode, st)
	}

	// GET /v1/sweeps/{id} until done.
	for st.State == hybridnet.SweepRunning {
		r, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("status code %d", r.StatusCode)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	if st.State != hybridnet.SweepDone {
		t.Fatalf("sweep ended %q: %s", st.State, st.Error)
	}

	// Resubmission returns 200 + Reused.
	resp, st2 := post(`{"scenario":"nq","families":["path"],"n":64}`)
	if resp.StatusCode != http.StatusOK || !st2.Reused {
		t.Fatalf("resubmit: code=%d %+v", resp.StatusCode, st2)
	}

	// GET /v1/sweeps/{id}/results in every format.
	for format, wantCT := range map[string]string{
		"md":    "text/markdown; charset=utf-8",
		"csv":   "text/csv; charset=utf-8",
		"jsonl": "application/x-ndjson",
	} {
		r, err := http.Get(fmt.Sprintf("%s/v1/sweeps/%s/results?format=%s", ts.URL, st.ID, format))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK || r.Header.Get("Content-Type") != wantCT || len(body) == 0 {
			t.Fatalf("results %s: code=%d ct=%q len=%d", format, r.StatusCode, r.Header.Get("Content-Type"), len(body))
		}
		if format == "md" && !strings.Contains(string(body), "| family |") {
			t.Fatalf("markdown results missing table header:\n%s", body)
		}
	}

	// GET /v1/cache/stats
	r, err := http.Get(ts.URL + "/v1/cache/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats hybridnet.CacheStats
	if err := json.NewDecoder(r.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if stats.Puts == 0 {
		t.Fatalf("cache stats show no puts: %+v", stats)
	}

	// Error paths.
	for _, tc := range []struct {
		method, path, body string
		wantCode           int
	}{
		{"POST", "/v1/sweeps", `{"scenario":"nope"}`, http.StatusBadRequest},
		{"POST", "/v1/sweeps", `not json`, http.StatusBadRequest},
		{"POST", "/v1/sweeps", `{"scenario":"nq","bogus":1}`, http.StatusBadRequest},
		{"GET", "/v1/sweeps/sw-nope", "", http.StatusNotFound},
		{"GET", "/v1/sweeps/sw-nope/results", "", http.StatusNotFound},
		{"GET", "/v1/sweeps/" + st.ID + "/results?format=xml", "", http.StatusBadRequest},
	} {
		var resp *http.Response
		var err error
		if tc.method == "POST" {
			resp, err = http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		} else {
			resp, err = http.Get(ts.URL + tc.path)
		}
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantCode {
			t.Errorf("%s %s: code %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantCode)
		}
	}
}
