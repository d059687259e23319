package hybridnet_test

// Streaming tests (DESIGN.md §12): the differential contract (streamed
// rows re-ordered by canonical cell index are byte-identical to the
// static ?format=jsonl document, at any worker count, over both wire
// framings), exactly-once late-subscriber replay, finished and
// rehydrated-sweep replay, and the dedicated metrics series.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/hybridnet"
)

// collectStream subscribes to a sweep and returns every event through
// the terminal one.
func collectStream(t *testing.T, srv *hybridnet.Server, id string) []hybridnet.StreamEvent {
	t.Helper()
	var evs []hybridnet.StreamEvent
	err := srv.StreamCells(context.Background(), id, func(ev hybridnet.StreamEvent) error {
		evs = append(evs, ev)
		return nil
	})
	if err != nil {
		t.Fatalf("StreamCells(%s): %v", id, err)
	}
	if len(evs) == 0 {
		t.Fatalf("StreamCells(%s): no events", id)
	}
	return evs
}

// reassemble is the client-side inverse of resolution-order delivery:
// it checks every cell arrived exactly once, re-orders by canonical
// index, and concatenates the JSONL payloads.
func reassemble(t *testing.T, evs []hybridnet.StreamEvent) []byte {
	t.Helper()
	cells := make(map[int][]byte)
	total := -1
	for _, ev := range evs {
		if ev.Kind != hybridnet.StreamCell {
			continue
		}
		if _, dup := cells[ev.Index]; dup {
			t.Fatalf("cell %d delivered twice", ev.Index)
		}
		cells[ev.Index] = ev.JSONL
		total = ev.Total
	}
	if total >= 0 && len(cells) != total {
		t.Fatalf("got %d cells, want all %d", len(cells), total)
	}
	idx := make([]int, 0, len(cells))
	for i := range cells {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var buf bytes.Buffer
	for _, i := range idx {
		buf.Write(cells[i])
	}
	return buf.Bytes()
}

// TestStreamStaticDifferential is the §12 acceptance contract: a cold
// sweep streamed while it runs delivers rows that, re-ordered by cell
// index, are byte-identical to the finished ?format=jsonl document —
// at one worker (sequential, in-order resolution) and at eight
// (concurrent, out-of-order resolution).
func TestStreamStaticDifferential(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			srv := newTestServer(t, hybridnet.ServerConfig{Workers: workers})
			st, err := srv.Submit(nqPathRequest())
			if err != nil {
				t.Fatal(err)
			}
			evs := collectStream(t, srv, st.ID)
			if last := evs[len(evs)-1]; last.Kind != hybridnet.StreamDone {
				t.Fatalf("terminal event %q, want %q", last.Kind, hybridnet.StreamDone)
			}
			static := results(t, srv, st.ID, "jsonl")
			if got := reassemble(t, evs); !bytes.Equal(got, static) {
				t.Errorf("streamed rows differ from static document:\nstream:\n%s\nstatic:\n%s", got, static)
			}
		})
	}
}

// sseEvent is one parsed text/event-stream event.
type sseEvent struct {
	name string
	id   string
	data []string
}

func parseSSE(t *testing.T, body string) []sseEvent {
	t.Helper()
	var evs []sseEvent
	for _, block := range strings.Split(body, "\n\n") {
		if block == "" {
			continue
		}
		var ev sseEvent
		for _, line := range strings.Split(block, "\n") {
			switch {
			case strings.HasPrefix(line, "event: "):
				ev.name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "id: "):
				ev.id = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = append(ev.data, strings.TrimPrefix(line, "data: "))
			default:
				t.Fatalf("unparseable SSE line %q", line)
			}
		}
		evs = append(evs, ev)
	}
	return evs
}

// httpStreams reads sweep id's stream over both wire framings, the
// chunked JSONL first and then SSE, and returns the JSONL body and the
// SSE cell events reassembled by event id. The SSE stream must end
// with a done event and deliver every cell once.
func httpStreams(t *testing.T, base, id string) (jsonl, sse []byte) {
	t.Helper()
	get := func(query, wantType string) []byte {
		t.Helper()
		res, err := http.Get(base + "/v1/sweeps/" + id + "/stream" + query)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil {
			t.Fatalf("reading stream%s: %v", query, err)
		}
		if ct := res.Header.Get("Content-Type"); ct != wantType {
			t.Errorf("stream%s Content-Type = %q, want %q", query, ct, wantType)
		}
		return body
	}
	jsonl = get("?format=jsonl", "application/jsonl")
	events := parseSSE(t, string(get("", "text/event-stream")))
	rows := make(map[int][]string)
	sawDone := false
	for _, ev := range events {
		switch ev.name {
		case hybridnet.StreamCell:
			var idx int
			if _, err := fmt.Sscanf(ev.id, "%d", &idx); err != nil {
				t.Fatalf("cell event id %q: %v", ev.id, err)
			}
			if _, dup := rows[idx]; dup {
				t.Fatalf("cell %d delivered twice over SSE", idx)
			}
			rows[idx] = ev.data
		case hybridnet.StreamDone:
			sawDone = true
		case hybridnet.StreamStatus:
		default:
			t.Fatalf("unexpected SSE event %q", ev.name)
		}
	}
	if !sawDone {
		t.Fatal("SSE stream did not terminate with a done event")
	}
	idx := make([]int, 0, len(rows))
	for i := range rows {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var buf bytes.Buffer
	for _, i := range idx {
		for _, line := range rows[i] {
			buf.WriteString(line)
			buf.WriteByte('\n')
		}
	}
	return jsonl, buf.Bytes()
}

// TestStreamHTTPFramings drives both wire framings against a live
// sweep: the chunked-JSONL body must equal the static document
// byte for byte (the holdback buffer re-orders on the server), and the
// SSE cell events, read once the sweep finished, must reassemble to it
// by event id.
func TestStreamHTTPFramings(t *testing.T) {
	srv := newTestServer(t, hybridnet.ServerConfig{Workers: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st, err := srv.Submit(nqPathRequest())
	if err != nil {
		t.Fatal(err)
	}
	jbody, sse := httpStreams(t, ts.URL, st.ID)
	static := results(t, srv, st.ID, "jsonl")
	if !bytes.Equal(jbody, static) {
		t.Errorf("chunked jsonl body differs from static document:\nstream:\n%s\nstatic:\n%s", jbody, static)
	}
	if !bytes.Equal(sse, static) {
		t.Errorf("SSE-reassembled rows differ from static document:\nstream:\n%s\nstatic:\n%s", sse, static)
	}
}

// TestStreamBodiesFinishedAndRehydrated: the chunks keep each cell's
// rendered rows and encode them per delivery, so both wire framings of
// a finished sweep, and of the same sweep rehydrated after eviction,
// must still equal the static ?format=jsonl document — for a single
// table and for Figure 1's per-family tables.
func TestStreamBodiesFinishedAndRehydrated(t *testing.T) {
	srv := newTestServer(t, hybridnet.ServerConfig{Workers: 2, MaxSweeps: 1, CacheDir: t.TempDir()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, req := range []hybridnet.SweepRequest{
		{Scenario: "table1", Families: []string{"path", "cycle"}, N: 32},
		{Scenario: "figure1", Families: []string{"path", "grid2d"}, N: 36},
	} {
		st, err := srv.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Wait(st.ID); err != nil {
			t.Fatal(err)
		}
		static := results(t, srv, st.ID, "jsonl")
		check := func(when string) {
			jsonl, sse := httpStreams(t, ts.URL, st.ID)
			if !bytes.Equal(jsonl, static) {
				t.Errorf("%s %s: chunked jsonl body differs from static document:\nstream:\n%s\nstatic:\n%s", req.Scenario, when, jsonl, static)
			}
			if !bytes.Equal(sse, static) {
				t.Errorf("%s %s: SSE-reassembled rows differ from static document:\nstream:\n%s\nstatic:\n%s", req.Scenario, when, sse, static)
			}
		}
		check("finished")
		// Another sweep pushes this one out of the single-slot registry.
		other, err := srv.Submit(nqPathRequest())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Wait(other.ID); err != nil {
			t.Fatal(err)
		}
		before := rehydrations(t, srv)
		check("rehydrated")
		if rehydrations(t, srv) != before+1 {
			t.Errorf("%s: streaming the evicted sweep did not rehydrate it once", req.Scenario)
		}
		if got := results(t, srv, st.ID, "jsonl"); !bytes.Equal(got, static) {
			t.Errorf("%s: rehydrated static document differs from the original", req.Scenario)
		}
	}
}

// TestStreamLateSubscriberReplay attaches after part of the sweep has
// already resolved: the subscriber must see every cell exactly once —
// the already-resolved prefix as replay, the rest live — with no gap
// or duplicate at the hand-off (the atomic snapshot+register in
// broadcaster.subscribe).
func TestStreamLateSubscriberReplay(t *testing.T) {
	srv := newTestServer(t, hybridnet.ServerConfig{Workers: 1})
	// All four theorem families: 16 cells, resolved one at a time.
	st, err := srv.Submit(hybridnet.SweepRequest{Scenario: "nq", N: 64})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, err := srv.Status(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Cells >= 3 || cur.State != hybridnet.SweepRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep made no progress")
		}
		time.Sleep(time.Millisecond)
	}
	evs := collectStream(t, srv, st.ID)
	got := reassemble(t, evs) // enforces exactly-once and completeness
	if static := results(t, srv, st.ID, "jsonl"); !bytes.Equal(got, static) {
		t.Errorf("late-subscriber rows differ from static document")
	}
}

// TestStreamRehydratedSweepReplay streams a finished sweep (full
// replay from the live run's log), evicts it from the bounded
// registry, and streams it again: the rehydrated stream re-renders
// every cell from the result cache, byte-identical to the original.
func TestStreamRehydratedSweepReplay(t *testing.T) {
	srv := newTestServer(t, hybridnet.ServerConfig{Workers: 2, MaxSweeps: 1, CacheDir: t.TempDir()})
	st, err := srv.Submit(nqPathRequest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	static := results(t, srv, st.ID, "jsonl")

	if got := reassemble(t, collectStream(t, srv, st.ID)); !bytes.Equal(got, static) {
		t.Errorf("finished-sweep replay differs from static document")
	}

	// A second sweep pushes the first out of the single-slot registry.
	other, err := srv.Submit(hybridnet.SweepRequest{Scenario: "nq", Families: []string{"cycle"}, N: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Wait(other.ID); err != nil {
		t.Fatal(err)
	}

	evs := collectStream(t, srv, st.ID)
	for _, ev := range evs {
		if ev.Kind == hybridnet.StreamCell && !ev.Cached {
			t.Errorf("rehydrated cell %d was re-simulated, want cache-served", ev.Index)
		}
	}
	if got := reassemble(t, evs); !bytes.Equal(got, static) {
		t.Errorf("rehydrated replay differs from static document")
	}
}

// TestRehydratedSweepRegeneratesOnce: an evicted sweep asked for its
// results and its stream — one after the other in either order, or
// both at once — re-runs through the result cache once: the results
// namespace serves each cell once, not once per request kind, and
// both answers match the original.
func TestRehydratedSweepRegeneratesOnce(t *testing.T) {
	for _, order := range []string{"results-first", "stream-first", "concurrent"} {
		srv := newTestServer(t, hybridnet.ServerConfig{Workers: 2, MaxSweeps: 1, CacheDir: t.TempDir()})
		st, err := srv.Submit(nqPathRequest())
		if err != nil {
			t.Fatal(err)
		}
		done, err := srv.Wait(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		static := results(t, srv, st.ID, "jsonl")
		// A second sweep pushes the first out of the single-slot registry.
		other, err := srv.Submit(hybridnet.SweepRequest{Scenario: "nq", Families: []string{"cycle"}, N: 64})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Wait(other.ID); err != nil {
			t.Fatal(err)
		}

		before := srv.CacheStats().Namespaces["results"].Hits
		var fetched bytes.Buffer
		var evs []hybridnet.StreamEvent
		fetch := func() error { return srv.WriteResults(&fetched, st.ID, "jsonl") }
		stream := func() error {
			return srv.StreamCells(context.Background(), st.ID, func(ev hybridnet.StreamEvent) error {
				evs = append(evs, ev)
				return nil
			})
		}
		var errs [2]error
		switch order {
		case "results-first":
			errs[0], errs[1] = fetch(), stream()
		case "stream-first":
			errs[1], errs[0] = stream(), fetch()
		case "concurrent":
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); errs[0] = fetch() }()
			go func() { defer wg.Done(); errs[1] = stream() }()
			wg.Wait()
		}
		if errs[0] != nil || errs[1] != nil {
			t.Fatalf("%s: results err %v, stream err %v", order, errs[0], errs[1])
		}
		if hits := srv.CacheStats().Namespaces["results"].Hits - before; hits != uint64(done.Cells) {
			t.Errorf("%s: results namespace served %d cell reads, want %d (one per cell)", order, hits, done.Cells)
		}
		if !bytes.Equal(fetched.Bytes(), static) || !bytes.Equal(reassemble(t, evs), static) {
			t.Errorf("%s: regenerated results or stream differ from the original document", order)
		}
	}
}

// TestStreamAndWaitMetricsSeries: the long-poll and stream endpoints
// record under their own latency series (so the plain endpoints' SLO
// ceilings stay meaningful) and the stream gauges/counters exist.
func TestStreamAndWaitMetricsSeries(t *testing.T) {
	srv := newTestServer(t, hybridnet.ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st, err := srv.Submit(nqPathRequest())
	if err != nil {
		t.Fatal(err)
	}
	for _, url := range []string{
		ts.URL + "/v1/sweeps/" + st.ID + "?wait=1",
		ts.URL + "/v1/sweeps/" + st.ID + "/stream?format=jsonl",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`hybridd_http_request_seconds_count{endpoint="status_wait"}`,
		`hybridd_http_request_seconds_count{endpoint="stream"}`,
		"hybridd_stream_subscribers",
		"hybridd_stream_events_total",
		"hybridd_stream_dropped_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The long-poll must not have been folded into the plain series:
	// exactly one plain status request (none were made) — assert the
	// wait call landed on status_wait by checking the plain series
	// count is absent-or-zero is brittle; instead assert the dedicated
	// series actually counted.
	if !strings.Contains(string(body), `hybridd_http_responses_total{code="200",endpoint="status_wait"} 1`) &&
		!strings.Contains(string(body), `hybridd_http_responses_total{endpoint="status_wait",code="200"} 1`) {
		t.Errorf("status_wait response not counted under its own series:\n%s", body)
	}
}

// rehydrations reads the server's count of rehydrated sweeps.
func rehydrations(t *testing.T, srv *hybridnet.Server) int {
	t.Helper()
	var text bytes.Buffer
	srv.Metrics().WriteText(&text)
	const series = "\nhybridd_sweeps_rehydrated_total "
	i := strings.Index(text.String(), series)
	if i < 0 {
		t.Fatalf("no %q series in:\n%s", series[1:], text.String())
	}
	var n int
	if _, err := fmt.Sscanf(text.String()[i+len(series):], "%d", &n); err != nil {
		t.Fatal(err)
	}
	return n
}
