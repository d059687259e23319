package main

// The HTTP side: serving a hybridnet.Server's Handler over loopback and
// a client that runs one request — submit, long-poll, fetch one
// format (or the SSE stream, reassembled) — and checks its bytes.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/hybridnet"
	"repro/internal/sse"
)

// serveHTTP serves s on a loopback port until the returned stop is
// called; stop returns once the serving goroutine has exited.
func serveHTTP(s *hybridnet.Server) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: s.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// newHTTPClient is a client over one connection.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}
}

// request is one client operation: which sweep, and which document.
type request struct {
	scenario string
	n        int
	format   string // md, csv, jsonl or sse
}

// reply is a request's outcome.
type reply struct {
	latency float64 // submit to last byte, seconds
	cells   int
	doc     digest
}

// do runs one request against base: every response must be 2xx and
// the resubmitted sweep must be served entirely from the result cache.
// The caller checks the returned document digest.
func do(ctx context.Context, hc *http.Client, base string, seed int64, rq request, tr *tracer, rid string) (reply, error) {
	start := time.Now()
	root := tr.begin("hybridnet.request", rid)
	defer tr.end(root)

	body, _ := json.Marshal(hybridnet.SweepRequest{Scenario: rq.scenario, N: rq.n, Seed: seed, Fresh: true})
	sp := tr.begin("hybridnet.submit", "")
	var st hybridnet.SweepStatus
	err := call(ctx, hc, "POST", base+"/v1/sweeps", bytes.NewReader(body), &st)
	tr.end(sp)
	if err != nil {
		return reply{}, fmt.Errorf("submit %s: %w", rq.scenario, err)
	}

	sp = tr.begin("hybridnet.wait", "")
	err = call(ctx, hc, "GET", base+"/v1/sweeps/"+st.ID+"?wait=1", nil, &st)
	tr.end(sp)
	if err != nil {
		return reply{}, fmt.Errorf("wait %s: %w", rq.scenario, err)
	}
	var errs []error
	errs = append(errs, check(st.State == hybridnet.SweepDone, "%s: state %q (%s)", rq.scenario, st.State, st.Error))
	errs = append(errs, check(st.CachedCells == st.Cells && st.Cells > 0, "%s: %d of %d cells cached", rq.scenario, st.CachedCells, st.Cells))

	var d digest
	if rq.format == "sse" {
		sp = tr.begin("hybridnet.stream", "")
		d, err = stream(ctx, hc, base, st.ID)
	} else {
		sp = tr.begin("hybridnet.results", "")
		d, err = fetch(ctx, hc, base+"/v1/sweeps/"+st.ID+"/results?format="+rq.format)
	}
	tr.end(sp)
	if err != nil {
		return reply{}, fmt.Errorf("%s/%s: %w", rq.scenario, rq.format, err)
	}
	return reply{latency: time.Since(start).Seconds(), cells: st.Cells, doc: d}, errors.Join(errs...)
}

// call performs one JSON request and decodes a 2xx answer into out.
func call(ctx context.Context, hc *http.Client, method, url string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

// fetch digests one static result document.
func fetch(ctx context.Context, hc *http.Client, url string) (digest, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return digest{}, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return digest{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return digest{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	h := newHasher()
	if _, err := io.Copy(h, resp.Body); err != nil {
		return digest{}, err
	}
	return h.digest(), nil
}

// stream consumes a finished sweep's SSE replay and digests its rows
// reassembled in canonical cell order.
func stream(ctx context.Context, hc *http.Client, base, id string) (digest, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/v1/sweeps/"+id+"/stream?format=sse", nil)
	if err != nil {
		return digest{}, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return digest{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return digest{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	rows := map[int][]string{}
	terminal := ""
	err = sse.Decode(resp.Body, func(ev sse.Event) error {
		switch ev.Name {
		case hybridnet.StreamCell:
			if _, dup := rows[ev.ID]; dup {
				return fmt.Errorf("cell %d delivered twice", ev.ID)
			}
			rows[ev.ID] = ev.Data
		case hybridnet.StreamDone, hybridnet.StreamFailed, hybridnet.StreamDropped:
			terminal = ev.Name
		}
		return nil
	})
	if err != nil {
		return digest{}, err
	}
	if terminal != hybridnet.StreamDone {
		return digest{}, fmt.Errorf("stream ended with %q, want done", terminal)
	}
	return reassemble(rows), nil
}
