// Command hybridload replays realistic sweep traffic against a running
// hybridd instance — or, with -peers, a whole hybridd cluster — and
// reports end-to-end latency, cache efficiency, and admission behavior
// — the load proof for the hardening layer (DESIGN.md §11, §15).
//
// A mix of "scenario:family:n" jobs is replayed in waves by a pool of
// concurrent clients: each job is submitted (429 responses honor the
// Retry-After hint and retry), long-polled to completion via
// GET /v1/sweeps/{id}?wait=1, and its results streamed and digested.
// Because sweeps are content-addressed and deterministic, every wave
// after the first must reproduce wave 1's result bytes exactly —
// hybridload fails if any digest drifts, so a load run is also a
// correctness check of the cache and rehydration paths.
//
// With -stream each job additionally consumes the sweep's live SSE
// stream (GET /v1/sweeps/{id}/stream) while it runs, reassembles the
// streamed rows in canonical cell order, and requires their sha256 to
// equal the static ?format=jsonl document's — the cross-mode
// byte-identity contract of DESIGN.md §12 — while measuring the
// latency to the first streamed event.
//
// With -peers the mix is spread round-robin over several hybridd
// endpoints (the wave number rotates the assignment, so warm waves land
// on different peers than the cold wave did). A job whose target fails
// mid-flight — connection refused, reset, truncated body — fails over
// to the next target with capped backoff and restarts from submission;
// since the digest ledger is keyed by sweep id, a sweep computed on one
// peer and re-served by another must be byte-identical, making a
// cluster load run a cross-peer consistency check too.
//
//	hybridload -addr 127.0.0.1:8080 -waves 3 -clients 8
//	hybridload -peers 127.0.0.1:8080,127.0.0.1:8081,127.0.0.1:8082 -waves 3
//	hybridload -addr 127.0.0.1:8080 -waves 3 -clients 4 -stream -bench | grep '^Benchmark'
//
// With -bench the summary is followed by lines in the Go benchmark
// format (BenchmarkHTTPSweepCold, BenchmarkHTTPSweepWarm,
// BenchmarkHTTPResultsWarm, BenchmarkHTTPMetricsScrape, and with
// -stream BenchmarkHTTPStreamFirstEvent) — the result lines of the
// committed BENCH_http.txt record.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/sse"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := exitCode(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// exitCode runs the command and reports a failure on stderr as one
// line under the binary's name, the error's only prefix.
func exitCode(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if err := run(ctx, args, stdout); err != nil {
		fmt.Fprintln(stderr, "hybridload:", err)
		return 1
	}
	return 0
}

// job is one entry of the replay mix.
type job struct {
	scenario string
	family   string
	n        int
}

func (j job) String() string { return fmt.Sprintf("%s:%s:%d", j.scenario, j.family, j.n) }

// parseMix splits a comma-separated list of scenario:family:n triples.
func parseMix(s string) ([]job, error) {
	var jobs []job
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("mix entry %q: want scenario:family:n", part)
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("mix entry %q: bad n", part)
		}
		jobs = append(jobs, job{scenario: fields[0], family: fields[1], n: n})
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("empty mix")
	}
	return jobs, nil
}

// sweepStatus mirrors the service's status document.
type sweepStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cells  int    `json:"cells"`
	Cached int    `json:"cached_cells"`
	Error  string `json:"error"`
}

// loadClient drives one or more hybridd endpoints: a single -addr, or
// the -peers membership with round-robin assignment and failover.
type loadClient struct {
	targets []string // base URLs, ≥ 1
	hc      *http.Client
	timeout time.Duration
	// shedWait caps how long a Retry-After hint is honored per attempt,
	// so a aggressively limited run fails fast instead of stalling.
	shedWait time.Duration

	mu        sync.Mutex
	sheds     int // 429 responses that were retried
	failovers int // jobs restarted on another target after a transport failure
}

// target maps an assignment index onto the target ring.
func (c *loadClient) target(i int) string { return c.targets[i%len(c.targets)] }

// retryable reports whether a job error is a transport-level failure
// worth failing over to another target — the peer died, refused, or
// truncated mid-body — as opposed to an application error (failed
// sweep, digest drift) that every peer would reproduce.
func retryable(err error) bool {
	var uerr *url.Error
	var nerr net.Error
	var jerr *json.SyntaxError
	return errors.As(err, &uerr) || errors.As(err, &nerr) || errors.As(err, &jerr) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// failoverBackoff is the capped linear backoff between a job's
// failover attempts.
func failoverBackoff(attempt int) time.Duration {
	return min(time.Duration(attempt+1)*200*time.Millisecond, time.Second)
}

// submit posts one job, honoring 429 Retry-After hints with bounded
// retries, and returns the sweep id. fresh forces re-execution through
// the cell cache (warm waves measure cache-served sweeps, not the
// no-op reuse of an already-finished one).
func (c *loadClient) submit(ctx context.Context, base string, j job, fresh bool) (string, error) {
	body := fmt.Sprintf(`{"scenario":%q,"families":[%q],"n":%d,"fresh":%v}`, j.scenario, j.family, j.n, fresh)
	for attempt := 0; attempt < 10; attempt++ {
		req, err := http.NewRequestWithContext(ctx, "POST", base+"/v1/sweeps", strings.NewReader(body))
		if err != nil {
			return "", err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.hc.Do(req)
		if err != nil {
			return "", err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			retry := time.Second
			if s := resp.Header.Get("Retry-After"); s != "" {
				if secs, err := strconv.Atoi(s); err == nil {
					retry = time.Duration(secs) * time.Second
				}
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if retry > c.shedWait {
				retry = c.shedWait
			}
			c.mu.Lock()
			c.sheds++
			c.mu.Unlock()
			select {
			case <-time.After(retry):
			case <-ctx.Done():
				return "", ctx.Err()
			}
			continue
		}
		var st sweepStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return "", fmt.Errorf("submit %s: %w", j, err)
		}
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("submit %s: HTTP %d: %s", j, resp.StatusCode, st.Error)
		}
		return st.ID, nil
	}
	return "", fmt.Errorf("submit %s: shed %d times in a row, giving up", j, 10)
}

// wait long-polls the status endpoint until the sweep leaves the
// running state or the configured timeout elapses.
func (c *loadClient) wait(ctx context.Context, base, id string) (sweepStatus, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, "GET", base+"/v1/sweeps/"+id+"?wait=1", nil)
		if err != nil {
			return sweepStatus{}, err
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return sweepStatus{}, fmt.Errorf("wait %s: %w", id, err)
		}
		var st sweepStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return sweepStatus{}, fmt.Errorf("wait %s: %w", id, err)
		}
		if resp.StatusCode != http.StatusOK {
			return sweepStatus{}, fmt.Errorf("wait %s: HTTP %d: %s", id, resp.StatusCode, st.Error)
		}
		switch st.State {
		case "done":
			return st, nil
		case "failed":
			return st, fmt.Errorf("sweep %s failed: %s", id, st.Error)
		}
		// The long-poll only returns a running state when the server
		// saw our connection drop; just poll again until the timeout.
	}
}

// fetch streams the sweep's results and returns their digest.
func (c *loadClient) fetch(ctx context.Context, base, id, format string) ([32]byte, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/v1/sweeps/"+id+"/results?format="+format, nil)
	if err != nil {
		return [32]byte{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return [32]byte{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return [32]byte{}, fmt.Errorf("results %s: HTTP %d: %s", id, resp.StatusCode, body)
	}
	h := sha256.New()
	if _, err := io.Copy(h, resp.Body); err != nil {
		return [32]byte{}, err
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// streamResult is one SSE consumption's outcome: the sha256 of the
// streamed rows reassembled in canonical cell order, the latency to
// the first event, and the cell-event count.
type streamResult struct {
	digest     [32]byte
	firstEvent time.Duration
	cells      int
}

// stream consumes the sweep's live SSE stream to completion: each
// "cell" event's data lines are its JSONL rows and its id the
// canonical cell index, so re-ordering by id and concatenating
// reproduces the static ?format=jsonl document. Duplicate cell ids
// (broken exactly-once replay) and non-"done" terminals are errors.
func (c *loadClient) stream(ctx context.Context, base, id string) (streamResult, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/v1/sweeps/"+id+"/stream?format=sse", nil)
	if err != nil {
		return streamResult{}, err
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return streamResult{}, fmt.Errorf("stream %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return streamResult{}, fmt.Errorf("stream %s: HTTP %d: %s", id, resp.StatusCode, body)
	}
	var res streamResult
	rows := make(map[int][]string)
	terminal := ""
	err = sse.Decode(resp.Body, func(ev sse.Event) error {
		if res.firstEvent == 0 {
			res.firstEvent = time.Since(start)
		}
		switch ev.Name {
		case "cell":
			if _, dup := rows[ev.ID]; dup {
				return fmt.Errorf("stream %s: cell %d delivered twice", id, ev.ID)
			}
			rows[ev.ID] = ev.Data
			res.cells++
		case "done", "failed", "dropped":
			terminal = ev.Name
		}
		return nil
	})
	if err != nil {
		return streamResult{}, fmt.Errorf("stream %s: %w", id, err)
	}
	if terminal != "done" {
		return streamResult{}, fmt.Errorf("stream %s: terminal event %q, want done", id, terminal)
	}
	idx := make([]int, 0, len(rows))
	for i := range rows {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	h := sha256.New()
	for _, i := range idx {
		for _, line := range rows[i] {
			io.WriteString(h, line)
			io.WriteString(h, "\n")
		}
	}
	copy(res.digest[:], h.Sum(nil))
	return res, nil
}

// sample is one job's end-to-end measurement within a wave.
type sample struct {
	job      job
	id       string
	total    time.Duration // submit → results fetched
	results  time.Duration // the results fetch alone
	cached   int
	cells    int
	digest   [32]byte
	stream   streamResult // zero unless -stream
	statusOK bool
}

// runJob drives one job end to end against one target: submit, wait,
// fetch (and with stream set, consume the live SSE stream and verify
// it against the static jsonl document).
func (c *loadClient) runJob(ctx context.Context, base string, j job, format string, fresh, stream bool) (sample, error) {
	start := time.Now()
	id, err := c.submit(ctx, base, j, fresh)
	if err != nil {
		return sample{}, err
	}
	var sres streamResult
	var serr error
	sdone := make(chan struct{})
	if stream {
		go func() {
			defer close(sdone)
			sres, serr = c.stream(ctx, base, id)
		}()
	} else {
		close(sdone)
	}
	st, err := c.wait(ctx, base, id)
	if err != nil {
		return sample{}, err
	}
	fetchStart := time.Now()
	digest, err := c.fetch(ctx, base, id, format)
	if err != nil {
		return sample{}, err
	}
	<-sdone
	if serr != nil {
		return sample{}, serr
	}
	if stream {
		staticJSONL, err := c.fetch(ctx, base, id, "jsonl")
		if err != nil {
			return sample{}, err
		}
		if sres.digest != staticJSONL {
			return sample{}, fmt.Errorf("sweep %s (%s): streamed rows differ from the static jsonl document — the §12 byte-identity contract is broken", id, j)
		}
	}
	return sample{
		job: j, id: id,
		total:   time.Since(start),
		results: time.Since(fetchStart),
		cached:  st.Cached, cells: st.Cells,
		digest: digest, stream: sres, statusOK: true,
	}, nil
}

// runWave replays the whole mix once with the configured concurrency.
// Each job starts on target (jobIndex + wave - 1) — round-robin, and
// the rotation by wave means warm waves hit different peers than the
// cold wave, turning the digest ledger into a cross-peer byte-identity
// check. A transport-level failure fails the job over to the next
// target with capped backoff, restarting from submission; the attempt
// budget is two full laps of the ring, so a run survives dead peers
// but not a fully dead cluster.
func runWave(ctx context.Context, c *loadClient, jobs []job, wave, clients int, format string, fresh, stream bool) ([]sample, error) {
	samples := make([]sample, len(jobs))
	errs := make([]error, len(jobs))
	sem := make(chan struct{}, clients)
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			budget := 2 * len(c.targets)
			for attempt := 0; attempt < budget; attempt++ {
				s, err := c.runJob(ctx, c.target(i+wave-1+attempt), j, format, fresh, stream)
				if err == nil {
					samples[i], errs[i] = s, nil
					return
				}
				errs[i] = fmt.Errorf("%s: %w", j, err)
				if ctx.Err() != nil || !retryable(err) || attempt == budget-1 {
					return
				}
				c.mu.Lock()
				c.failovers++
				c.mu.Unlock()
				select {
				case <-time.After(failoverBackoff(attempt)):
				case <-ctx.Done():
					return
				}
			}
		}(i, j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return samples, nil
}

// quantile returns the q-th latency quantile of the samples.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := cliutil.NewFlagSet(w, "hybridload",
		"Replay a realistic sweep mix against a running hybridd and verify cross-wave byte-identity.",
		"hybridload -addr 127.0.0.1:8080 -waves 3 -clients 8",
		"hybridload -peers 127.0.0.1:8080,127.0.0.1:8081,127.0.0.1:8082 -waves 3   # round-robin a cluster",
		"hybridload -addr 127.0.0.1:8080 -stream   # also consume each sweep's live SSE stream",
		"hybridload -addr 127.0.0.1:8080 -waves 3 -clients 4 -stream -bench | grep '^Benchmark'   # the result lines of BENCH_http.txt",
	)
	addr := fs.String("addr", "127.0.0.1:8080", "hybridd address (host:port or full URL)")
	peersFlag := fs.String("peers", "", "comma-separated hybridd cluster addresses; jobs round-robin over them with failover (overrides -addr)")
	mixFlag := fs.String("mix", "nq:path:64,nq:cycle:64,nq:grid2d:64,nq:grid3d:64", "comma-separated scenario:family:n jobs replayed each wave")
	waves := fs.Int("waves", 2, "replay rounds; wave 1 is the cold run, later waves must be cache-served and byte-identical")
	clients := fs.Int("clients", 4, "concurrent clients replaying the mix")
	format := fs.String("format", "md", "results format fetched and digested (md, csv, or jsonl)")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-sweep completion timeout")
	shedWait := fs.Duration("shed-wait", 2*time.Second, "cap on how long one 429 Retry-After hint is honored")
	stream := fs.Bool("stream", false, "consume each sweep's SSE stream live and verify it against the static jsonl document")
	bench := fs.Bool("bench", false, "append one Go benchmark format line per phase (the result lines of BENCH_http.txt)")
	if help, err := cliutil.Parse(fs, args); help || err != nil {
		return err
	}
	if *waves < 1 || *clients < 1 {
		return fmt.Errorf("-waves and -clients must be positive")
	}
	jobs, err := parseMix(*mixFlag)
	if err != nil {
		return err
	}
	raw := []string{*addr}
	if *peersFlag != "" {
		raw = nil
		for _, p := range strings.Split(*peersFlag, ",") {
			if p = strings.TrimSpace(p); p != "" {
				raw = append(raw, p)
			}
		}
		if len(raw) == 0 {
			return fmt.Errorf("-peers is set but holds no addresses")
		}
	}
	targets := make([]string, len(raw))
	for i, a := range raw {
		base := a
		if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
			base = "http://" + base
		}
		targets[i] = strings.TrimRight(base, "/")
	}
	c := &loadClient{targets: targets, hc: &http.Client{}, timeout: *timeout, shedWait: *shedWait}

	// Probe before loading: at least one target must answer. Dead ones
	// are reported but tolerated — surviving them is what failover is
	// for.
	reachable := 0
	for _, base := range targets {
		resp, err := c.hc.Get(base + "/v1/scenarios")
		if err != nil {
			fmt.Fprintf(w, "warning: %s unreachable: %v\n", base, err)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		reachable++
	}
	if reachable == 0 {
		return fmt.Errorf("no hybridd reachable at any of %s", strings.Join(targets, ", "))
	}

	digests := make(map[string][32]byte) // sweep id → wave-1 digest
	var coldTotals, warmTotals, warmResults, firstEvents []time.Duration
	for wave := 1; wave <= *waves; wave++ {
		start := time.Now()
		samples, err := runWave(ctx, c, jobs, wave, *clients, *format, wave > 1, *stream)
		if err != nil {
			return fmt.Errorf("wave %d: %w", wave, err)
		}
		var totals []time.Duration
		cached, cells := 0, 0
		for _, s := range samples {
			totals = append(totals, s.total)
			cached += s.cached
			cells += s.cells
			if *stream {
				firstEvents = append(firstEvents, s.stream.firstEvent)
			}
			if prev, ok := digests[s.id]; ok {
				if prev != s.digest {
					return fmt.Errorf("wave %d: sweep %s (%s) results drifted from wave 1 — cache or rehydration is not byte-stable", wave, s.id, s.job)
				}
			} else {
				digests[s.id] = s.digest
			}
			if wave > 1 {
				warmTotals = append(warmTotals, s.total)
				warmResults = append(warmResults, s.results)
			} else {
				coldTotals = append(coldTotals, s.total)
			}
		}
		fmt.Fprintf(w, "wave %d: %d sweeps in %v  p50=%v p99=%v  cached %d/%d cells\n",
			wave, len(samples), time.Since(start).Round(time.Millisecond),
			quantile(totals, 0.50).Round(time.Millisecond), quantile(totals, 0.99).Round(time.Millisecond),
			cached, cells)
	}
	c.mu.Lock()
	sheds, failovers := c.sheds, c.failovers
	c.mu.Unlock()
	fmt.Fprintf(w, "429 shed-and-retried submissions: %d\n", sheds)
	if len(targets) > 1 {
		fmt.Fprintf(w, "cross-target failovers: %d\n", failovers)
	}
	if *stream {
		fmt.Fprintf(w, "stream first-event p50: %v (all %d streams byte-identical to static jsonl)\n",
			quantile(firstEvents, 0.5).Round(time.Microsecond), len(firstEvents))
	}

	// Scrape /metrics a few times for the exposition-latency benchmark
	// (and as a smoke check that the endpoint serves under load). Each
	// scrape walks the targets in order and uses the first that answers.
	var scrapes []time.Duration
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		var lastErr error
		ok := false
		for _, base := range targets {
			resp, err := c.hc.Get(base + "/metrics")
			if err != nil {
				lastErr = err
				continue
			}
			n, _ := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || n == 0 {
				lastErr = fmt.Errorf("/metrics: HTTP %d, %d bytes", resp.StatusCode, n)
				continue
			}
			ok = true
			break
		}
		if !ok {
			return fmt.Errorf("scraping /metrics on every target failed, last: %w", lastErr)
		}
		scrapes = append(scrapes, time.Since(t0))
	}
	fmt.Fprintf(w, "metrics scrape p50: %v\n", quantile(scrapes, 0.5).Round(time.Microsecond))

	if *bench {
		// One aggregated line per phase in the Go benchmark format
		// (`BenchmarkName iterations value unit`).
		fmt.Fprintf(w, "BenchmarkHTTPSweepCold 1 %d ns/op\n", mean(coldTotals).Nanoseconds())
		if len(warmTotals) > 0 {
			fmt.Fprintf(w, "BenchmarkHTTPSweepWarm 1 %d ns/op\n", mean(warmTotals).Nanoseconds())
			fmt.Fprintf(w, "BenchmarkHTTPResultsWarm 1 %d ns/op\n", mean(warmResults).Nanoseconds())
		}
		fmt.Fprintf(w, "BenchmarkHTTPMetricsScrape 1 %d ns/op\n", quantile(scrapes, 0.5).Nanoseconds())
		if *stream && len(firstEvents) > 0 {
			fmt.Fprintf(w, "BenchmarkHTTPStreamFirstEvent 1 %d ns/op\n", quantile(firstEvents, 0.5).Nanoseconds())
		}
	}
	return nil
}
