package main

// The three workloads. Each builds its reference untimed, then splits
// its measured window into setupRuns equal segments, each preceded by
// one timed set-up (setup_s is their median). Set-ups and passes thus
// sample the same stretch of the machine's time, so a burst of host
// load moves both alike instead of every set-up at once. Every set-up
// and pass starts from a collected heap. The server always runs its
// pool at one worker, so the collector has a core of its own.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/hybridnet"
	"repro/internal/runner"
)

// warmBlock is the number of warm-serve rotations measured as one
// block, between two runs of the reference kernel.
const warmBlock = 16

// reportScenarios are the sweeps of the default report.
var reportScenarios = []string{"nq", "table1", "table2", "table3", "table4", "figure1"}

// restore-bump fills its disk tier under versionA and reopens it under
// versionB: result rows miss, topologies and profiles restore.
const (
	versionA = "e2ebench-A"
	versionB = "e2ebench-B"
)

func reportSweeps(cfg *config) []sweepSpec {
	out := make([]sweepSpec, len(reportScenarios))
	for i, sc := range reportScenarios {
		out[i] = sweepSpec{scenario: sc, n: cfg.reportN}
	}
	return out
}

func largeSweeps(cfg *config) []sweepSpec {
	return []sweepSpec{{scenario: "nqscaling-large", n: cfg.largeN}}
}

// run carries one invocation's shared state.
type runState struct {
	cfg    *config
	g      *gate
	sweeps []sweepSpec
	ref    *reference
	opens  []float64 // NewServer wall times of the passes (warm-serve: of the fills), seconds

	restoreTemplate string // restore-bump's filled disk tier
	copies          int

	refs []float64 // CPU seconds of every reference-kernel run
}

// calibrate runs the reference kernel once, between timed phases.
func (rs *runState) calibrate() { rs.refs = append(rs.refs, refKernel()) }

// openServer starts a one-worker server; record keeps its start-up
// time for hybridnet.open_ms.
func (rs *runState) openServer(dir, version string, record bool) (*hybridnet.Server, error) {
	t0 := time.Now()
	s, err := hybridnet.NewServer(hybridnet.ServerConfig{Workers: 1, CacheDir: dir, Version: version})
	if record {
		rs.opens = append(rs.opens, time.Since(t0).Seconds())
	}
	if err != nil {
		return nil, fmt.Errorf("opening server: %w", err)
	}
	return s, nil
}

// sweepResult is one server-side sweep of every scenario.
type sweepResult struct {
	cells, cached int
	docs          digests
	stats         hybridnet.CacheStats
}

// sweepServer submits every sweep, waits for each, and renders every
// static format through Server.WriteResults.
func (rs *runState) sweepServer(s *hybridnet.Server) (*sweepResult, error) {
	res := &sweepResult{docs: digests{}}
	for _, sw := range rs.sweeps {
		st, err := s.Submit(hybridnet.SweepRequest{Scenario: sw.scenario, N: sw.n, Seed: rs.cfg.seed})
		if err != nil {
			return nil, fmt.Errorf("submit %s: %w", sw.scenario, err)
		}
		if st, err = s.Wait(st.ID); err != nil {
			return nil, err
		}
		if st.State != hybridnet.SweepDone {
			return nil, fmt.Errorf("sweep %s: %s %s", sw.scenario, st.State, st.Error)
		}
		res.cells += st.Cells
		res.cached += st.CachedCells
		for _, f := range formats {
			h := newHasher()
			if err := s.WriteResults(h, st.ID, f); err != nil {
				return nil, fmt.Errorf("results %s/%s: %w", sw.scenario, f, err)
			}
			res.docs[docKey(sw.scenario, f)] = h.digest()
		}
	}
	res.stats = s.CacheStats()
	return res, nil
}

// checkDocs compares every static document against the reference.
// The corruption test hook flips one digest of the first check.
func (rs *runState) checkDocs(docs digests) []error {
	if rs.cfg.corrupt {
		rs.cfg.corrupt = false
		d := docs[docKey(rs.sweeps[0].scenario, formats[0])]
		d[0] ^= 0xff
		docs[docKey(rs.sweeps[0].scenario, formats[0])] = d
	}
	var errs []error
	for _, sw := range rs.sweeps {
		for _, f := range formats {
			errs = append(errs, rs.ref.docs.match(sw.scenario, f, docs[docKey(sw.scenario, f)]))
		}
	}
	return errs
}

// profiled counts the reference topologies that carry ball profiles.
func (ref *reference) profiled() int {
	seen := map[string]bool{}
	for _, list := range ref.topos {
		for _, t := range list {
			if t.profiles {
				seen[t.key()] = true
			}
		}
	}
	return len(seen)
}

// setupReference builds the reference, untimed. It is the workload's
// first sweep, so it also takes the fresh process's one-off costs out
// of the timed set-ups that follow.
func (rs *runState) setupReference() error {
	ref, err := buildReference(rs.cfg, rs.sweeps)
	rs.ref = ref
	return err
}

// ---- cold-report ----

func runColdReport(cfg *config, g *gate) (map[string]metric, error) {
	rs := &runState{cfg: cfg, g: g, sweeps: reportSweeps(cfg)}
	if err := rs.setupReference(); err != nil {
		return nil, err
	}
	if cfg.trace {
		return rs.traceRun(rs.coldPass, "", runner.CodeVersion)
	}
	// A set-up is what a pass is: a fresh no-disk server filled with
	// the report.
	return rs.runPasses(func(int) (sample, error) {
		smp, _, s, err := rs.coldPass()
		if err != nil {
			return sample{}, err
		}
		s.Close()
		return smp, nil
	}, rs.coldPass)
}

// segments runs the measured window as setupRuns equal segments, each
// preceded by set-up i, and returns the set-ups' samples.
func (rs *runState) segments(setUp func(i int) (sample, error), segment func(deadline time.Time) error) ([]sample, error) {
	per := time.Duration(rs.cfg.seconds / setupRuns * float64(time.Second))
	var setups []sample
	for i := 0; i < setupRuns; i++ {
		rs.calibrate()
		smp, err := setUp(i)
		if err != nil {
			return nil, err
		}
		setups = append(setups, smp)
		if err := segment(time.Now().Add(per)); err != nil {
			return nil, err
		}
	}
	return setups, nil
}

// runPasses runs equal passes, at least one per segment, and
// assembles the end-to-end metrics. heap_live_mb is taken with the
// last pass's server still open.
func (rs *runState) runPasses(setUp func(i int) (sample, error), pass passFunc) (map[string]metric, error) {
	var passes []sample
	var cells int
	var heap float64
	setups, err := rs.segments(setUp, func(deadline time.Time) error {
		for first := true; first || timeLeft(deadline); first = false {
			rs.calibrate()
			smp, res, s, err := pass()
			if err != nil {
				return err
			}
			passes = append(passes, smp)
			cells += res.cells
			if !timeLeft(deadline) {
				heap = heapLiveMB()
			}
			s.Close()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rs.e2e(setups, passes, cells, heap), nil
}

// coldPass starts a fresh no-disk server and sweeps the report. The
// server is returned open; the caller closes it.
func (rs *runState) coldPass() (sample, *sweepResult, *openedServer, error) {
	m := startMeter()
	s, err := rs.openServer("", "", true)
	if err != nil {
		return sample{}, nil, nil, err
	}
	res, err := rs.sweepServer(s)
	smp := m.stop()
	if err != nil {
		s.Close()
		return sample{}, nil, nil, err
	}
	errs := rs.checkDocs(res.docs)
	errs = append(errs,
		check(res.cells == rs.ref.cells && res.cached == 0, "cold pass: %d cells (%d cached), want %d (0)", res.cells, res.cached, rs.ref.cells),
		check(res.stats.GraphCache.Builds == uint64(rs.ref.unique), "cold pass: %d graph builds, want one per distinct topology (%d)", res.stats.GraphCache.Builds, rs.ref.unique),
		check(res.stats.ProfileCache.Computes == uint64(rs.ref.profiled()), "cold pass: %d profile computes, want %d", res.stats.ProfileCache.Computes, rs.ref.profiled()))
	rs.g.op("cold pass", errs...)
	return smp, res, &openedServer{Server: s}, nil
}

// ---- restore-bump ----

func runRestoreBump(cfg *config, g *gate) (map[string]metric, error) {
	rs := &runState{cfg: cfg, g: g, sweeps: largeSweeps(cfg)}
	if err := rs.setupReference(); err != nil {
		return nil, err
	}
	// A set-up fills a fresh disk tier, which the passes after it
	// reopen.
	setUp := func(i int) (sample, error) {
		if rs.restoreTemplate != "" {
			os.RemoveAll(rs.restoreTemplate)
		}
		rs.restoreTemplate = filepath.Join(cfg.workDir, fmt.Sprintf("fill-%d", i))
		m := startMeter()
		res, err := rs.fill(rs.restoreTemplate)
		smp := m.stop()
		if err != nil {
			return sample{}, err
		}
		rs.g.op("restore fill", append(rs.checkDocs(res.docs),
			check(res.stats.GraphCache.Builds == uint64(rs.ref.unique), "fill: %d graph builds, want %d", res.stats.GraphCache.Builds, rs.ref.unique))...)
		return smp, nil
	}
	if cfg.trace {
		if _, err := setUp(0); err != nil {
			return nil, err
		}
		return rs.traceRun(rs.restorePass, rs.restoreTemplate, versionB)
	}
	return rs.runPasses(setUp, rs.restorePass)
}

// fill sweeps the workload into a fresh disk tier under versionA and
// closes the server, leaving the tier a restore pass reopens.
func (rs *runState) fill(dir string) (*sweepResult, error) {
	s, err := rs.openServer(dir, versionA, false)
	if err != nil {
		return nil, err
	}
	res, err := rs.sweepServer(s)
	if cerr := s.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing filled server: %w", cerr)
	}
	return res, err
}

// restorePass copies the filled tier (untimed), then reopens it under
// versionB and re-sweeps: rows miss and are re-put, topologies and
// profiles restore from disk.
func (rs *runState) restorePass() (sample, *sweepResult, *openedServer, error) {
	dir, err := rs.copyTemplate()
	if err != nil {
		return sample{}, nil, nil, err
	}
	m := startMeter()
	s, err := rs.openServer(dir, versionB, true)
	if err != nil {
		return sample{}, nil, nil, err
	}
	res, err := rs.sweepServer(s)
	smp := m.stop()
	if err != nil {
		s.Close()
		os.RemoveAll(dir)
		return sample{}, nil, nil, err
	}
	gs, ps := res.stats.GraphCache, res.stats.ProfileCache
	errs := rs.checkDocs(res.docs)
	errs = append(errs,
		check(res.cells == rs.ref.cells && res.cached == 0, "bumped pass: %d cells (%d cached), want %d (0)", res.cells, res.cached, rs.ref.cells),
		check(gs.Builds == 0 && gs.StoreHits == uint64(rs.ref.unique), "bumped pass: %d graph builds, %d restores, want 0, %d", gs.Builds, gs.StoreHits, rs.ref.unique),
		check(ps.Computes == 0 && ps.StoreHits == uint64(rs.ref.profiled()), "bumped pass: %d profile computes, %d restores, want 0, %d", ps.Computes, ps.StoreHits, rs.ref.profiled()))
	rs.g.op("bumped pass", errs...)
	return smp, res, &openedServer{Server: s, dir: dir}, nil
}

// ---- warm-serve ----

func runWarmServe(cfg *config, g *gate) (map[string]metric, error) {
	rs := &runState{cfg: cfg, g: g, sweeps: reportSweeps(cfg)}
	// The reference is a cold composition of the report: every warm
	// reply must reproduce the cold sweep.
	if err := rs.setupReference(); err != nil {
		return nil, err
	}
	// A set-up fills a fresh no-disk server with the report. The first
	// one is served; the later ones are closed again.
	fill := func() (*hybridnet.Server, sample, error) {
		m := startMeter()
		s, err := rs.openServer("", "", true)
		if err != nil {
			return nil, sample{}, err
		}
		res, err := rs.sweepServer(s)
		smp := m.stop()
		if err != nil {
			s.Close()
			return nil, sample{}, err
		}
		rs.g.op("warm fill", rs.checkDocs(res.docs)...)
		return s, smp, nil
	}
	s, firstSetup, err := fill()
	if err != nil {
		return nil, err
	}
	defer s.Close()
	base, stop, err := serveHTTP(s)
	if err != nil {
		return nil, err
	}
	defer stop()
	if cfg.trace {
		return rs.traceWarm(s, base)
	}

	// One client in a closed loop: with two, client and handler
	// goroutines outnumber the cores, and CPU per rotation spread two to
	// five times more across runs. One untimed rotation opens the
	// connection.
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	rs.rotation(hc, base, nil, "")

	rot := rs.rotationRequests()
	var (
		latencies []float64
		passes    []sample // one per block, per rotation
		cells     int
	)
	setups, err := rs.segments(func(i int) (sample, error) {
		if i == 0 {
			return firstSetup, nil
		}
		other, smp, err := fill()
		if err == nil {
			other.Close()
		}
		return smp, err
	}, func(deadline time.Time) error {
		for first := true; first || timeLeft(deadline); first = false {
			rs.calibrate()
			m := startMeter()
			for r := 0; r < warmBlock; r++ {
				for _, rq := range rot {
					rp, err := do(context.Background(), hc, base, cfg.seed, rq, nil, "")
					if rs.g.op("warm request", err, rs.matchReply(rq, rp)) {
						latencies = append(latencies, rp.latency)
						cells += rp.cells
					}
				}
			}
			smp := m.stop()
			passes = append(passes, sample{wall: smp.wall / warmBlock, cpu: smp.cpu / warmBlock,
				allocMB: smp.allocMB / warmBlock, steal: smp.steal / warmBlock})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	heap := heapLiveMB()
	var wall float64
	for _, p := range passes {
		wall += p.wall * warmBlock
	}
	fmt.Fprintf(cfg.log, "warm-serve: %d requests (1 client, closed loop), %.1f req/s, p50 %.3f ms, p99 %.3f ms (%d samples beyond p99)\n",
		len(latencies), float64(len(latencies))/wall,
		1e3*quantile(latencies, 0.5), 1e3*quantile(latencies, 0.99), len(latencies)/100)
	// Each of passes stands for one rotation of its block.
	return rs.e2e(setups, passes, cells/warmBlock, heap), nil
}

// rotationRequests is one pass of warm-serve: every scenario in every
// format, the SSE stream included.
func (rs *runState) rotationRequests() []request {
	var rot []request
	for _, f := range append(append([]string{}, formats...), "sse") {
		for _, sw := range rs.sweeps {
			rot = append(rot, request{scenario: sw.scenario, n: sw.n, format: f})
		}
	}
	return rot
}

// rotation runs one rotation sequentially and returns its wall
// seconds and its "tour" span (0 untraced); every request carries its
// own request id.
func (rs *runState) rotation(hc *http.Client, base string, tr *tracer, req string) (float64, int) {
	t0 := time.Now()
	tour := tr.begin("tour", req)
	for i, rq := range rs.rotationRequests() {
		rp, err := do(context.Background(), hc, base, rs.cfg.seed, rq, tr, fmt.Sprintf("%s-%d", req, i))
		rs.g.op("request", err, rs.matchReply(rq, rp))
	}
	tr.end(tour)
	return time.Since(t0).Seconds(), tour
}

// matchReply gates a reply's document; the corruption hook flips the
// first one it sees.
func (rs *runState) matchReply(rq request, rp reply) error {
	if rp.doc == (digest{}) {
		return nil // the request itself failed and was reported
	}
	if rs.cfg.corrupt {
		rs.cfg.corrupt = false
		rp.doc[0] ^= 0xff
	}
	return rs.ref.docs.match(rq.scenario, rq.format, rp.doc)
}

// e2e assembles the end-to-end metrics of equal passes. Times are in
// reference seconds (refkernel.go). A pass's wall time follows the
// host's steal time, so the wall figures, like the raw CPU times, go to
// the log only.
func (rs *runState) e2e(setups []sample, passes []sample, cells int, heap float64) map[string]metric {
	log := rs.cfg.log
	var walls, cpus, allocs, steals, setupWalls, setupCPUs []float64
	for _, p := range passes {
		walls = append(walls, p.wall)
		cpus = append(cpus, p.cpu)
		allocs = append(allocs, p.allocMB)
		steals = append(steals, p.steal)
	}
	for _, s := range setups {
		setupWalls = append(setupWalls, s.wall)
		setupCPUs = append(setupCPUs, s.cpu)
	}
	scale := refKernelS / median(rs.refs)
	fmt.Fprintf(log, "setup wall (s): %.3f\nsetup cpu (s): %.3f\n", setupWalls, setupCPUs)
	fmt.Fprintf(log, "pass wall (s): %.4f\npass cpu (s): %.4f\npass steal (s): %.3f\n", walls, cpus, steals)
	fmt.Fprintf(log, "medians: setup cpu %.4f s, pass wall %.4f s, pass cpu %.4f s, %.1f cells per wall second\n",
		median(setupCPUs), median(walls), median(cpus), float64(cells)/sum(walls))
	fmt.Fprintf(log, "reference kernel: median %.5f s over %d runs (quartiles %.5f, %.5f), scale %.4f\n",
		median(rs.refs), len(rs.refs), quantile(rs.refs, 0.25), quantile(rs.refs, 0.75), scale)
	return map[string]metric{
		"setup_s":           {scale * median(setupCPUs), "s"},
		"ref_s_per_pass":    {scale * median(cpus), "s"},
		"alloc_mb_per_pass": {median(allocs), "MB"},
		"heap_live_mb":      {heap, "MB"},
	}
}

// copyTemplate copies the filled disk tier into a fresh directory.
func (rs *runState) copyTemplate() (string, error) {
	rs.copies++
	dir := filepath.Join(rs.cfg.workDir, fmt.Sprintf("pass-%d", rs.copies))
	if err := copyDir(rs.restoreTemplate, dir); err != nil {
		return "", fmt.Errorf("copying filled tier: %w", err)
	}
	return dir, nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			if err := copyDir(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
				return err
			}
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	// Write the copy back before the timed pass starts, so the pass
	// does not share the disk with the copy's writeback.
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// openedServer is a pass's server; closing it also removes the pass's
// disk tier, if it has one.
type openedServer struct {
	*hybridnet.Server
	dir string
}

func (o *openedServer) Close() error {
	err := o.Server.Close()
	if o.dir != "" {
		os.RemoveAll(o.dir)
	}
	return err
}
