package main

// The traced run (-trace 1). It alternates an untraced and a traced
// composition of the workload's sweep until the window ends; the
// median of the pairs' differences is the tracing overhead. It then
// times the graph-layer functions over the workload's topologies and
// runs one traced rotation of HTTP requests against the server of one
// untraced pass.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"

	"repro/hybridnet"
	"repro/internal/runner"
)

type passFunc func() (sample, *sweepResult, *openedServer, error)

// probeLayers are the spans of the graph-layer probe.
var probeLayers = []string{"graph.build", "graph.encode", "graph.decode", "graph.diameter", "graph.profiles", "nq.of"}

// traceRun is the traced run of cold-report (template "") and
// restore-bump (compositions reopen a copy of template).
func (rs *runState) traceRun(pass passFunc, template, version string) (map[string]metric, error) {
	tr := newTracer()
	var untraced, traced []float64
	var roots []int
	var last *composeOut
	deadline := rs.cfg.deadline()
	for i := 0; len(roots) == 0 || timeLeft(deadline); i++ {
		// Alternate which side of the pair runs first.
		for _, traceIt := range [][]bool{{false, true}, {true, false}}[i%2] {
			if !traceIt {
				out, err := rs.composeOnce(nil, template, version, fmt.Sprintf("untraced-%d", i))
				if err != nil {
					return nil, err
				}
				untraced = append(untraced, out.wall)
				continue
			}
			out, err := rs.composeOnce(tr, template, version, fmt.Sprintf("pass-%d", i))
			if err != nil {
				return nil, err
			}
			traced = append(traced, out.wall)
			roots = append(roots, out.root)
			last = out
		}
	}
	probe, resident, err := probeTopologies(tr, rs.ref, template != "")
	if err != nil {
		return nil, err
	}
	_, _, server, err := pass()
	if err != nil {
		return nil, err
	}
	defer server.Close()
	base, stop, err := serveHTTP(server.Server)
	if err != nil {
		return nil, err
	}
	hc := newHTTPClient()
	_, tour := rs.rotation(hc, base, tr, "tour")
	hc.CloseIdleConnections()
	stop()
	return rs.finishTrace(tr, roots, probe, []int{tour}, last, resident, untraced, traced)
}

// composeOnce runs one composition of a cold-report or restore-bump
// pass (on a fresh copy of template, if any) and gates it.
func (rs *runState) composeOnce(tr *tracer, template, version, req string) (*composeOut, error) {
	opts := composeOpts{version: version, req: req, rounds: []round{{prepass: true, formats: formats}}}
	if template != "" {
		dir, err := rs.copyTemplate()
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		opts.dir = dir
	}
	runtime.GC()
	out, err := compose(rs.cfg, rs.sweeps, rs.ref, tr, opts)
	if err != nil {
		return nil, err
	}
	rs.checkTraced(out, template != "", 0)
	return out, nil
}

// traceWarm is the traced run of warm-serve: untraced and traced
// rotations of sequential requests against the filled server, and a
// traced composition that fills a fresh store and re-sweeps it from
// the cache once per format.
func (rs *runState) traceWarm(s *hybridnet.Server, base string) (map[string]metric, error) {
	cfg := rs.cfg
	tr := newTracer()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	rs.rotation(hc, base, nil, "") // opens the connection
	rounds := []round{{prepass: true, formats: formats}}
	for _, f := range append(append([]string{}, formats...), "jsonl") {
		rounds = append(rounds, round{formats: []string{f}})
	}
	var untraced, traced []float64
	var roots, tours []int
	var last *composeOut
	deadline := cfg.deadline()
	for i := 0; len(roots) == 0 || timeLeft(deadline); i++ {
		for _, traceIt := range [][]bool{{false, true}, {true, false}}[i%2] {
			runtime.GC()
			if !traceIt {
				wall, _ := rs.rotation(hc, base, nil, "")
				untraced = append(untraced, wall)
				continue
			}
			wall, tour := rs.rotation(hc, base, tr, fmt.Sprintf("tour-%d", i))
			traced = append(traced, wall)
			tours = append(tours, tour)
		}

		runtime.GC()
		out, err := compose(cfg, rs.sweeps, rs.ref, tr, composeOpts{
			version: runner.CodeVersion, req: fmt.Sprintf("pass-%d", i), rounds: rounds,
		})
		if err != nil {
			return nil, err
		}
		roots = append(roots, out.root)
		rs.checkTraced(out, false, len(rounds)-1)
		last = out
	}
	probe, resident, err := probeTopologies(tr, rs.ref, false)
	if err != nil {
		return nil, err
	}
	return rs.finishTrace(tr, roots, probe, tours, last, resident, untraced, traced)
}

// checkTraced gates a composition, traced or not: byte-identical
// documents and the workload's cache invariants.
func (rs *runState) checkTraced(out *composeOut, restored bool, warmRounds int) {
	ref := rs.ref
	var errs []error
	for k, ds := range out.docs {
		for _, d := range ds {
			errs = append(errs, check(d == ref.docs[k], "traced %s: digest %s, reference %s", k, d, ref.docs[k]))
		}
	}
	errs = append(errs, check(out.computed == ref.cells && out.cached == warmRounds*ref.cells,
		"traced: %d cells computed, %d cached, want %d, %d", out.computed, out.cached, ref.cells, warmRounds*ref.cells))
	if restored {
		errs = append(errs,
			check(out.graphs.Builds == 0 && out.graphs.StoreHits == uint64(ref.unique), "traced: %d graph builds, %d restores, want 0, %d", out.graphs.Builds, out.graphs.StoreHits, ref.unique),
			check(out.profiles.Computes == 0 && out.profiles.StoreHits == uint64(ref.profiled()), "traced: %d profile computes, %d restores, want 0, %d", out.profiles.Computes, out.profiles.StoreHits, ref.profiled()))
	} else {
		errs = append(errs,
			check(out.graphs.Builds == uint64(ref.unique), "traced: %d graph builds, want %d", out.graphs.Builds, ref.unique),
			check(out.profiles.Computes == uint64(ref.profiled()), "traced: %d profile computes, want %d", out.profiles.Computes, ref.profiled()))
	}
	rs.g.op("traced pass", errs...)
}

// finishTrace turns the spans into the per-layer metrics, prints the
// self-time table and the tracing overhead, and writes the span file.
func (rs *runState) finishTrace(tr *tracer, roots, probes, tours []int, last *composeOut, resident float64, untraced, traced []float64) (map[string]metric, error) {
	ms := func(ns float64) float64 { return ns / 1e6 }
	perPass, units := map[string][]float64{}, map[string]string{}
	add := func(name, unit string, v float64) {
		perPass[name] = append(perPass[name], v)
		units[name] = unit
	}
	var lastTimes layerTimes
	for _, root := range roots {
		lt := tr.times(root)
		lastTimes = lt
		cellMean := 0.0
		if n := lt.count["experiments.cell"]; n > 0 {
			cellMean = lt.self["experiments.cell"] / float64(n)
		}
		add("experiments.cell_ms_mean", "ms", ms(cellMean))
		add("runner.graph_get_ms", "ms", ms(lt.self["runner.graph_get"]))
		add("runner.profile_attach_ms", "ms", ms(lt.self["runner.profile_attach"]))
		add("runner.render_ms", "ms", ms(lt.self["runner.render"]))
		add("artifact.open_ms", "ms", ms(lt.self["artifact.open"]))
		add("artifact.get_us_p50", "us", median(lt.durs["artifact.get"])/1e3)
		add("artifact.put_us_p50", "us", median(lt.durs["artifact.put"])/1e3)
		add("trace.coverage", "ratio", lt.coverage("pass"))
	}
	probed := map[string][]float64{}
	for _, p := range probes {
		pt := tr.times(p)
		for _, name := range probeLayers {
			probed[name] = append(probed[name], pt.self[name])
		}
	}
	requests := map[string][]float64{}
	for _, t := range tours {
		tt := tr.times(t)
		for _, name := range []string{"hybridnet.request", "hybridnet.submit", "hybridnet.wait", "hybridnet.results", "hybridnet.stream"} {
			requests[name] = append(requests[name], tt.durs[name]...)
		}
	}
	// Each traced composition ran next to an untraced one; their
	// difference cancels what the two have in common.
	diffs := make([]float64, len(traced))
	for i := range traced {
		diffs[i] = traced[i] - untraced[i]
	}
	overheadMS := 1e3 * median(diffs)

	m := map[string]metric{}
	for name, vs := range perPass {
		m[name] = metric{median(vs), units[name]}
	}
	for _, name := range probeLayers {
		m[name+"_ms"] = metric{ms(median(probed[name])), "ms"}
	}
	m["graph.resident_mb"] = metric{resident, "MB"}
	for _, name := range []string{"hybridnet.request", "hybridnet.submit", "hybridnet.wait", "hybridnet.results", "hybridnet.stream"} {
		m[name+"_ms_p50"] = metric{ms(median(requests[name])), "ms"}
	}
	m["hybridnet.open_ms"] = metric{1e3 * median(rs.opens), "ms"}
	diskMB := 0.0
	if d := last.store.Disk; d != nil {
		diskMB = float64(d.Bytes) / (1 << 20)
	}
	m["artifact.disk_mb"] = metric{diskMB, "MB"}
	m["artifact.hit_ratio"] = metric{last.store.HitRate(), "ratio"}
	m["runner.cells_computed"] = metric{float64(last.computed), "count"}
	m["runner.cells_cached"] = metric{float64(last.cached), "count"}
	m["runner.graph_builds"] = metric{float64(last.graphs.Builds), "count"}
	m["runner.graph_store_hits"] = metric{float64(last.graphs.StoreHits), "count"}
	m["runner.profile_computes"] = metric{float64(last.profiles.Computes), "count"}
	m["runner.profile_store_hits"] = metric{float64(last.profiles.StoreHits), "count"}
	m["trace.overhead_pct"] = metric{100 * overheadMS / (1e3 * median(untraced)), "%"}

	// The self-time table of the last traced pass, largest first.
	type share struct {
		Name  string  `json:"name"`
		MS    float64 `json:"self_ms"`
		Share float64 `json:"share"`
	}
	var table []share
	for name, self := range lastTimes.self {
		table = append(table, share{name, ms(self), self / lastTimes.wall})
	}
	sort.Slice(table, func(i, j int) bool { return table[i].MS > table[j].MS })
	line, _ := json.Marshal(map[string]any{
		"pass_wall_ms": ms(lastTimes.wall), "coverage": lastTimes.coverage("pass"), "self": table,
	})
	fmt.Fprintf(rs.cfg.log, "layers %s\n", line)
	fmt.Fprintf(rs.cfg.log, "trace overhead: median of %d paired differences (traced - untraced) %.1f ms per pass, standard error %.1f ms, untraced pass %.1f ms\n",
		len(diffs), overheadMS, 1e3*stdErr(diffs), 1e3*median(untraced))
	if err := tr.write(rs.cfg.traceOut); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return m, nil
}
