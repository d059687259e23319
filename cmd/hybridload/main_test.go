package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/hybridnet"
	"repro/internal/cliutil"
)

// startBackend hosts a real sweep server over httptest for the load
// generator to drive.
func startBackend(t *testing.T, cfg hybridnet.ServerConfig) *httptest.Server {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	srv, err := hybridnet.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts
}

// TestLoadTwoWaves: the end-to-end load run — two waves over a small
// mix, warm wave cache-served and byte-identical, bench lines emitted
// in the Go benchmark format.
func TestLoadTwoWaves(t *testing.T) {
	ts := startBackend(t, hybridnet.ServerConfig{})
	var out strings.Builder
	err := run(context.Background(), []string{
		"-addr", ts.URL,
		"-mix", "nq:path:64,nq:cycle:64",
		"-waves", "2", "-clients", "2", "-bench",
	}, &out)
	if err != nil {
		t.Fatalf("load run failed: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{"wave 1:", "wave 2:", "metrics scrape"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	benchLine := regexp.MustCompile(`(?m)^Benchmark\S+ 1 \d+ ns/op$`)
	if got := len(benchLine.FindAllString(text, -1)); got != 4 {
		t.Errorf("want 4 bench lines, got %d:\n%s", got, text)
	}
	// The warm wave resolves every cell from the result cache.
	waveLines := regexp.MustCompile(`(?m)^wave 2: .*cached (\d+)/(\d+) cells$`).FindStringSubmatch(text)
	if waveLines == nil || waveLines[1] != waveLines[2] {
		t.Errorf("warm wave not fully cache-served:\n%s", text)
	}
}

// TestLoadHonors429: against a rate-limited server, the generator
// backs off per Retry-After and completes the mix anyway.
func TestLoadHonors429(t *testing.T) {
	ts := startBackend(t, hybridnet.ServerConfig{RatePerSec: 20, Burst: 1})
	var out strings.Builder
	err := run(context.Background(), []string{
		"-addr", ts.URL,
		"-mix", "nq:path:64,nq:cycle:64,nq:grid2d:64",
		"-waves", "1", "-clients", "3",
	}, &out)
	if err != nil {
		t.Fatalf("rate-limited load run failed: %v\n%s", err, out.String())
	}
	if !regexp.MustCompile(`429 shed-and-retried submissions: [1-9]`).MatchString(out.String()) {
		t.Logf("no shed observed (timing-dependent, not fatal):\n%s", out.String())
	}
}

// deadAddr reserves an ephemeral port and immediately frees it, so
// dialing it gets connection-refused — a peer that is down.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestLoadMultiTargetFailover: with -peers listing two live backends
// and one dead address, every job still completes (failing over off the
// dead target with backoff) and the cross-wave digest ledger holds even
// though waves land on different backends — deterministic sweeps must
// be byte-identical across peers.
func TestLoadMultiTargetFailover(t *testing.T) {
	ts1 := startBackend(t, hybridnet.ServerConfig{})
	ts2 := startBackend(t, hybridnet.ServerConfig{})
	dead := deadAddr(t)
	var out strings.Builder
	err := run(context.Background(), []string{
		"-peers", strings.Join([]string{ts1.URL, dead, ts2.URL}, ","),
		"-mix", "nq:path:64,nq:cycle:64",
		"-waves", "2", "-clients", "2",
	}, &out)
	if err != nil {
		t.Fatalf("multi-target load run failed: %v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "warning: http://"+dead+" unreachable") {
		t.Errorf("missing unreachable warning for the dead target:\n%s", text)
	}
	m := regexp.MustCompile(`(?m)^cross-target failovers: (\d+)$`).FindStringSubmatch(text)
	if m == nil || m[1] == "0" {
		t.Errorf("round-robin over a dead target must record failovers, got %v:\n%s", m, text)
	}
	for _, want := range []string{"wave 1:", "wave 2:"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// TestLoadAllTargetsDead: the startup probe fails the run when no
// target answers, before any load is generated.
func TestLoadAllTargetsDead(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{
		"-peers", deadAddr(t) + "," + deadAddr(t),
		"-waves", "1",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "no hybridd reachable") {
		t.Fatalf("err = %v, want a no-target-reachable error", err)
	}
}

// TestRetryable pins the failover classification: transport-level
// failures fail over, application-level errors do not.
func TestRetryable(t *testing.T) {
	var c loadClient
	c.hc = httptest.NewServer(nil).Client()
	c.targets = []string{"http://" + deadAddr(t)}
	_, err := c.submit(context.Background(), c.targets[0], job{scenario: "nq", family: "path", n: 64}, false)
	if err == nil || !retryable(err) {
		t.Errorf("connection refused: retryable(%v) = false, want true", err)
	}
	for _, appErr := range []error{
		fmt.Errorf("sweep x failed: boom"),
		fmt.Errorf("wave 2: sweep y results drifted"),
	} {
		if retryable(appErr) {
			t.Errorf("retryable(%v) = true, want false", appErr)
		}
	}
	if !retryable(fmt.Errorf("wait x: %w", io.ErrUnexpectedEOF)) {
		t.Error("a truncated body must be retryable")
	}
}

// TestParseMix pins the mix grammar.
func TestParseMix(t *testing.T) {
	jobs, err := parseMix("nq:path:64, table1:grid2d:128")
	if err != nil || len(jobs) != 2 || jobs[1].scenario != "table1" || jobs[1].n != 128 {
		t.Fatalf("parseMix = %+v, %v", jobs, err)
	}
	for _, bad := range []string{"", "nq:path", "nq:path:zero", "nq:path:-1"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}

// TestUsage pins the shared cliutil -h shape.
func TestUsage(t *testing.T) {
	var buf strings.Builder
	if err := run(context.Background(), []string{"-h"}, &buf); err != nil {
		t.Fatalf("-h: %v", err)
	}
	for _, want := range []string{"-mix", "-waves", "-peers"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("usage missing %q:\n%s", want, buf.String())
		}
	}
	if err := cliutil.VerifyUsageText("hybridload", buf.String()); err != nil {
		t.Errorf("usage text invalid: %v\n%s", err, buf.String())
	}
}

// TestBadFlags: unknown flags and invalid mixes fail run.
func TestBadFlags(t *testing.T) {
	var buf strings.Builder
	if err := run(context.Background(), []string{"-nosuch"}, &buf); err == nil {
		t.Fatal("run accepted an unknown flag")
	}
	if err := run(context.Background(), []string{"-mix", "garbage"}, &buf); err == nil {
		t.Fatal("run accepted a bad mix")
	}
	if err := run(context.Background(), []string{"-waves", "0"}, &buf); err == nil {
		t.Fatal("run accepted zero waves")
	}
}
