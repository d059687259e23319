package main

// Smoke tests at tiny n: every metric BENCHMARK.json names is emitted
// with a unit, a second seed passes the correctness gate, and a
// corrupted result digest is counted as a failed operation.

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// tiny runs one workload at test scale and returns its result line.
func tiny(t *testing.T, workload string, seed int64, trace, corrupt bool) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cfg := &config{
		workload: workload, seed: seed, seconds: 0.3, trace: trace,
		reportN: 40, largeN: 24, out: t.TempDir(), corrupt: corrupt, log: &stderr,
	}
	if err := execute(cfg, &stdout); err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", workload, err)
	}
	if !strings.HasPrefix(lines[0], "environment {") {
		t.Errorf("%s: first line %q is not the environment block", workload, lines[0])
	}
	return res, stderr.String()
}

// contract reads the metric names BENCHMARK.json declares.
func contract(t *testing.T) (workloads []string, endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, w := range doc.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return workloads, endToEnd, perLayer
}

func TestEveryMetricEmitted(t *testing.T) {
	workloads, endToEnd, perLayer := contract(t)
	for _, w := range workloads {
		for trace, want := range map[bool]map[string]string{false: endToEnd, true: perLayer} {
			res, log := tiny(t, w, 1, trace, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w, trace, res.Correct, res.Attempted, res.Failed, log)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w, trace, name, m, unit)
				}
			}
		}
	}
}

func TestSecondSeedPassesGate(t *testing.T) {
	workloads, _, _ := contract(t)
	for _, w := range workloads {
		res, log := tiny(t, w, 2, false, false)
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s seed 2: correct=%v failed=%d of %d\n%s", w, res.Correct, res.Failed, res.Attempted, log)
		}
	}
}

func TestCorruptedDigestCountsAsFailure(t *testing.T) {
	workloads, _, _ := contract(t)
	for _, w := range workloads {
		res, log := tiny(t, w, 1, false, true)
		if res.Correct || res.Failed != 1 {
			t.Errorf("%s: corrupted digest gave correct=%v failed=%d, want false, 1", w, res.Correct, res.Failed)
		}
		if !strings.Contains(log, "FAILED") {
			t.Errorf("%s: the failure was not reported:\n%s", w, log)
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.begin("pass", "r1")
	time.Sleep(2 * time.Millisecond)
	gen := tr.begin("experiments.generate", "")
	start := time.Now()
	time.Sleep(2 * time.Millisecond)
	tr.leaf("artifact.get", start)
	tr.cell(false)
	tr.end(gen)
	tr.end(root)

	lt := tr.times(root)
	if lt.count["experiments.cell"] != 1 || lt.count["artifact.get"] != 1 {
		t.Fatalf("counts %v", lt.count)
	}
	total := 0.0
	for _, self := range lt.self {
		if self < 0 {
			t.Errorf("negative self time: %v", lt.self)
		}
		total += self
	}
	if d := total - lt.wall; d > 1 || d < -1 {
		t.Errorf("self times sum to %.0f ns, wall is %.0f ns", total, lt.wall)
	}
	if c := lt.coverage("pass"); c <= 0 || c >= 1 {
		t.Errorf("coverage %v", c)
	}
	for _, s := range tr.spans {
		if s.Req != "r1" {
			t.Errorf("span %s carries request id %q", s.Name, s.Req)
		}
	}
	// The leaf was adopted by the cell span the observer closed.
	for _, s := range tr.spans {
		if s.Name == "artifact.get" && tr.spans[s.Parent-1].Name != "experiments.cell" {
			t.Errorf("artifact.get parent is %s", tr.spans[s.Parent-1].Name)
		}
	}
}
