package async_test

// TestReportsGolden pins the engine's observable output: the full
// Report (trace digest, convergence tick and every transport and churn
// counter) of BFS, Approx and Disseminate on three families under the
// five fault profiles of the served robustness scenario. A change that
// reorders events, draws a fault differently or merges emissions in
// another order moves a digest here.

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/async"
	"repro/internal/graph"
)

// goldenProfiles are the robustness scenario's fault profiles
// (internal/experiments/robustness.go), in its display order.
var goldenProfiles = []struct {
	name string
	f    async.Faults
}{
	{"fault=none", async.Faults{}},
	{"loss=0.05", async.LossProfile(0.05)},
	{"loss=0.20", async.LossProfile(0.20)},
	{"burst=0.10", async.BurstLossProfile(0.10, 0.50, 0.90)},
	{"churn=0.25", async.ChurnProfile(0.25)},
}

const goldenFile = "testdata/reports.golden"

func TestReportsGolden(t *testing.T) {
	want := readGolden(t)
	var got []string
	for i, fam := range []graph.Family{graph.FamilyPath, graph.FamilyGrid2D, graph.FamilyExpander} {
		seed := int64(i + 1)
		g, err := graph.Build(fam, 48, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		src := int(seed*7) % g.N()
		wg := graph.RandomWeights(g, 30, rand.New(rand.NewSource(seed+100)))
		tokensAt := make([]int, g.N())
		trng := rand.New(rand.NewSource(seed + 200))
		for range 8 {
			tokensAt[trng.Intn(g.N())]++
		}
		for _, p := range goldenProfiles {
			opt := async.Options{Seed: seed, Faults: p.f}
			runs := []struct {
				algo string
				run  func() (*async.Report, error)
			}{
				{"bfs", func() (*async.Report, error) { _, r, err := async.BFS(g, src, opt); return r, err }},
				{"approx", func() (*async.Report, error) { _, r, err := async.Approx(wg, src, 0.25, opt); return r, err }},
				{"disseminate", func() (*async.Report, error) { _, r, err := async.Disseminate(g, tokensAt, opt); return r, err }},
			}
			for _, r := range runs {
				name := fmt.Sprintf("%s/n=%d/%s/%s", fam, g.N(), p.name, r.algo)
				rep, err := r.run()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got = append(got, fmt.Sprintf("%s digest=%x converged=%d delivered=%d transmissions=%d dropped=%d retries=%d crashes=%d restarts=%d",
					name, rep.Digest, rep.ConvergedAt, rep.Delivered, rep.Transmissions, rep.DroppedAttempts, rep.Retries, rep.Crashes, rep.Restarts))
			}
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d reports, %s holds %d", len(got), goldenFile, len(want))
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Errorf("report %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
	if t.Failed() {
		t.Logf("reports of this build, one a line:\n%s", strings.Join(got, "\n"))
	}
}

func readGolden(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
