package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/runner"
)

func TestGammaScalingMonotone(t *testing.T) {
	rows, err := collectWorkers(0, GammaScalingScenario(graph.FamilyPath, 576, 48, []int{1, 4, 16}, 0.5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	// Theorem 14: more capacity never costs more rounds.
	for i := 1; i < len(rows); i++ {
		if rows[i].Rounds > rows[i-1].Rounds {
			t.Fatalf("rounds increased with γ: %+v", rows)
		}
	}
	// At the largest γ, k ≤ γ: the parallel regime.
	if !strings.Contains(rows[len(rows)-1].Regime, "parallel") {
		t.Fatalf("final regime %q, want parallel", rows[len(rows)-1].Regime)
	}
	tbl := gammaSpec.table(rows)
	if !strings.Contains(markdown(tbl), "parallel") {
		t.Fatal("format failed")
	}
	var buf bytes.Buffer
	if err := runner.WriteTable(runner.NewCSVSink(&buf), tbl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cap_factor") {
		t.Fatal("CSV header missing")
	}
}
