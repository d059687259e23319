package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/runner"
)

// TestNQScalingXLShape runs the xl scenario at test scale (the n
// parameter exists for exactly this) and certifies its profile-free
// path differentially: every NQ value the ball kernel produces must
// equal the profile-served value of the standard sweep on the same
// (family, n, k) grid.
func TestNQScalingXLShape(t *testing.T) {
	fams := NQFamilies()
	xlRows, _, err := runner.Collect(runner.Serial(), NQScalingXLScenario(fams, 400))
	if err != nil {
		t.Fatal(err)
	}
	if want := len(fams) * 3; len(xlRows) != want {
		t.Fatalf("xl sweep at n=400 produced %d rows, want %d", len(xlRows), want)
	}
	profRows, _, err := runner.Collect(runner.Serial(),
		nqScalingScenario(nqScalingSpec, fams, []int{400}, []int{16, 256, 4096}, true))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range xlRows {
		p := profRows[i]
		if r.Family != p.Family || r.K != p.K || r.N != p.N {
			t.Fatalf("row %d: grid mismatch %+v vs %+v", i, r, p)
		}
		if r.NQ != p.NQ || r.Diameter != p.Diameter {
			t.Fatalf("row %d (%s, k=%d): kernel path NQ=%d D=%d, profile path NQ=%d D=%d",
				i, r.Family, r.K, r.NQ, r.Diameter, p.NQ, p.Diameter)
		}
	}
}

// TestNQScalingXLExcludedFromDefaultReport: the quick sweep must never
// pay for million-node instances; the artifact is reachable only by
// name.
func TestNQScalingXLExcludedFromDefaultReport(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteReport(&buf, ReportConfig{N: 16, Families: []graph.Family{graph.FamilyPath}}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "nqscaling-xl") || strings.Contains(buf.String(), "10^6") {
		t.Fatalf("default report includes the xl artifact:\n%s", buf.String())
	}
}

// TestNQScalingXLEndToEnd is the REPRO_XL=1 smoke: one full
// million-node cell through the registry — graph build with analytic
// diameter seed, sharded ball-kernel evaluation, table rendering. CI
// runs it tag-gated; locally it proves the n = 10^6 regime actually
// completes.
func TestNQScalingXLEndToEnd(t *testing.T) {
	if os.Getenv("REPRO_XL") == "" {
		t.Skip("set REPRO_XL=1 to run the million-node smoke")
	}
	tables, err := Generate("nqscaling-xl",
		ReportConfig{Families: []graph.Family{graph.FamilyPath}}, runner.Serial())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 3 {
		t.Fatalf("xl sweep returned %+v", tables)
	}
	for _, row := range tables[0].Rows {
		if row[1] != "1000000" {
			t.Fatalf("xl cell ran at n=%s, want 1000000", row[1])
		}
	}
}
