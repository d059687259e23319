package experiments

import (
	"io"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/nq"
	"repro/internal/oracle"
	"repro/internal/runner"
)

// markdown renders a table's header and rows as the markdown sink does.
func markdown(t *runner.Table) string {
	return runner.Markdown(t.Header, t.Rows)
}

func TestTable1SmallRun(t *testing.T) {
	rows, err := collectWorkers(0, Table1Scenario([]graph.Family{graph.FamilyPath, graph.FamilyGrid2D}, 144, []int{64, 144}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.DisseminationRounds <= 0 || r.AggregationRounds <= 0 || r.RoutingRounds <= 0 {
			t.Fatalf("non-positive measured rounds: %+v", r)
		}
		if r.NQ < 1 {
			t.Fatalf("NQ missing: %+v", r)
		}
		// Measured universal rounds must respect the Theorem 4 bound.
		if float64(r.DisseminationRounds) < r.LowerBound {
			t.Fatalf("measured %d below lower bound %.1f", r.DisseminationRounds, r.LowerBound)
		}
	}
	// Shape check: on the grid the universal algorithm must beat the
	// AHK+20 √k baseline for k=n (NQ_n ≈ n^{1/3} ≪ √n there)… at these
	// small sizes polylog constants dominate, so just require the
	// formatted table to render.
	txt := markdown(table1Spec.table(rows))
	if !strings.Contains(txt, "path") || !strings.Contains(txt, "grid2d") {
		t.Fatalf("format:\n%s", txt)
	}
}

func TestTable2SmallRun(t *testing.T) {
	rows, err := collectWorkers(0, Table2Scenario([]graph.Family{graph.FamilyPath}, 100, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows=%d", len(rows))
	}
	r := rows[0]
	for name, v := range map[string]int{
		"unweighted": r.UnweightedRounds,
		"sparse":     r.SparseExactRounds,
		"spanner":    r.SpannerRounds,
		"skeleton":   r.SkeletonRounds,
		"cuts":       r.CutsRounds,
	} {
		if v <= 0 {
			t.Fatalf("%s rounds = %d", name, v)
		}
	}
	if !strings.Contains(markdown(table2Spec.table(rows)), "path") {
		t.Fatal("format failed")
	}
}

// TestTable2RingOfCliquesNQmFromProfile: Corollary 2.2
// (apsp.SparseExact) asks NQ_m, and the ring of cliques at n = 576 has
// m = 6648 > 9n = 5184. The profile that Table 2's cell attaches stops
// each row at K = max{9n, m}, none of them with the ball complete, so
// it decides k = m and the cell answers NQ_m from the rows instead of
// growing 576 balls with BallReach. The answer is Definition 3.1's.
func TestTable2RingOfCliquesNQmFromProfile(t *testing.T) {
	gc := runner.NewGraphCache(nil, 0)
	sc := Table2Scenario([]graph.Family{graph.FamilyRingOfCliques}, 576, 1)
	if _, _, err := runner.Collect(&runner.Runner{Workers: 1, Graphs: gc}, sc); err != nil {
		t.Fatal(err)
	}
	g, err := gc.Get(graph.FamilyRingOfCliques, 576, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := g.M()
	if m <= 9*g.N() {
		t.Fatalf("m = %d is not above 9n = %d", m, 9*g.N())
	}
	p := g.Profiles()
	if p == nil || p.Complete() || !p.Decides(m) {
		t.Fatalf("the cell's profile (attached %v) does not decide k = m by its stop at K", p != nil)
	}
	_, want, err := oracle.NQPerNode(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := nq.Of(g, m); err != nil || got != want {
		t.Fatalf("NQ_m = %d (err %v), oracle %d", got, err, want)
	}
}

func TestTable3SmallRun(t *testing.T) {
	rows, err := collectWorkers(0, Table3Scenario([]graph.Family{graph.FamilyPath}, 120, []int{32}, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows=%d", len(rows))
	}
	if rows[0].Rounds <= 0 || rows[0].Stretch < 1 {
		t.Fatalf("bad row %+v", rows[0])
	}
	if !strings.Contains(markdown(table3Spec.table(rows)), "path") {
		t.Fatal("format failed")
	}
}

func TestTable4SmallRun(t *testing.T) {
	rows, err := collectWorkers(0, Table4Scenario([]graph.Family{graph.FamilyGrid2D}, 100, []float64{0.5, 0.25}, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows=%d", len(rows))
	}
	// Theorem 13 cost grows with 1/ε² but not with anything else.
	if rows[1].Thm13Rounds <= rows[0].Thm13Rounds {
		t.Fatalf("eps=0.25 (%d) not costlier than eps=0.5 (%d)", rows[1].Thm13Rounds, rows[0].Thm13Rounds)
	}
	if !strings.Contains(markdown(table4Spec.table(rows)), "grid2d") {
		t.Fatal("format failed")
	}
}

func TestFigure1SmallRun(t *testing.T) {
	pts, err := collectWorkers(0, Figure1Scenario([]graph.Family{graph.FamilyPath}, 200, []float64{0, 0.5, 1}, 0.5, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points=%d", len(pts))
	}
	for _, p := range pts {
		if p.Rounds <= 0 {
			t.Fatalf("no rounds at beta=%v", p.Beta)
		}
	}
	fig := figure1Spec.forFamily(graph.FamilyPath).table(pts)
	if txt := markdown(fig); !strings.Contains(txt, "regime") || !strings.Contains(fig.Note, "*") {
		t.Fatalf("figure format:\n%s\n%s", txt, fig.Note)
	}
}

func TestNQScalingRun(t *testing.T) {
	rows, err := NQScaling(256, []int{16, 64, 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 4 families × 3 k
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		// Theorem 15/16: NQ_k within a small constant of the prediction.
		if r.Ratio < 0.2 || r.Ratio > 5 {
			t.Fatalf("%s k=%d: NQ=%d vs predicted %.1f (ratio %.2f)", r.Family, r.K, r.NQ, r.Predicted, r.Ratio)
		}
	}
	if !strings.Contains(FormatNQScaling(rows), "grid3d") {
		t.Fatal("format failed")
	}
}

func TestDefaultFamilies(t *testing.T) {
	fams := DefaultFamilies()
	if len(fams) < 4 {
		t.Fatal("too few default families")
	}
	for _, f := range fams {
		if _, err := graph.Build(f, 64, nil); err != nil {
			t.Fatalf("family %s unbuildable: %v", f, err)
		}
	}
}

// TestFormatsSingleSourceOfTruth: every format Formats lists must have
// a content type and a working sink, and NewSink must reject anything
// else — the server's HTTP whitelist derives from the same table, so
// the two cannot drift.
func TestFormatsSingleSourceOfTruth(t *testing.T) {
	for _, format := range Formats() {
		if ct, ok := FormatContentType(format); !ok || ct == "" {
			t.Errorf("format %q has no content type", format)
		}
		if sink, err := (&ReportConfig{Format: format}).NewSink(io.Discard); err != nil || sink == nil {
			t.Errorf("format %q has no sink: %v", format, err)
		}
	}
	if ct, ok := FormatContentType(""); !ok || ct != "text/markdown; charset=utf-8" {
		t.Errorf("empty format should default to markdown, got %q ok=%v", ct, ok)
	}
	if _, ok := FormatContentType("xml"); ok {
		t.Error("unknown format accepted by FormatContentType")
	}
	if _, err := (&ReportConfig{Format: "xml"}).NewSink(io.Discard); err == nil {
		t.Error("unknown format accepted by NewSink")
	}
}
