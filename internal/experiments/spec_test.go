package experiments

import (
	"sync/atomic"
	"testing"

	"repro/internal/artifact"
	"repro/internal/graph"
	"repro/internal/runner"
)

// countValues wraps spec's values with a call counter until the test
// ends.
func countValues[T any](t *testing.T, spec *tableSpec[T]) *atomic.Int64 {
	t.Helper()
	var calls atomic.Int64
	values := spec.values
	spec.values = func(r T) []string {
		calls.Add(1)
		return values(r)
	}
	t.Cleanup(func() { spec.values = values })
	return &calls
}

// TestResubmittedSweepRendersEachRowOnce: a resubmitted sweep whose
// cells all hit the result cache formats each row through its spec's
// values exactly once — with an observer, whose events carry the very
// rows the finished tables are assembled from, and without one. Table
// 1 is one table; Figure 1 is split per family.
func TestResubmittedSweepRendersEachRowOnce(t *testing.T) {
	cfg := ReportConfig{N: 36, Families: []graph.Family{graph.FamilyPath, graph.FamilyGrid2D}}
	for _, c := range []struct {
		name  string
		calls *atomic.Int64
	}{
		{"table1", countValues(t, table1Spec)},
		{"figure1", countValues(t, figure1Spec)},
	} {
		t.Run(c.name, func(t *testing.T) {
			results := artifact.NewStore(0).Namespace("results")
			if _, err := Generate(c.name, cfg, &runner.Runner{Workers: 2, Cache: results}); err != nil {
				t.Fatal(err)
			}
			for _, observed := range []bool{true, false} {
				var cells, hits, rendered atomic.Int64
				r := &runner.Runner{Workers: 2, Cache: results}
				if observed {
					r.Observer = func(ev runner.CellEvent) {
						cells.Add(1)
						if ev.Cached {
							hits.Add(1)
						}
						rendered.Add(int64(len(ev.Rendered)))
					}
				}
				c.calls.Store(0)
				tables, err := Generate(c.name, cfg, r)
				if err != nil {
					t.Fatal(err)
				}
				rows := 0
				for _, tb := range tables {
					rows += len(tb.Rows)
				}
				if rows == 0 {
					t.Fatal("sweep rendered no rows")
				}
				if got := c.calls.Load(); got != int64(rows) {
					t.Errorf("observed=%v: values ran %d times for %d rows, want once per row", observed, got, rows)
				}
				if observed && (cells.Load() == 0 || hits.Load() != cells.Load() || rendered.Load() != int64(rows)) {
					t.Errorf("observed %d cells, %d cache hits, %d rendered rows; want every cell a hit and %d rows",
						cells.Load(), hits.Load(), rendered.Load(), rows)
				}
			}
		})
	}
}
