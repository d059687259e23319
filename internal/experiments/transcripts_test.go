package experiments

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/runner"
)

// clusterRuns is how often one cell recorded a Lemma 3.5 clustering and
// how often a later network of the cell replayed one.
type clusterRuns struct{ recorded, replayed int }

// collectWithTranscripts runs sc twice on one topology cache, so both
// passes measure the same graph instances, and returns each pass's rows
// and per-cell clustering runs.
func collectWithTranscripts[T any](t *testing.T, sc *runner.Scenario[T]) (rows [2][]T, runs [2][]clusterRuns) {
	t.Helper()
	graphs, profiles := runner.NewGraphCache(nil, 0), runner.NewProfileCache(nil, 0)
	for pass := range rows {
		pass := pass
		r := &runner.Runner{Workers: 1, Graphs: graphs, Profiles: profiles, Observer: func(ev runner.CellEvent) {
			rec, rep := ev.Cell.Transcripts.Runs("cluster")
			runs[pass] = append(runs[pass], clusterRuns{rec, rep})
		}}
		var err error
		if rows[pass], _, err = runner.Collect(r, sc); err != nil {
			t.Fatal(err)
		}
	}
	return rows, runs
}

// runWithoutTranscripts runs every cell of sc directly, with no table,
// so every network runs every phase.
func runWithoutTranscripts[T any](t *testing.T, sc *runner.Scenario[T]) []T {
	t.Helper()
	var out []T
	for _, c := range runner.Cells(sc) {
		if c.Transcripts != nil {
			t.Fatal("an expanded cell carries a transcript table")
		}
		rows, err := sc.Run(&c)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rows...)
	}
	return out
}

// TestCellTranscripts: within a table1 and a table2 cell (grid2d and
// expander, n = 576) each (graph, k) clustering runs once and the
// cell's later networks replay it; the rows equal a run without a
// table; and a second sweep over the same shared graph instances records
// its clusterings afresh, so no two cells share a transcript.
func TestCellTranscripts(t *testing.T) {
	fams := []graph.Family{graph.FamilyGrid2D, graph.FamilyExpander}
	check := func(name string, runs [2][]clusterRuns, want []clusterRuns) {
		t.Helper()
		for pass := range runs {
			if !reflect.DeepEqual(runs[pass], want) {
				t.Errorf("%s pass %d: per-cell clustering runs %+v, want %+v", name, pass+1, runs[pass], want)
			}
		}
	}

	// Theorems 1, 2 and 3 all cluster at k = n: the first records it,
	// the other two replay it.
	t1 := Table1Scenario(fams, 576, []int{576}, 1)
	rows1, runs1 := collectWithTranscripts(t, t1)
	check("table1", runs1, []clusterRuns{{1, 2}, {1, 2}})
	plain1 := runWithoutTranscripts(t, t1)
	for pass := range rows1 {
		if !reflect.DeepEqual(rows1[pass], plain1) {
			t.Errorf("table1 pass %d: rows with transcripts %+v, without %+v", pass+1, rows1[pass], plain1)
		}
	}

	// Theorem 6 records k = n and k = 2n, Corollaries 2.2 and 2.3 each
	// record their own token count, Theorem 8 replays n and 2n and
	// records its skeleton's, and Theorem 9 replays Corollary 2.2's.
	t2 := Table2Scenario(fams, 576, 1)
	rows2, runs2 := collectWithTranscripts(t, t2)
	check("table2", runs2, []clusterRuns{{5, 3}, {5, 3}})
	plain2 := runWithoutTranscripts(t, t2)
	for pass := range rows2 {
		if !reflect.DeepEqual(rows2[pass], plain2) {
			t.Errorf("table2 pass %d: rows with transcripts %+v, without %+v", pass+1, rows2[pass], plain2)
		}
	}
}

// BenchmarkCell times one table1 cell (k = n) and one table2 cell on
// grid2d at n = 576 per op, each from fresh topology and profile caches:
// the cells whose networks share transcripts.
func BenchmarkCell(b *testing.B) {
	fams := []graph.Family{graph.FamilyGrid2D}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := runner.Collect(runner.Serial(), Table1Scenario(fams, 576, []int{576}, 1)); err != nil {
			b.Fatal(err)
		}
		if _, _, err := runner.Collect(runner.Serial(), Table2Scenario(fams, 576, 1)); err != nil {
			b.Fatal(err)
		}
	}
}
