package experiments

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/runner"
)

func collectWorkers[T any](workers int, sc *runner.Scenario[T]) ([]T, error) {
	return runner.Collect(&runner.Runner{Workers: workers}, sc)
}

// TestReportByteIdenticalAcrossWorkerCounts is the determinism
// regression for the sweep runner: one full Table 1 sweep over all
// eleven default families, rendered into every sink, must produce
// byte-identical output at every worker count in the sweep — serial,
// a small parallel pool, whatever GOMAXPROCS resolves to on this
// machine, and an oversubscribed pool. Run under -race this also
// certifies the parallel sweep is race-clean end to end.
func TestReportByteIdenticalAcrossWorkerCounts(t *testing.T) {
	workerSweep := []int{1, 2, runtime.GOMAXPROCS(0), 8}
	for _, format := range []string{"md", "csv", "jsonl"} {
		render := func(workers int) []byte {
			var buf bytes.Buffer
			err := WriteReport(&buf, ReportConfig{
				N:       64,
				Seed:    5,
				Tables:  []int{1},
				Workers: workers,
				Format:  format,
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", format, workers, err)
			}
			return buf.Bytes()
		}
		serial := render(workerSweep[0])
		if len(serial) == 0 {
			t.Fatalf("%s: empty report", format)
		}
		for _, workers := range workerSweep[1:] {
			if got := render(workers); !bytes.Equal(serial, got) {
				t.Fatalf("%s output differs between 1 and %d workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
					format, workers, serial, got)
			}
		}
	}
}

// TestSweepCellsRunTheCSRPath pins that every sweep cell resolves its
// graph; a graph.Graph has no representation but the CSR arrays, so the
// byte-identical reports certified above come from the CSR hot paths.
func TestSweepCellsRunTheCSRPath(t *testing.T) {
	sc := Table1Scenario(DefaultFamilies(), 64, []int{16}, 5)
	cells := runner.Cells(sc)
	if len(cells) == 0 {
		t.Fatal("no cells")
	}
	for i := range cells {
		if _, err := cells[i].BuildGraph(); err != nil {
			t.Fatalf("cell %s: %v", cells[i].String(), err)
		}
	}
}

// TestTableRowsIdenticalAcrossWorkerCounts pins the row-level contract
// on the remaining table scenarios at a small scale.
func TestTableRowsIdenticalAcrossWorkerCounts(t *testing.T) {
	fams := DefaultFamilies()
	cfgs := []struct {
		name string
		run  func(workers int) (any, error)
	}{
		{"table3", func(w int) (any, error) {
			return collectWorkers(w, Table3Scenario(fams, 64, []int{8, 32}, 7))
		}},
		{"table4", func(w int) (any, error) {
			return collectWorkers(w, Table4Scenario(fams, 64, []float64{0.5}, 7))
		}},
		{"figure1", func(w int) (any, error) {
			return collectWorkers(w, Figure1Scenario([]graph.Family{"path", "grid2d"}, 100, []float64{0, 0.5, 1}, 0.5, 7))
		}},
	}
	for _, c := range cfgs {
		serial, err := c.run(1)
		if err != nil {
			t.Fatalf("%s serial: %v", c.name, err)
		}
		parallel, err := c.run(8)
		if err != nil {
			t.Fatalf("%s parallel: %v", c.name, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("%s rows differ across worker counts:\n%v\nvs\n%v", c.name, serial, parallel)
		}
	}
}
