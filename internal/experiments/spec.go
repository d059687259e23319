package experiments

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/runner"
)

// tableSpec declares one output table once: its name, title, display
// header and machine keys, and how a row formats. A scenario's
// RenderRow is the spec's row, so runner.Collect formats each row
// through values exactly once, as its cell resolves; the stream chunk
// and the finished document (collectTables) share those strings, and
// a streamed row is byte-identical to the document's (DESIGN.md §12).
type tableSpec[T any] struct {
	name, title  string
	header, keys []string
	values       func(T) []string
	// note, when set, renders the markdown-only trailer of the table
	// from its rows.
	note func(rows []T) string
	// family, when set, splits the spec into one table per graph family
	// (Figure 1): forFamily names each one.
	family func(T) graph.Family
}

// forFamily returns the spec of family fam's table: the name gains a
// "/fam" suffix and fam fills the title's %s verb. A spec without a
// family split is returned as is.
func (s *tableSpec[T]) forFamily(fam graph.Family) *tableSpec[T] {
	if s.family == nil {
		return s
	}
	fs := *s
	fs.name, fs.title, fs.family = s.nameFor(fam), fmt.Sprintf(s.title, fam), nil
	return &fs
}

// nameFor is the name of family fam's table: forFamily's name, without
// rendering its title.
func (s *tableSpec[T]) nameFor(fam graph.Family) string {
	if s.family == nil {
		return s.name
	}
	return s.name + "/" + string(fam)
}

// table formats rows through values and assembles the finished table;
// a swept table is assembled from its cells' rendered rows instead
// (collectTables).
func (s *tableSpec[T]) table(rows []T) *runner.Table {
	values := make([][]string, len(rows))
	for i, r := range rows {
		values[i] = s.values(r)
	}
	return s.assemble(rows, values)
}

// assemble builds the finished table of rows from their formatted
// values (values[i] is rows[i]'s); the typed rows feed only the note.
func (s *tableSpec[T]) assemble(rows []T, values [][]string) *runner.Table {
	t := &runner.Table{Name: s.name, Title: s.title, Header: s.header, Keys: s.keys, Rows: values}
	if s.note != nil {
		t.Note = s.note(rows)
	}
	return t
}

// row renders one of cell c's rows in table coordinates; scenarios use
// it as their RenderRow.
func (s *tableSpec[T]) row(c *runner.Cell, r T) runner.RenderedRow {
	return runner.RenderedRow{Table: s.nameFor(c.Family), Keys: s.keys, Values: s.values(r)}
}

// collectTables sweeps sc on r and assembles its tables from the rows
// its cells rendered (sc.RenderRow must be spec.row): one table, or,
// for a spec split by family, one table per family of sc in sweep
// order. The typed rows pick each row's family and feed the note.
func collectTables[T any](r *runner.Runner, sc *runner.Scenario[T], spec *tableSpec[T]) ([]*runner.Table, error) {
	rows, rendered, err := runner.Collect(r, sc)
	if err != nil {
		return nil, err
	}
	values := make([][]string, len(rows))
	for i := range rows {
		values[i] = rendered[i].Values
	}
	if spec.family == nil {
		return []*runner.Table{spec.assemble(rows, values)}, nil
	}
	var tables []*runner.Table
	for _, fam := range sc.Families {
		var famRows []T
		var famValues [][]string
		for i, row := range rows {
			if spec.family(row) == fam {
				famRows = append(famRows, row)
				famValues = append(famValues, values[i])
			}
		}
		tables = append(tables, spec.forFamily(fam).assemble(famRows, famValues))
	}
	return tables, nil
}
