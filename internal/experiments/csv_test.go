package experiments

import (
	"bytes"
	"encoding/csv"
	"testing"

	"repro/internal/graph"
)

// servedCSV runs WriteReport in the csv format and parses the document,
// returning each table's header record and its data records by table
// name.
func servedCSV(t *testing.T, cfg ReportConfig) (headers map[string][]string, rows map[string][][]string) {
	t.Helper()
	cfg.Format = "csv"
	var buf bytes.Buffer
	if err := WriteReport(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(&buf)
	r.FieldsPerRecord = -1 // each table re-emits its own header record
	records, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	headers, rows = map[string][]string{}, map[string][][]string{}
	var header []string
	for _, rec := range records {
		if rec[0] == "table" {
			header = rec
			continue
		}
		headers[rec[0]] = header
		rows[rec[0]] = append(rows[rec[0]], rec)
	}
	return headers, rows
}

func TestTable4CSVRoundTrip(t *testing.T) {
	headers, rows := servedCSV(t, ReportConfig{N: 64, Seed: 1, Tables: []int{4},
		Families: []graph.Family{graph.FamilyPath}})
	if len(rows["table4"]) != 3 { // one row per ε ∈ {0.5, 0.25, 0.1}
		t.Fatalf("table4 rows=%d: %v", len(rows["table4"]), rows)
	}
	if h := headers["table4"]; h[0] != "table" || h[1] != "family" {
		t.Fatalf("bad CSV header: %v", h)
	}
	for _, rec := range rows["table4"] {
		if rec[1] != "path" || len(rec) != len(headers["table4"]) {
			t.Fatalf("bad CSV row: %v", rec)
		}
	}
}

func TestNQScalingCSV(t *testing.T) {
	headers, rows := servedCSV(t, ReportConfig{N: 64, NQ: true})
	if want := len(NQFamilies()) * 4; len(rows["nqscaling"]) != want { // k ∈ {16, 64, 256, 1024}
		t.Fatalf("nqscaling rows=%d, want %d", len(rows["nqscaling"]), want)
	}
	for _, rec := range rows["nqscaling"] {
		if len(rec) != 8 || len(headers["nqscaling"]) != 8 { // "table" + 7 columns
			t.Fatalf("row width %d, header %v", len(rec), headers["nqscaling"])
		}
	}
}

func TestAllCSVWritersProduceHeaders(t *testing.T) {
	headers, rows := servedCSV(t, ReportConfig{N: 64, Seed: 1, Tables: []int{1, 2, 3}, Figure1: true,
		Families: []graph.Family{graph.FamilyPath}})
	for _, c := range []struct {
		table, key string
		rows       int
	}{
		{"table1", "thm1_rounds", 3},    // k ∈ {n/4, n, 4n}
		{"table2", "thm6_rounds", 1},    // one row per family
		{"table3", "thm5_rounds", 2},    // k ∈ {n/8, n/2}
		{"figure1/path", "delta_lb", 7}, // seven β points
	} {
		if len(rows[c.table]) != c.rows {
			t.Errorf("%s rows=%d, want %d", c.table, len(rows[c.table]), c.rows)
		}
		found := false
		for _, h := range headers[c.table] {
			found = found || h == c.key
		}
		if !found {
			t.Errorf("missing header %s in %s: %v", c.key, c.table, headers[c.table])
		}
	}
}
