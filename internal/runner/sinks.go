// Result sinks: a swept scenario renders into a Table (header + string
// rows), and a Sink streams tables into an output format — markdown for
// the report, CSV for plotting pipelines, JSONL for log-structured
// consumers. All sinks are deterministic: identical tables produce
// byte-identical output.
package runner

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"unicode/utf8"
)

// Table is one rendered sweep artifact.
type Table struct {
	// Name is the machine key ("table1", "figure1/path", …) carried in
	// CSV and JSONL records.
	Name string
	// Title is the human heading used by the markdown sink.
	Title string
	// Header holds the display column names (markdown).
	Header []string
	// Keys holds the machine column keys (CSV/JSONL); when nil, Header
	// is used for both.
	Keys []string
	// Rows are the formatted cell values, aligned with Header.
	Rows [][]string
	// Note is a free-form trailer (e.g. the Figure 1 ASCII landscape);
	// only the markdown sink renders it.
	Note string
}

func (t *Table) keys() []string {
	if t.Keys != nil {
		return t.Keys
	}
	return t.Header
}

// Sink consumes tables row by row.
type Sink interface {
	BeginTable(t *Table) error
	Row(values []string) error
	EndTable() error
}

// WriteTable streams one table through a sink.
func WriteTable(s Sink, t *Table) error {
	if err := s.BeginTable(t); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := s.Row(row); err != nil {
			return err
		}
	}
	return s.EndTable()
}

// escapeCell makes one value safe inside a GFM table: an unescaped
// pipe would split the cell and a raw newline would terminate the row,
// so pipes are backslash-escaped and newlines become <br> (carriage
// returns are dropped). Values without either are returned unchanged.
func escapeCell(v string) string {
	if !strings.ContainsAny(v, "|\n\r") {
		return v
	}
	v = strings.ReplaceAll(v, "\r", "")
	v = strings.ReplaceAll(v, "|", `\|`)
	return strings.ReplaceAll(v, "\n", "<br>")
}

// markdownRow renders one escaped GFM table row, newline-terminated.
func markdownRow(values []string) string {
	escaped, copied := values, false
	for i, v := range values {
		if e := escapeCell(v); e != v {
			if !copied {
				escaped, copied = append([]string(nil), values...), true
			}
			escaped[i] = e
		}
	}
	return "| " + strings.Join(escaped, " | ") + " |\n"
}

// Markdown renders a header and rows as a GitHub-flavored table. Cell
// values containing pipes or newlines are escaped so they cannot
// corrupt the table structure.
func Markdown(header []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString(markdownRow(header))
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, r := range rows {
		b.WriteString(markdownRow(r))
	}
	return b.String()
}

// MarkdownSink renders each table as a "## Title" section followed by a
// GitHub-flavored table and the optional note.
type MarkdownSink struct {
	W    io.Writer
	note string
}

// BeginTable writes the section heading and the table header.
func (s *MarkdownSink) BeginTable(t *Table) error {
	s.note = t.Note
	if t.Title != "" {
		if _, err := fmt.Fprintf(s.W, "## %s\n\n", t.Title); err != nil {
			return err
		}
	}
	_, err := io.WriteString(s.W, Markdown(t.Header, nil))
	return err
}

// Row writes one table row, escaping pipes and newlines in the values.
func (s *MarkdownSink) Row(values []string) error {
	_, err := io.WriteString(s.W, markdownRow(values))
	return err
}

// EndTable writes the table note and a blank separator line.
func (s *MarkdownSink) EndTable() error {
	if s.note != "" {
		if _, err := io.WriteString(s.W, "\n"+s.note); err != nil {
			return err
		}
		s.note = ""
	}
	_, err := io.WriteString(s.W, "\n")
	return err
}

// CSVSink streams every table into one CSV document. Because tables of
// one report have different schemas, each record is prefixed with a
// "table" column and each table re-emits its header record.
type CSVSink struct {
	w    *csv.Writer
	name string
}

// NewCSVSink returns a CSV sink writing to w.
func NewCSVSink(w io.Writer) *CSVSink { return &CSVSink{w: csv.NewWriter(w)} }

// BeginTable writes the table's header record.
func (s *CSVSink) BeginTable(t *Table) error {
	s.name = t.Name
	return s.w.Write(append([]string{"table"}, t.keys()...))
}

// Row writes one record.
func (s *CSVSink) Row(values []string) error {
	return s.w.Write(append([]string{s.name}, values...))
}

// EndTable flushes buffered records.
func (s *CSVSink) EndTable() error {
	s.w.Flush()
	return s.w.Error()
}

// JSONLSink streams one JSON object per row: the table name under
// "table" plus each machine column key mapped to its formatted value.
// The bytes are those encoding/json writes for the map of that row
// (members in raw key order, HTML-safe escaping); the sink writes them
// directly into a buffer it reuses, and tests certify the two encoders
// byte-identical (DESIGN.md §12).
type JSONLSink struct {
	w      io.Writer
	name   string
	keys   []string
	buf    []byte
	layout jsonlLayout
}

// NewJSONLSink returns a JSONL sink writing to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// BeginTable records the table's name and column keys.
func (s *JSONLSink) BeginTable(t *Table) error {
	s.name = t.Name
	s.keys = t.keys()
	return nil
}

// Row writes one JSON line.
func (s *JSONLSink) Row(values []string) error {
	s.buf = s.appendRow(s.buf[:0], values)
	_, err := s.w.Write(s.buf)
	return err
}

// EndTable is a no-op for JSONL.
func (s *JSONLSink) EndTable() error { return nil }

// appendRow appends the JSON line of one row. Its members are the
// table name and the first len(values) columns, each under its key; a
// column with the key "table" replaces the name, and of columns sharing
// a key the last one wins, as in a map filled in column order.
func (s *JSONLSink) appendRow(b []byte, values []string) []byte {
	b = append(b, '{')
	for j, i := range s.layout.order(s.keys, len(values)) {
		if j > 0 {
			b = append(b, ',')
		}
		k, v := "table", s.name
		if i >= 0 {
			k, v = s.keys[i], values[i]
		}
		b = appendJSONString(b, k)
		b = append(b, ':')
		b = appendJSONString(b, v)
	}
	return append(b, '}', '\n')
}

// jsonlLayout caches the member order of the last row shape a sink
// wrote, so the rows of one table share one computation.
type jsonlLayout struct {
	keys  []string // the column keys idx was computed for (a copy)
	width int      // the row length idx was computed for
	// idx holds the column indices in member order, -1 standing for
	// the name; empty until the first row, never empty after it.
	idx []int
}

// order returns the column indices of a row of width values under
// keys, sorted by raw key string as encoding/json sorts map keys, with
// -1 standing for the table name.
func (l *jsonlLayout) order(keys []string, width int) []int {
	if len(l.idx) > 0 && width == l.width && slices.Equal(keys, l.keys) {
		return l.idx
	}
	l.keys = append(l.keys[:0], keys...)
	l.width = width
	key := func(i int) string {
		if i < 0 {
			return "table"
		}
		return keys[i]
	}
	live := keys[:min(len(keys), width)]
	l.idx = l.idx[:0]
	named := false
	for i, k := range live {
		if slices.Contains(live[i+1:], k) {
			continue
		}
		named = named || k == "table"
		l.idx = insertByKey(l.idx, i, key)
	}
	if !named {
		l.idx = insertByKey(l.idx, -1, key)
	}
	return l.idx
}

// insertByKey inserts column i into idx, which is sorted by key.
func insertByKey(idx []int, i int, key func(int) string) []int {
	idx = append(idx, i)
	j := len(idx) - 1
	for ; j > 0 && key(idx[j-1]) > key(i); j-- {
		idx[j] = idx[j-1]
	}
	idx[j] = i
	return idx
}

// appendJSONString appends s as a JSON string with encoding/json's
// escaping: HTML-safe (<, > and & as \u003c, \u003e, \u0026), the
// short escapes \" \\ \b \f \n \r \t, other control bytes as \u00XX,
// U+2028 and U+2029 as \u2028 and \u2029, and each byte of invalid
// UTF-8 as \ufffd.
func appendJSONString(b []byte, s string) []byte {
	const hexDigits = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// RenderedRow is one formatted table row in table coordinates: the
// table's machine name, its column keys, and the formatted values —
// exactly what the owning scenario's table rendering emits for the
// row. It is the unit of streaming delivery (DESIGN.md §12): a cell's
// rendered rows, encoded through EncodeJSONL, are byte-identical to
// the slice of the finished document the cell contributes.
type RenderedRow struct {
	Table  string
	Keys   []string
	Values []string
}

// EncodeJSONL renders rows through the JSONL sink, producing exactly
// the bytes the static JSONL document carries for those rows (one JSON
// object per line, keys sorted). This shared path is what certifies
// streamed and static output byte-identical. The sink's buffer and
// member order come from a pool, so encoding a cell's rows allocates
// only the returned bytes.
func EncodeJSONL(rows []RenderedRow) []byte {
	if len(rows) == 0 {
		return nil
	}
	s := jsonlScratch.Get().(*JSONLSink)
	b := s.buf[:0]
	for _, r := range rows {
		s.name, s.keys = r.Table, r.Keys
		b = s.appendRow(b, r.Values)
	}
	out := bytes.Clone(b)
	s.buf, s.name, s.keys = b, "", nil
	jsonlScratch.Put(s)
	return out
}

// jsonlScratch holds the sinks EncodeJSONL writes with.
var jsonlScratch = sync.Pool{New: func() any { return new(JSONLSink) }}
