package runner

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// refJSONLRow is the encoder the JSONL sink replaced: a map of the
// row's members through encoding/json, which sorts the keys and
// escapes HTML-safe. The sink must write the same bytes.
func refJSONLRow(name string, keys, values []string) []byte {
	obj := make(map[string]string, len(values)+1)
	obj["table"] = name
	for i, v := range values {
		if i < len(keys) {
			obj[keys[i]] = v
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(obj); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// jsonlCases are rows whose encoding can go wrong: duplicate keys, a
// "table" column, values shorter and longer than the keys, characters
// encoding/json escapes, and keys whose raw order differs from their
// quoted order ("a" < "a!" raw, but `"a!"` < `"a"` once quoted).
var jsonlCases = []struct {
	name         string
	keys, values []string
}{
	{"demo", []string{"family", "thm1_rounds"}, []string{"path", "12"}},
	{"dup", []string{"x", "y", "x"}, []string{"1", "2", "3"}},
	{"dup-short", []string{"x", "y", "x"}, []string{"1", "2"}},
	{"named", []string{"table", "a"}, []string{"override", "1"}},
	{"named-cut", []string{"a", "table"}, []string{"1"}},
	{"short", []string{"a", "b", "c"}, []string{"1"}},
	{"long", []string{"a"}, []string{"1", "2", "3"}},
	{"none", nil, []string{"1"}},
	{"empty", []string{"a", "b"}, nil},
	{"html", []string{"<k>", "&"}, []string{"<script>&amp;</script>", "a>b"}},
	{"separators", []string{"ls\u2028"}, []string{"a\u2028b\u2029c"}},
	{"invalid", []string{"bad\xff"}, []string{"\xc3\x28 \xe2\x82 \xf0\x9f\x98"}},
	{"controls", []string{"c"}, []string{"\x00\x01\b\f\n\r\t\x1f\x7f\"\\/"}},
	{"raw-order", []string{"a!", "a", "a\"", "a\x00", ""}, []string{"1", "2", "3", "4", "5"}},
	{"unicode", []string{"ε", "β", "k"}, []string{"0.5", "½·n", "√n"}},
	{"tab\tname<&>", []string{"table", "table"}, []string{"first", "second"}},
}

// TestJSONLSinkMatchesEncodingJSON: every case through the sink, row
// by row and as one table, and through EncodeJSONL equals the map
// encoder's bytes.
func TestJSONLSinkMatchesEncodingJSON(t *testing.T) {
	var want []byte
	var rendered []RenderedRow
	var doc bytes.Buffer
	sink := NewJSONLSink(&doc)
	for _, c := range jsonlCases {
		ref := refJSONLRow(c.name, c.keys, c.values)
		want = append(want, ref...)
		if got := EncodeJSONL([]RenderedRow{{Table: c.name, Keys: c.keys, Values: c.values}}); !bytes.Equal(got, ref) {
			t.Errorf("%s: EncodeJSONL\n got %s\nwant %s", c.name, got, ref)
		}
		rendered = append(rendered, RenderedRow{Table: c.name, Keys: c.keys, Values: c.values})
		if err := sink.BeginTable(&Table{Name: c.name, Keys: c.keys}); err != nil {
			t.Fatal(err)
		}
		if err := sink.Row(c.values); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(doc.Bytes(), want) {
		t.Errorf("sink document\n got %s\nwant %s", doc.Bytes(), want)
	}
	if got := EncodeJSONL(rendered); !bytes.Equal(got, want) {
		t.Errorf("EncodeJSONL of every case\n got %s\nwant %s", got, want)
	}
}

// TestJSONLSinkLayoutFollowsKeys: a sink reuses the member order of
// the last row shape, so a change of width, of the keys' contents in
// place, or of the keys slice must each compute a fresh order.
func TestJSONLSinkLayoutFollowsKeys(t *testing.T) {
	var doc bytes.Buffer
	sink := NewJSONLSink(&doc)
	keys := []string{"b", "a", "c"}
	var want []byte
	row := func(values ...string) {
		t.Helper()
		want = append(want, refJSONLRow("t", keys, values)...)
		if err := sink.Row(values); err != nil {
			t.Fatal(err)
		}
	}
	sink.BeginTable(&Table{Name: "t", Keys: keys})
	row("1", "2", "3")
	row("1", "2")
	row("1", "2", "3", "4")
	keys[0] = "z"
	row("1", "2", "3")
	keys[1] = "table"
	row("1", "2", "3")
	keys = []string{"c", "c"}
	sink.BeginTable(&Table{Name: "t", Keys: keys})
	row("1", "2")
	if !bytes.Equal(doc.Bytes(), want) {
		t.Errorf("sink document\n got %s\nwant %s", doc.Bytes(), want)
	}
}

// FuzzJSONLSink: for any table name, keys and values (split from one
// string on '|'), the sink and EncodeJSONL write the map encoder's
// bytes.
func FuzzJSONLSink(f *testing.F) {
	for _, c := range jsonlCases {
		f.Add(c.name, strings.Join(c.keys, "|"), strings.Join(c.values, "|"))
	}
	f.Fuzz(func(t *testing.T, name, keyList, valueList string) {
		keys := strings.Split(keyList, "|")
		values := strings.Split(valueList, "|")
		if len(keys) > 64 || len(values) > 64 {
			return
		}
		want := refJSONLRow(name, keys, values)
		var doc bytes.Buffer
		sink := NewJSONLSink(&doc)
		sink.BeginTable(&Table{Name: name, Keys: keys})
		if err := sink.Row(values); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(doc.Bytes(), want) {
			t.Fatalf("sink\n got %q\nwant %q", doc.Bytes(), want)
		}
		if got := EncodeJSONL([]RenderedRow{{Table: name, Keys: keys, Values: values}}); !bytes.Equal(got, want) {
			t.Fatalf("EncodeJSONL\n got %q\nwant %q", got, want)
		}
	})
}
