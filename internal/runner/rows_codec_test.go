package runner_test

// The cell-row codec (runner.encodeRows/decodeRows) against real row
// blobs, exact values, changed schemas and hostile headers. gob, the
// codec the cache used before, is the reference the decoded rows are
// compared with, and its blobs must be misses.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/runner"
)

// gobRoundTrip passes rows through gob's encoder and decoder.
func gobRoundTrip[T any](t *testing.T, rows []T) (blob []byte, back []T) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rows); err != nil {
		t.Fatal(err)
	}
	blob = bytes.Clone(buf.Bytes())
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	return blob, back
}

// codecChecks runs the codec properties on one real blob of a served
// row type: it decodes to rowsPerCell rows and re-encodes to itself,
// the rows equal their gob round-trip bit for bit, their gob blob does
// not decode, and every truncation is rejected. It returns the gob blob.
func codecChecks[T any](t *testing.T, blob []byte, decode func([]byte) ([]T, bool), encode func([]T) []byte, rowsPerCell int) []byte {
	rows, ok := decode(blob)
	if !ok || len(rows) != rowsPerCell {
		t.Fatalf("real blob decodes=%v to %d rows, want %d", ok, len(rows), rowsPerCell)
	}
	if !bytes.Equal(encode(rows), blob) {
		t.Fatal("real blob does not re-encode to itself")
	}
	gobBlob, viaGob := gobRoundTrip(t, rows)
	// Comparing encodings compares every float bit for bit (NaN too).
	if !bytes.Equal(encode(viaGob), blob) {
		t.Fatalf("rows differ from their gob round-trip:\n%+v\n%+v", rows, viaGob)
	}
	if _, ok := decode(gobBlob); ok {
		t.Fatal("a gob blob of the rows decoded")
	}
	for l := range blob {
		if _, ok := decode(blob[:l]); ok {
			t.Fatalf("truncation to %d of %d bytes decoded", l, len(blob))
		}
	}
	return gobBlob
}

// TestRowCodecServedTypes runs codecChecks on every real blob of every
// row type the registry serves, and sends each blob's gob encoding —
// what a parent-format disk tier or an older peer holds — through
// Collect, where it must be an uncached, recomputed and re-put miss.
func TestRowCodecServedTypes(t *testing.T) {
	for i, blobs := range realRowBlobs(t) {
		kind := rowKinds[i]
		t.Run(kind.artifact, func(t *testing.T) {
			for _, blob := range blobs {
				kind.check(t, kind.codec(t, blob))
			}
		})
	}
}

// allKinds has a field of every supported kind, a named string type
// among them.
type allKinds struct {
	Family graph.Family
	Label  string
	On     bool
	N      int
	Ticks  int64
	V      float64
}

// TestRowCodecExactValues: float bits (±Inf, NaN payloads, −0,
// subnormals), integer extremes, and empty, unicode and non-UTF-8
// strings survive bit for bit. They agree with gob's round-trip but
// for −0: gob omits a field equal to zero, so −0 came back as +0.
func TestRowCodecExactValues(t *testing.T) {
	floats := []float64{
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8_0000_0000_0001), // quiet NaN with a payload
		math.Float64frombits(0xfff0_0000_0000_0001), // negative signalling NaN
		math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64,                 // smallest subnormal
		math.Float64frombits(0x000f_ffff_ffff_ffff), // largest subnormal
		math.MaxFloat64, -1.5,
	}
	strs := []string{"", "ñandú ∑ 🙂", "\x00\xff\xfe", "path"}
	ints := []int64{0, -1, 1, 63, -64, 64, math.MaxInt64, math.MinInt64}
	var rows []allKinds
	for i, f := range floats {
		n := ints[i%len(ints)]
		rows = append(rows, allKinds{
			Family: graph.Family(strs[(i+1)%len(strs)]), Label: strs[i%len(strs)],
			On: i%2 == 1, N: int(n), Ticks: -n, V: f,
		})
	}
	blob, err := runner.EncodeRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	back, err := runner.DecodeRows[allKinds](blob)
	if err != nil {
		t.Fatal(err)
	}
	_, viaGob := gobRoundTrip(t, rows)
	for i := range rows {
		for name, got := range map[string]allKinds{"codec": back[i], "gob": viaGob[i]} {
			w, g := rows[i], got
			if name == "gob" && w.V == 0 {
				w.V = 0 // +0
			}
			if math.Float64bits(g.V) != math.Float64bits(w.V) {
				t.Errorf("%s row %d: float bits %#x, want %#x", name, i, math.Float64bits(g.V), math.Float64bits(w.V))
			}
			w.V, g.V = 0, 0
			if g != w {
				t.Errorf("%s row %d: %+v, want %+v", name, i, g, w)
			}
		}
	}
	if re, _ := runner.EncodeRows(back); !bytes.Equal(re, blob) {
		t.Fatal("decoded rows do not re-encode to the blob")
	}
}

// TestRowCodecRejectsSchemaChange: rows stored under another row
// schema are a miss. gob matched fields by name, so a renamed field
// decoded as zero; the fingerprint rejects renamed, retyped, reordered,
// dropped and added fields alike.
func TestRowCodecRejectsSchemaChange(t *testing.T) {
	type stored struct {
		Family graph.Family
		Rounds int
	}
	blob, err := runner.EncodeRows([]stored{{"path", 7}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.DecodeRows[stored](blob); err != nil {
		t.Fatalf("the stored schema itself: %v", err)
	}
	type renamed struct {
		Family    graph.Family
		RoundsNew int
	}
	type retyped struct {
		Family graph.Family
		Rounds int64
	}
	type reordered struct {
		Rounds int
		Family graph.Family
	}
	type dropped struct{ Family graph.Family }
	type added struct {
		Family graph.Family
		Rounds int
		Extra  bool
	}
	for name, err := range map[string]error{
		"renamed":   decodeErr[renamed](blob),
		"retyped":   decodeErr[retyped](blob),
		"reordered": decodeErr[reordered](blob),
		"dropped":   decodeErr[dropped](blob),
		"added":     decodeErr[added](blob),
	} {
		if err == nil {
			t.Errorf("a %s field decoded", name)
		}
	}
}

func decodeErr[T any](blob []byte) error {
	_, err := runner.DecodeRows[T](blob)
	return err
}

// TestRowCodecRejectsMalformed: each header or field encoding that
// encodeRows never writes is rejected, and a blob claiming 2^40 rows
// is rejected before anything is sized by its count.
func TestRowCodecRejectsMalformed(t *testing.T) {
	type row struct {
		On bool
		N  int
	}
	good, err := runner.EncodeRows([]row{{true, 300}})
	if err != nil {
		t.Fatal(err)
	}
	head := good[:9] // magic byte and fingerprint
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for name, blob := range map[string][]byte{
		"wrong magic":              cat([]byte{good[0] ^ 1}, good[1:]),
		"wrong fingerprint":        cat(good[:1], []byte{good[1] ^ 1}, good[2:]),
		"header only":              head,
		"non-minimal count":        cat(head, []byte{0x81, 0x00}, good[10:]),
		"non-minimal int":          cat(head, []byte{1, 1, 0xd8, 0x84, 0x00}),
		"bool byte 2":              cat(head, []byte{1, 2}, good[11:]),
		"count beyond the bytes":   cat(head, []byte{2}, good[10:]),
		"varint beyond 64 bits":    cat(head, []byte{1, 1}, bytes.Repeat([]byte{0xff}, 10), []byte{0x01}),
		"trailing byte":            cat(good, []byte{0}),
		"row cut inside the field": good[:len(good)-1],
	} {
		if _, err := runner.DecodeRows[row](blob); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	if _, err := runner.DecodeRows[row](cat(head, []byte{1, 1, 0xd8, 0x04})); err != nil {
		t.Fatalf("the minimal form of the non-minimal int: %v", err)
	}

	type strRow struct{ S string }
	sgood, err := runner.EncodeRows([]strRow{{"abc"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.DecodeRows[strRow](cat(sgood[:10], []byte{9}, []byte("abc"))); err == nil {
		t.Error("a string length past the end decoded")
	}

	huge := binary.AppendUvarint(bytes.Clone(head), 1<<40)
	huge = append(huge, good[10:]...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = runner.DecodeRows[row](huge)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a blob claiming 2^40 rows decoded")
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 64<<10 {
		t.Fatalf("rejecting a blob claiming 2^40 rows allocated %d bytes", b)
	}
}
