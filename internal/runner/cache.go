package runner

// Cell-level result caching. Because every random choice inside a cell
// is derived from the cell's own coordinates (see the package comment),
// a cell's rows are a pure function of (coordinates, model config, code
// version) — which makes them content-addressable: CacheKey hashes
// exactly those inputs, and a CellCache keyed by it returns rows that
// are semantically identical to a fresh run. DESIGN.md §7 spells out
// the determinism argument and why the code version must be part of
// the key.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sync"

	"repro/internal/graph"
	"repro/internal/hybrid"
)

// CodeVersion identifies the measurement semantics of the simulation
// code for cache addressing. It MUST be bumped whenever a change
// anywhere under internal/ can alter the rows a cell produces
// (algorithm behaviour, seed derivation, graph generators, baseline
// formulas, …): two binaries with different measurement semantics must
// never share cache entries, and a persistent cache tier outlives the
// binary that wrote it.
const CodeVersion = "2026-07-repro-3"

// CellCache is the runner's cache-lookup hook: a content-addressed
// store of encoded cell rows, under the same contract as the
// derived-artifact caches' BlobStore. hybridnet.Server provides the
// production one, a view of the "results" namespace of an
// internal/artifact store.
type CellCache = BlobStore

// CellEvent reports the outcome of one cell of a sweep to an observer.
type CellEvent struct {
	// Cell is the finished (or cache-served) cell.
	Cell *Cell
	// Total is the number of cells in the sweep's canonical expansion;
	// Cell.Index ranges over [0, Total).
	Total int
	// Key is the cell's cache key; empty when the runner has no cache.
	Key string
	// Cached reports that the rows came from the cache and the cell
	// bypassed the worker pool entirely.
	Cached bool
	// Rows is the number of rows the cell contributed.
	Rows int
	// Rendered holds the cell's rows in table coordinates when the
	// scenario declares a RenderRow hook (nil otherwise) — the payload
	// streaming consumers forward as the cell resolves (DESIGN.md §12).
	// They are the very rows Collect returns to its caller, rendered
	// once: the strings are shared with the finished document.
	Rendered []RenderedRow
	// Err is the cell's failure, if any.
	Err error
}

// CellObserver receives one event per cell. Observers are called from
// worker goroutines and must be safe for concurrent use.
type CellObserver func(ev CellEvent)

// CacheKey returns the cell's content address: the SHA-256 of the
// cell coordinates (scenario, family, n, base seed, every Point
// field), the fully resolved model configuration, and the given code
// version. The hashed bytes are the version, scenario and family, each
// prefixed with its uvarint length; n and the base seed as varints; then
// Point and the resolved hybrid.Config, each as a one-row blob of the
// cell-row codec below. A blob's fingerprint covers its type's field
// names, kinds and order, so a field added to either struct later
// changes every key (DESIGN.md §7).
func (c *Cell) CacheKey(version string) string { return c.key(version, c.Config()) }

// key is CacheKey under the resolved model configuration cfg.
func (c *Cell) key(version string, cfg hybrid.Config) string {
	if pointPlan.err != nil {
		panic(pointPlan.err)
	}
	if configPlan.err != nil {
		panic(configPlan.err)
	}
	var scratch [256]byte
	b := appendLenString(scratch[:0], version)
	b = appendLenString(b, c.Scenario)
	b = appendLenString(b, string(c.Family))
	b = binary.AppendVarint(b, int64(c.N))
	b = binary.AppendVarint(b, c.BaseSeed)
	b = pointPlan.appendBlob(b, reflect.ValueOf(&c.Point).Elem())
	b = configPlan.appendBlob(b, reflect.ValueOf(&cfg).Elem())
	sum := sha256.Sum256(b)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// The row plans of the two structs a cache key serializes. Both are
// valid (TestCacheKeyPlans); CacheKey panics if a field of a kind the
// codec cannot write is ever added.
var (
	pointPlan  = planOf(reflect.TypeFor[Point]())
	configPlan = planOf(reflect.TypeFor[hybrid.Config]())
)

// appendLenString appends s prefixed with its uvarint length.
func appendLenString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// SweepID returns the content address of a whole sweep request — the
// stable identifier the sweep service keys submissions by, so identical
// requests (same code version, scenario, family axis, size and seed)
// resolve to the same sweep.
func SweepID(version, scenario string, families []graph.Family, n int, seed int64) string {
	h := sha256.New()
	fmt.Fprintf(h, "version=%s\x00scenario=%s\x00n=%d\x00seed=%d", version, scenario, n, seed)
	for _, f := range families {
		fmt.Fprintf(h, "\x00family=%s", f)
	}
	return "sw-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// The cell-row codec. A blob is
//
//	rowsMagic | fingerprint u64 (little-endian) | uvarint row count | rows
//
// and each row is its struct's fields in declaration order: int and
// int64 as zigzag varints, float64 as its IEEE-754 bits (8 bytes,
// little-endian, so ±Inf, NaN payloads and −0 survive), string (named
// string types included) as a uvarint length and the bytes, bool as
// one byte 0 or 1. The fingerprint hashes the field names, kinds and
// order, so rows stored under another schema (a renamed, retyped or
// reordered field) fail to decode and are a miss, never rows with a
// field silently zeroed. The decoder accepts only what encodeRows
// writes — minimal varints, no trailing bytes — so an accepted blob
// re-encodes to itself.

// rowsMagic is the blob's first byte: the format, and a guard against
// entries written by another codec. A gob stream, which this cache
// stored before, never starts with it: gob writes a length either as one
// byte below 0x80 or as a negated byte count from 0xf8 up.
const rowsMagic = 0xc7

// rowsHeader is the magic byte plus the fingerprint.
const rowsHeader = 1 + 8

// rowPlan is the codec's view of one row type, built once per type by
// planOf: the kind of each field, in declaration order.
type rowPlan struct {
	kinds       []reflect.Kind
	fingerprint uint64
	// minRow is the fewest bytes one encoded row takes, which bounds
	// the row count a blob of a given length can claim.
	minRow int
	err    error
}

// rowPlans caches a *rowPlan per reflect.Type.
var rowPlans sync.Map

// planOf returns the row plan of t, building it on first use. For a
// type that is not a struct, has no fields, or has an unexported field
// or a field of any kind but bool, int, int64, float64 and string, the
// plan holds an error, and encodeRows and decodeRows fail with it.
func planOf(t reflect.Type) *rowPlan {
	if p, ok := rowPlans.Load(t); ok {
		return p.(*rowPlan)
	}
	p, _ := rowPlans.LoadOrStore(t, buildPlan(t))
	return p.(*rowPlan)
}

func buildPlan(t reflect.Type) *rowPlan {
	if t.Kind() != reflect.Struct || t.NumField() == 0 {
		return &rowPlan{err: fmt.Errorf("runner: row type %v is not a struct with fields", t)}
	}
	p := &rowPlan{kinds: make([]reflect.Kind, t.NumField())}
	h := fnv.New64a()
	for i := range p.kinds {
		f := t.Field(i)
		if !f.IsExported() {
			return &rowPlan{err: fmt.Errorf("runner: row type %v: unexported field %s", t, f.Name)}
		}
		k := f.Type.Kind()
		switch k {
		case reflect.Bool, reflect.Int, reflect.Int64, reflect.String:
			p.minRow++
		case reflect.Float64:
			p.minRow += 8
		default:
			return &rowPlan{err: fmt.Errorf("runner: row type %v: field %s has unsupported kind %v", t, f.Name, k)}
		}
		p.kinds[i] = k
		fmt.Fprintf(h, "%s %v;", f.Name, k)
	}
	p.fingerprint = h.Sum64()
	return p
}

// encodeRows serializes one cell's rows for the cache in the cell-row
// codec above. It round-trips every value exactly, which is what makes
// a cache-hit sweep byte-identical to a cold one after rendering.
func encodeRows[T any](rows []T) ([]byte, error) {
	p := planOf(reflect.TypeFor[T]())
	if p.err != nil {
		return nil, p.err
	}
	buf := make([]byte, 0, rowsHeader+binary.MaxVarintLen64+2*p.minRow*len(rows))
	buf = p.appendHeader(buf, len(rows))
	for i := range rows {
		buf = p.appendRow(buf, reflect.ValueOf(&rows[i]).Elem())
	}
	return buf, nil
}

// appendHeader appends a blob's magic byte, fingerprint and row count.
func (p *rowPlan) appendHeader(b []byte, count int) []byte {
	b = append(b, rowsMagic)
	b = binary.LittleEndian.AppendUint64(b, p.fingerprint)
	return binary.AppendUvarint(b, uint64(count))
}

// appendBlob appends the one-row blob of v, a value of the plan's type.
func (p *rowPlan) appendBlob(b []byte, v reflect.Value) []byte {
	return p.appendRow(p.appendHeader(b, 1), v)
}

// appendRow appends the fields of v, a value of the plan's type.
func (p *rowPlan) appendRow(b []byte, v reflect.Value) []byte {
	for j, k := range p.kinds {
		fv := v.Field(j)
		switch k {
		case reflect.Bool:
			x := byte(0)
			if fv.Bool() {
				x = 1
			}
			b = append(b, x)
		case reflect.Int, reflect.Int64:
			b = binary.AppendVarint(b, fv.Int())
		case reflect.Float64:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(fv.Float()))
		case reflect.String:
			b = appendLenString(b, fv.String())
		}
	}
	return b
}

// decodeRows is the inverse of encodeRows. It rejects a blob with
// another magic byte or fingerprint, a row count the remaining bytes
// cannot hold, a read past the end, a bool byte other than 0 or 1, an
// int that overflows int, a non-minimal varint or trailing bytes.
// Collect treats a failure as a cache miss, never as a sweep error.
func decodeRows[T any](blob []byte) ([]T, error) {
	p := planOf(reflect.TypeFor[T]())
	if p.err != nil {
		return nil, p.err
	}
	if len(blob) < rowsHeader || blob[0] != rowsMagic {
		return nil, errRowsFormat
	}
	if binary.LittleEndian.Uint64(blob[1:]) != p.fingerprint {
		return nil, errRowsSchema
	}
	r := rowReader{buf: blob[rowsHeader:]}
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.buf)/p.minRow) {
		r.err = errRowsCount
	}
	if r.err != nil {
		return nil, r.err
	}
	rows := make([]T, n)
	for i := range rows {
		v := reflect.ValueOf(&rows[i]).Elem()
		for j, k := range p.kinds {
			fv := v.Field(j)
			switch k {
			case reflect.Bool:
				fv.SetBool(r.bool())
			case reflect.Int:
				x := r.varint()
				if int64(int(x)) != x {
					r.fail(errRowsOverflow)
				}
				fv.SetInt(x)
			case reflect.Int64:
				fv.SetInt(r.varint())
			case reflect.Float64:
				fv.SetFloat(math.Float64frombits(r.uint64()))
			case reflect.String:
				fv.SetString(r.string())
			}
		}
		if r.err != nil {
			return nil, r.err
		}
	}
	if len(r.buf) != 0 {
		return nil, errRowsTrailing
	}
	return rows, nil
}

// DecodeRows is decodeRows for callers outside the package: the root
// allocation guard and the cell-row fuzz test decode blobs with it.
func DecodeRows[T any](blob []byte) ([]T, error) { return decodeRows[T](blob) }

var (
	errRowsFormat   = errors.New("runner: cached rows: not a cell-row blob")
	errRowsSchema   = errors.New("runner: cached rows: row schema fingerprint mismatch")
	errRowsCount    = errors.New("runner: cached rows: row count exceeds the blob")
	errRowsShort    = errors.New("runner: cached rows: truncated")
	errRowsVarint   = errors.New("runner: cached rows: malformed varint")
	errRowsBool     = errors.New("runner: cached rows: bool byte not 0 or 1")
	errRowsOverflow = errors.New("runner: cached rows: int overflows int")
	errRowsTrailing = errors.New("runner: cached rows: trailing bytes")
)

// rowReader consumes a blob's row bytes. The first failure sticks in
// err, and every later read returns a zero value.
type rowReader struct {
	buf []byte
	err error
}

func (r *rowReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.buf = nil
}

// uvarint reads a minimal uvarint: a multi-byte encoding whose last
// byte is zero has a shorter form and is rejected.
func (r *rowReader) uvarint() uint64 {
	x, k := binary.Uvarint(r.buf)
	if k <= 0 || (k > 1 && r.buf[k-1] == 0) {
		if k == 0 {
			r.fail(errRowsShort)
		} else {
			r.fail(errRowsVarint)
		}
		return 0
	}
	r.buf = r.buf[k:]
	return x
}

// varint reads a minimal zigzag varint.
func (r *rowReader) varint() int64 {
	ux := r.uvarint()
	return int64(ux>>1) ^ -int64(ux&1)
}

func (r *rowReader) uint64() uint64 {
	if len(r.buf) < 8 {
		r.fail(errRowsShort)
		return 0
	}
	x := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return x
}

func (r *rowReader) bool() bool {
	if len(r.buf) < 1 {
		r.fail(errRowsShort)
		return false
	}
	b := r.buf[0]
	if b > 1 {
		r.fail(errRowsBool)
		return false
	}
	r.buf = r.buf[1:]
	return b == 1
}

func (r *rowReader) string() string {
	n := r.uvarint()
	if n > uint64(len(r.buf)) {
		r.fail(errRowsShort)
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}
