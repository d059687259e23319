package runner_test

// FuzzDecodeRows hardens the cell-row cache against the bytes it reads
// back from the disk tier or from a peer (whose sha256 only proves the
// blob is the one the peer advertised). For each row type the registry
// serves, a blob under a cell's key must either decode to exactly the
// scenario's RowsPerCell rows and be served as cached, or be a counted
// miss — the cell is reported uncached, recomputed and re-put — and
// never a panic or a sweep error, and a blob that decodes re-encodes to
// itself. The corpus is seeded with real row blobs of the default
// report scenarios, nqscaling-large and robustness, plus copies of them
// holding too few or too many rows.

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/runner"
)

// captureCache records every row blob a sweep puts and serves none.
type captureCache struct {
	mu    sync.Mutex
	blobs [][]byte
}

func (c *captureCache) Get(string) ([]byte, bool) { return nil, false }

func (c *captureCache) Put(_ string, blob []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.blobs = append(c.blobs, blob)
}

// fixedCache serves one blob under every key and counts the re-puts.
type fixedCache struct {
	blob []byte
	puts atomic.Int64
}

func (c *fixedCache) Get(string) ([]byte, bool) { return c.blob, true }

func (c *fixedCache) Put(string, []byte) { c.puts.Add(1) }

// rowKind is one row type the registry serves: the artifact whose rows
// seed its corpus, the check a blob must pass, the blobs with a wrong
// row count derived from a real one, and codecChecks on a real blob.
type rowKind struct {
	artifact    string
	check       func(t *testing.T, blob []byte)
	wrongCounts func(blob []byte) [][]byte
	codec       func(t *testing.T, blob []byte) (gobBlob []byte)
}

func kindOf[T any](artifact string, rowsPerCell int) rowKind {
	decode := func(blob []byte) ([]T, bool) {
		rows, err := runner.DecodeRows[T](blob)
		return rows, err == nil
	}
	encode := func(rows []T) []byte {
		blob, err := runner.EncodeRows(rows)
		if err != nil {
			panic(err)
		}
		return blob
	}
	return rowKind{
		artifact: artifact,
		check: func(t *testing.T, blob []byte) {
			stub := make([]T, rowsPerCell)
			sc := &runner.Scenario[T]{
				Name:        "fuzz-" + artifact,
				Families:    []graph.Family{graph.FamilyPath},
				Ns:          []int{4},
				RowsPerCell: rowsPerCell,
				Run:         func(*runner.Cell) ([]T, error) { return stub, nil },
			}
			cache := &fixedCache{blob: blob}
			var cached atomic.Bool
			r := &runner.Runner{Workers: 1, Cache: cache, Observer: func(ev runner.CellEvent) { cached.Store(ev.Cached) }}
			rows, _, err := runner.Collect(r, sc)
			if err != nil {
				t.Fatalf("a cached blob failed the sweep: %v", err)
			}
			if len(rows) != rowsPerCell {
				t.Fatalf("the cell contributed %d rows, want %d", len(rows), rowsPerCell)
			}
			ref, ok := decode(blob)
			if ok && !bytes.Equal(encode(ref), blob) {
				t.Fatalf("an accepted blob does not re-encode to itself:\n% x\n% x", blob, encode(ref))
			}
			fits := ok && len(ref) == rowsPerCell
			if cached.Load() != fits {
				t.Fatalf("cell served as cached=%v, but the blob decodes=%v to %d rows (want %d)", cached.Load(), ok, len(ref), rowsPerCell)
			}
			wantPuts := int64(1) // a miss is recomputed and re-put
			if fits {
				wantPuts = 0
			}
			if cache.puts.Load() != wantPuts {
				t.Fatalf("%d re-puts, want %d", cache.puts.Load(), wantPuts)
			}
		},
		wrongCounts: func(blob []byte) [][]byte {
			rows, ok := decode(blob)
			if !ok {
				return nil
			}
			return [][]byte{encode(rows[:0]), encode(append(rows, rows...))}
		},
		codec: func(t *testing.T, blob []byte) []byte {
			return codecChecks(t, blob, decode, encode, rowsPerCell)
		},
	}
}

var rowKinds = []rowKind{
	kindOf[experiments.NQScalingRow]("nq", 1),
	kindOf[experiments.Table1Row]("table1", 1),
	kindOf[experiments.Table2Row]("table2", 1),
	kindOf[experiments.Table3Row]("table3", 1),
	kindOf[experiments.Table4Row]("table4", 1),
	kindOf[experiments.Figure1Point]("figure1", 1),
	kindOf[experiments.NQScalingRow]("nqscaling-large", 1),
	kindOf[experiments.RobustnessRow]("robustness", 3),
}

// realRowBlobs returns, per rowKinds entry, the row blobs a sweep of
// its artifact at n = 32 over path and grid2d puts, in put order.
func realRowBlobs(tb testing.TB) [][][]byte {
	tb.Helper()
	cfg := experiments.ReportConfig{N: 32, Families: []graph.Family{graph.FamilyPath, graph.FamilyGrid2D}}
	var out [][][]byte
	for _, kind := range rowKinds {
		cache := &captureCache{}
		if _, err := experiments.Generate(kind.artifact, cfg, &runner.Runner{Workers: 1, Cache: cache}); err != nil {
			tb.Fatalf("%s: %v", kind.artifact, err)
		}
		if len(cache.blobs) == 0 {
			tb.Fatalf("%s: the sweep put no rows", kind.artifact)
		}
		out = append(out, cache.blobs)
	}
	return out
}

func FuzzDecodeRows(f *testing.F) {
	for i, blobs := range realRowBlobs(f) {
		for _, blob := range blobs {
			f.Add(uint8(i), blob)
		}
		for _, blob := range rowKinds[i].wrongCounts(blobs[0]) {
			f.Add(uint8(i), blob)
		}
		f.Add(uint8(i), blobs[0][:len(blobs[0])/2])
	}
	f.Add(uint8(0), []byte{})

	f.Fuzz(func(t *testing.T, kind uint8, blob []byte) {
		rowKinds[int(kind)%len(rowKinds)].check(t, blob)
	})
}
