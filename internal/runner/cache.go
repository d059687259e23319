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
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"

	"repro/internal/graph"
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
// store of encoded cell rows. Implementations must be safe for
// concurrent use; hybridnet.Server provides the production one, a view
// of the "results" namespace of an internal/artifact store.
// Values handed to Put and returned by Get are treated as immutable.
type CellCache interface {
	// Get returns the encoded rows stored under key, if any.
	Get(key string) ([]byte, bool)
	// Put stores the encoded rows of one cell under key.
	Put(key string, value []byte)
}

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
	// scenario declares a RenderRow hook and the runner has an
	// observer (nil otherwise) — the payload streaming consumers
	// forward as the cell resolves (DESIGN.md §12).
	Rendered []RenderedRow
	// Err is the cell's failure, if any.
	Err error
}

// CellObserver receives one event per cell. Observers are called from
// worker goroutines and must be safe for concurrent use.
type CellObserver func(ev CellEvent)

// CacheKey returns the cell's content address: a canonical SHA-256 hash
// of the cell coordinates (scenario, family, n, base seed, every Point
// field), the fully resolved model configuration, and the given code
// version. The Go-syntax rendering of Point and hybrid.Config keeps the
// serialization canonical while automatically covering fields added to
// either struct later.
func (c *Cell) CacheKey(version string) string {
	h := sha256.New()
	fmt.Fprintf(h, "version=%s\x00scenario=%s\x00family=%s\x00n=%d\x00seed=%d\x00point=%#v\x00config=%#v",
		version, c.Scenario, c.Family, c.N, c.BaseSeed, c.Point, c.Config())
	return hex.EncodeToString(h.Sum(nil))
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

// encodeRows serializes one cell's rows for the cache. Gob round-trips
// every numeric value exactly (floats are stored as their IEEE-754
// bits, so ±Inf and NaN survive), which is what makes a cache-hit sweep
// byte-identical to a cold one after rendering.
func encodeRows[T any](rows []T) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rows); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeRows is the inverse of encodeRows. A failure is treated by
// Collect as a cache miss, never as a sweep error.
func decodeRows[T any](blob []byte) ([]T, error) {
	var rows []T
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&rows); err != nil {
		return nil, err
	}
	return rows, nil
}
