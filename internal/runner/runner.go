// Package runner is the concurrent scenario-sweep engine behind the
// experiment harness. A Scenario declares a sweep grid — graph family ×
// instance size × base seed × extra parameter points, together with the
// HYBRID model variant to instantiate and the measurement to run on each
// cell — and a Runner fans the independent cells out over a fixed-size
// worker pool.
//
// Determinism is the core contract: every random choice inside a cell is
// seeded from the cell's own coordinates (scenario name, family, n, base
// seed, point label) via DeriveSeed, never from execution order or a
// shared rng. Collect therefore returns byte-identical results whether
// the sweep runs on one worker or GOMAXPROCS workers, and a sweep can be
// re-run cell-by-cell to reproduce any single row.
package runner

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strconv"

	"repro/internal/graph"
	"repro/internal/hybrid"
)

// Point is one setting of a scenario's sweep axes beyond the
// family × n × seed grid: the workload k, the target count ℓ, the
// approximation parameter ε, the source exponent β (k = n^β), or the
// global-capacity factor γ/⌈log n⌉. Label must identify the point
// uniquely within its scenario — it feeds the per-cell seed derivation.
type Point struct {
	Label     string
	K, L      int
	Eps, Beta float64
	CapFactor int
}

// PointK labels a workload-size point.
func PointK(k int) Point { return Point{Label: "k=" + strconv.Itoa(k), K: k} }

// PointEps labels an approximation-parameter point.
func PointEps(eps float64) Point { return Point{Label: "eps=" + formatG(eps), Eps: eps} }

// PointBeta labels a source-exponent point (k = n^β).
func PointBeta(beta float64) Point { return Point{Label: "beta=" + formatG(beta), Beta: beta} }

// PointCap labels a global-capacity point (γ = CapFactor·⌈log₂ n⌉).
func PointCap(cf int) Point { return Point{Label: "cap=" + strconv.Itoa(cf), CapFactor: cf} }

// formatG formats x as fmt's %g does; the labels feed DeriveSeed, so
// they must not change.
func formatG(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// PointsK maps a workload grid to labeled points.
func PointsK(ks []int) []Point {
	out := make([]Point, len(ks))
	for i, k := range ks {
		out[i] = PointK(k)
	}
	return out
}

// PointsEps maps an ε grid to labeled points.
func PointsEps(epss []float64) []Point {
	out := make([]Point, len(epss))
	for i, e := range epss {
		out[i] = PointEps(e)
	}
	return out
}

// PointsBeta maps a β grid to labeled points.
func PointsBeta(betas []float64) []Point {
	out := make([]Point, len(betas))
	for i, b := range betas {
		out[i] = PointBeta(b)
	}
	return out
}

// PointsCap maps a capacity-factor grid to labeled points.
func PointsCap(cfs []int) []Point {
	out := make([]Point, len(cfs))
	for i, cf := range cfs {
		out[i] = PointCap(cf)
	}
	return out
}

// Scenario declares one experiment sweep: the cartesian grid
// Families × Ns × Seeds × Points and the measurement Run to execute on
// each cell. T is the row type the measurement produces; a cell may
// contribute zero, one, or several rows.
//
// Nil axes default to a single neutral value (Seeds to {1}, Points to
// the zero point), so a scenario only names the axes it actually sweeps.
type Scenario[T any] struct {
	Name     string
	Families []graph.Family
	Ns       []int
	Seeds    []int64
	Points   []Point
	// Model is the hybrid.Config template every cell instantiates;
	// Config.Seed is ignored and replaced by the cell's derived seed.
	Model hybrid.Config
	Run   func(c *Cell) ([]T, error)
	// RowsPerCell, when positive, is the number of rows every cell
	// contributes. A cached entry that decodes to another number of
	// rows is a miss, recomputed and re-put; a Run that returns another
	// number fails its cell.
	RowsPerCell int
	// RenderRow, when non-nil, renders one of the cell's rows into its
	// table coordinates — the table name, machine column keys, and
	// formatted values the scenario's table rendering emits for that
	// row. It must be a pure function of the row and the cell
	// coordinates, so a streamed row is byte-identical to the finished
	// document's (DESIGN.md §12). Collect invokes it exactly once per
	// row, with or without an Observer, and hands the result both to
	// CellEvent.Rendered and to its own caller, which builds the
	// finished document from it.
	RenderRow func(c *Cell, row T) RenderedRow
}

// fits reports whether rows is a whole cell's worth (RowsPerCell).
func (sc *Scenario[T]) fits(rows []T) bool {
	return sc.RowsPerCell <= 0 || len(rows) == sc.RowsPerCell
}

// Cell is one unit of sweep work: a single coordinate of the scenario
// grid. Cells derive their own seeds and reach their graph through a
// cache keyed by its topology, so any subset can run concurrently.
type Cell struct {
	Scenario string
	Family   graph.Family
	N        int
	BaseSeed int64
	Point    Point
	// Index is the cell's position in the canonical expansion order
	// (families outermost, then sizes, seeds, points).
	Index int
	// Transcripts is the table through which the cell's networks
	// share their deterministic phases (DESIGN.md §1): NewNet hands it
	// to every network it builds. Collect gives a cell a fresh table
	// while it runs and drops it afterwards, so no transcript outlives
	// its cell; nil runs every phase on every network.
	Transcripts *hybrid.Transcripts

	model    hybrid.Config
	graphs   *GraphCache   // the expansion's own, or Runner.Graphs
	profiles *ProfileCache // the expansion's own, or Runner.Profiles
}

func (c *Cell) String() string {
	s := fmt.Sprintf("%s/%s/n=%d/seed=%d", c.Scenario, c.Family, c.N, c.BaseSeed)
	if c.Point.Label != "" {
		s += "/" + c.Point.Label
	}
	return s
}

// DeriveSeed hashes the cell's coordinates plus the given labels into a
// deterministic positive 63-bit seed. Distinct label lists give
// independent streams; the result never depends on which worker runs
// the cell or in what order.
func (c *Cell) DeriveSeed(labels ...string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	put(c.Scenario)
	put(string(c.Family))
	binary.LittleEndian.PutUint64(buf[:], uint64(c.N))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(c.BaseSeed))
	h.Write(buf[:])
	for _, l := range labels {
		put(l)
	}
	// splitmix64 finalizer for avalanche over the FNV state.
	z := h.Sum64()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	seed := int64(z &^ (1 << 63))
	if seed == 0 {
		seed = 1
	}
	return seed
}

// Seed is the cell's default derived seed; it depends on every cell
// coordinate including the point label.
func (c *Cell) Seed() int64 { return c.DeriveSeed("cell", c.Point.Label) }

// GraphSeed depends on the family, size and base seed but not on the
// point, so every point of a sweep measures the same randomized graph
// instance.
func (c *Cell) GraphSeed() int64 { return c.DeriveSeed("graph") }

// Rng returns a fresh point-dependent random stream for the cell.
func (c *Cell) Rng() *rand.Rand { return rand.New(rand.NewSource(c.Seed())) }

// BuildGraph returns the cell's graph instance for GraphSeed: the
// shared instance every cell of the same topology (GraphKey) sees,
// built once per cache — Runner.Graphs when Collect has one, else the
// memory-only cache the cells of one Cells expansion share. The
// instance is identical to a per-cell graph.Build and immutable;
// derive weight variants with Reweight.
func (c *Cell) BuildGraph() (*graph.Graph, error) {
	return c.graphs.Get(c.Family, c.N, c.GraphSeed())
}

// BallProfiles returns the shared ball-profile artifact of the cell's
// graph (which must be the instance BuildGraph returned), memoizing it
// on g so every NQ query against the instance answers from the profile
// (DESIGN.md §10). The artifact is computed once per distinct
// topology (ProfileKey) per cache — Runner.Profiles when Collect has
// one, else the expansion's memory-only cache — and the values any
// k-point reads are identical to a per-cell computation.
func (c *Cell) BallProfiles(g *graph.Graph) *graph.Profiles {
	return c.profiles.Attach(g, c.Family, c.N, c.GraphSeed())
}

// Config returns the cell's model configuration: the scenario template
// with the derived cell seed, and Point.CapFactor applied when set.
func (c *Cell) Config() hybrid.Config {
	cfg := c.model
	cfg.Seed = c.Seed()
	if c.Point.CapFactor > 0 {
		cfg.CapFactor = c.Point.CapFactor
	}
	return cfg
}

// NewNet builds a fresh network over g under the cell's model config
// with the given seed — pass successive values of a Rng() stream when a
// cell measures several independent executions. The network replays
// what a sibling already recorded in the cell's Transcripts, with
// rounds and outputs identical to running it.
func (c *Cell) NewNet(g *graph.Graph, seed int64) (*hybrid.Net, error) {
	cfg := c.Config()
	cfg.Seed = seed
	return hybrid.NewWith(g, cfg, c.Transcripts)
}

// Cells expands the scenario grid in canonical order: families
// outermost, then sizes, base seeds, and points innermost. The cells
// share one memory-only GraphCache and ProfileCache, so the points of
// a topology measure one instance (DESIGN.md §9).
func Cells[T any](sc *Scenario[T]) []Cell {
	families := sc.Families
	if len(families) == 0 {
		families = []graph.Family{""}
	}
	ns := sc.Ns
	if len(ns) == 0 {
		ns = []int{0}
	}
	seeds := sc.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	points := sc.Points
	if len(points) == 0 {
		points = []Point{{}}
	}
	graphs, profiles := NewGraphCache(nil, 0), NewProfileCache(nil, 0)
	cells := make([]Cell, 0, len(families)*len(ns)*len(seeds)*len(points))
	for _, fam := range families {
		for _, n := range ns {
			for _, seed := range seeds {
				for _, pt := range points {
					cells = append(cells, Cell{
						Scenario: sc.Name,
						Family:   fam,
						N:        n,
						BaseSeed: seed,
						Point:    pt,
						Index:    len(cells),
						model:    sc.Model,
						graphs:   graphs,
						profiles: profiles,
					})
				}
			}
		}
	}
	return cells
}

// Runner fans independent sweep cells out over a fixed-size worker pool.
type Runner struct {
	// Workers sizes the pool Collect starts for one call when Pool is
	// nil (capped at the call's pending cells); values ≤ 0 mean
	// GOMAXPROCS. Ignored when Pool is set.
	Workers int
	// Pool, when non-nil, is a shared worker pool the sweep's cells are
	// submitted to instead of a per-call one; concurrent sweeps on one
	// Pool are scheduled fairly per sweep.
	Pool *Pool
	// Cache, when non-nil, is consulted before any cell is dispatched:
	// cells whose content address (Cell.CacheKey) resolves decode their
	// rows from the cache and bypass the worker pool entirely, and
	// freshly computed cells are stored back. Because cell rows are a
	// pure function of the cache key, cached sweeps render
	// byte-identically to cold ones (DESIGN.md §7).
	Cache CellCache
	// CacheVersion is the code-version component of the cache key;
	// empty means CodeVersion.
	CacheVersion string
	// Graphs, when non-nil, replaces the memory-only topology cache a
	// Collect call otherwise gives its cells: each distinct topology
	// (GraphKey: the seed counts only for seeded families) is then
	// built once across scenarios, sweeps and Pool tenants, and
	// restored instead of rebuilt when the cache persists through the
	// artifact store (DESIGN.md §9). Rows are unchanged — the shared
	// instance is byte-identical to a per-cell build.
	Graphs *GraphCache
	// Profiles, when non-nil, likewise replaces the call's memory-only
	// cache of the ball-profile artifacts that Cell.BallProfiles serves
	// (DESIGN.md §10), so each profile asked for that way is computed
	// once across sweeps — and zero times on resubmission when the
	// cache persists. Only the nqscaling sweeps ask that way. An NQ
	// query on a graph without a profile grows one itself (nq's
	// ensureProfiles), outside this cache: no singleflight, no
	// persistence, not counted. Rows are unchanged either way —
	// profile-served NQ values are identical to per-cell ball growth.
	Profiles *ProfileCache
	// Observer, when non-nil, receives one CellEvent per cell (from
	// worker goroutines; it must be safe for concurrent use).
	Observer CellObserver
}

// Serial returns a single-worker runner.
func Serial() *Runner { return &Runner{Workers: 1} }

// Parallel returns a GOMAXPROCS-sized runner.
func Parallel() *Runner { return &Runner{} }

func (r *Runner) observe(ev CellEvent) {
	if r.Observer != nil {
		r.Observer(ev)
	}
}

// Collect runs every cell of the scenario on r's pool — r.Pool, or a
// pool of r.Workers started for this call — and returns the rows
// concatenated in canonical cell order; a nil r means Parallel(). The
// output is independent of the worker count; on failure the error of
// the lowest-indexed failing cell is returned.
//
// When the scenario has a RenderRow hook, each row is rendered once, as
// its cell resolves: the second result holds the rendered rows aligned
// with the first, and each CellEvent.Rendered is the cell's slice of
// them. Without the hook the second result is nil.
//
// With r.Cache set, each cell's content address is looked up first:
// hits decode their rows from the cache and never reach the worker
// pool, misses run and are stored back. Either way r.Observer sees one
// event per cell.
func Collect[T any](r *Runner, sc *Scenario[T]) ([]T, []RenderedRow, error) {
	if sc.Run == nil {
		return nil, nil, fmt.Errorf("runner: scenario %q has no Run function", sc.Name)
	}
	if r == nil {
		r = Parallel()
	}
	cells := Cells(sc)
	for i := range cells {
		if r.Graphs != nil {
			cells[i].graphs = r.Graphs
		}
		if r.Profiles != nil {
			cells[i].profiles = r.Profiles
		}
	}
	results := make([][]T, len(cells))
	rendered := make([][]RenderedRow, len(cells))
	errs := make([]error, len(cells))

	// render materializes cell i's rows in table coordinates, for the
	// observer's event (streaming delivery, DESIGN.md §12) and for the
	// caller's finished document alike.
	render := func(i int) []RenderedRow {
		rows := results[i]
		if sc.RenderRow == nil || len(rows) == 0 {
			return nil
		}
		out := make([]RenderedRow, len(rows))
		for j := range rows {
			out[j] = sc.RenderRow(&cells[i], rows[j])
		}
		rendered[i] = out
		return out
	}

	// Cache-lookup pass: resolve hits up front so only misses are
	// dispatched.
	cache := r.Cache
	var keys []string
	pending := make([]int, 0, len(cells))
	if cache != nil {
		version := r.CacheVersion
		if version == "" {
			version = CodeVersion
		}
		keys = make([]string, len(cells))
		for i := range cells {
			keys[i] = cells[i].CacheKey(version)
			if blob, ok := cache.Get(keys[i]); ok {
				if rows, err := decodeRows[T](blob); err == nil && sc.fits(rows) {
					results[i] = rows
					r.observe(CellEvent{Cell: &cells[i], Total: len(cells), Key: keys[i], Cached: true,
						Rows: len(rows), Rendered: render(i)})
					continue
				}
				// An undecodable entry (e.g. written by an older row
				// schema under a stale version string), or one with the
				// wrong number of rows, is a miss.
				reject(cache)
			}
			pending = append(pending, i)
		}
	} else {
		for i := range cells {
			pending = append(pending, i)
		}
	}

	runCell := func(i int) {
		cells[i].Transcripts = new(hybrid.Transcripts)
		defer func() { cells[i].Transcripts = nil }()
		results[i], errs[i] = sc.Run(&cells[i])
		if errs[i] == nil && !sc.fits(results[i]) {
			errs[i] = fmt.Errorf("%d rows, want %d", len(results[i]), sc.RowsPerCell)
		}
		ev := CellEvent{Cell: &cells[i], Total: len(cells), Rows: len(results[i]), Err: errs[i]}
		if errs[i] == nil {
			ev.Rendered = render(i)
		}
		if cache != nil {
			ev.Key = keys[i]
			if errs[i] == nil {
				if blob, err := encodeRows(results[i]); err == nil {
					cache.Put(keys[i], blob)
				}
			}
		}
		r.observe(ev)
	}

	if len(pending) > 0 {
		tasks := make([]func(), len(pending))
		for j, i := range pending {
			tasks[j] = func() { runCell(i) }
		}
		pool := r.Pool
		if pool == nil {
			workers := r.Workers
			if workers <= 0 {
				workers = runtime.GOMAXPROCS(0)
			}
			pool = NewPool(min(workers, len(tasks)))
			defer pool.Close()
		}
		if err := pool.Run(tasks); err != nil {
			return nil, nil, fmt.Errorf("runner: scenario %q: %w", sc.Name, err)
		}
	}
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("runner: cell %s: %w", cells[i].String(), err)
		}
	}
	total := 0
	for _, rows := range results {
		total += len(rows)
	}
	out := make([]T, 0, total)
	for _, rows := range results {
		out = append(out, rows...)
	}
	if sc.RenderRow == nil {
		return out, nil, nil
	}
	flat := make([]RenderedRow, 0, total)
	for _, rows := range rendered {
		flat = append(flat, rows...)
	}
	return out, flat, nil
}
