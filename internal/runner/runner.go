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
	"sync"

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
func PointK(k int) Point { return Point{Label: fmt.Sprintf("k=%d", k), K: k} }

// PointEps labels an approximation-parameter point.
func PointEps(eps float64) Point { return Point{Label: fmt.Sprintf("eps=%g", eps), Eps: eps} }

// PointBeta labels a source-exponent point (k = n^β).
func PointBeta(beta float64) Point { return Point{Label: fmt.Sprintf("beta=%g", beta), Beta: beta} }

// PointCap labels a global-capacity point (γ = CapFactor·⌈log₂ n⌉).
func PointCap(cf int) Point { return Point{Label: fmt.Sprintf("cap=%d", cf), CapFactor: cf} }

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
	// RenderRow, when non-nil, renders one of the cell's rows into its
	// table coordinates — the table name, machine column keys, and
	// formatted values the scenario's table rendering emits for that
	// row. It must be a pure function of the row and the cell
	// coordinates, so a streamed row is byte-identical to the finished
	// document's (DESIGN.md §12). Collect invokes it only when the
	// runner has an Observer, and attaches the result to
	// CellEvent.Rendered.
	RenderRow func(c *Cell, row T) RenderedRow
}

// Cell is one unit of sweep work: a single coordinate of the scenario
// grid. Cells are self-contained — they build their own graph and
// derive their own seeds — so any subset can run concurrently.
type Cell struct {
	Scenario string
	Family   graph.Family
	N        int
	BaseSeed int64
	Point    Point
	// Index is the cell's position in the canonical expansion order
	// (families outermost, then sizes, seeds, points).
	Index int

	model    hybrid.Config
	graphs   *GraphCache   // set by Collect from Runner.Graphs; nil = build per cell
	profiles *ProfileCache // set by Collect from Runner.Profiles; nil = compute per graph
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

// BuildGraph returns the cell's graph instance for GraphSeed. With a
// GraphCache attached (Runner.Graphs) the returned graph is the shared
// instance every cell of the same (family, n, GraphSeed)
// coordinate sees — built exactly once, identical to a per-cell build;
// without one it is constructed fresh. Either way the graph is
// immutable; derive weight variants with Reweight.
func (c *Cell) BuildGraph() (*graph.Graph, error) {
	if c.graphs != nil {
		return c.graphs.Get(c.Family, c.N, c.GraphSeed())
	}
	return graph.Build(c.Family, c.N, rand.New(rand.NewSource(c.GraphSeed())))
}

// BallProfiles returns the shared ball-profile artifact of the cell's
// graph (which must be the instance BuildGraph returned), memoizing it
// on g so every NQ query against the instance answers from the profile
// (DESIGN.md §10). With a ProfileCache attached (Runner.Profiles) the
// artifact is computed once per distinct (family, n, GraphSeed)
// coordinate across the whole sweep (singleflight) and persisted
// content-addressed; without one it is computed locally at the same
// canonical radius and attached to g — at most once per concurrent
// asker, since this fallback has no singleflight (workers racing on a
// fresh shared instance may duplicate the kernel before the atomic
// attach keeps one result). Either way the values any k-point reads
// are identical to a per-cell computation.
func (c *Cell) BallProfiles(g *graph.Graph) *graph.Profiles {
	if c.profiles != nil {
		return c.profiles.Attach(g, c.Family, c.N, c.GraphSeed())
	}
	if p := g.Profiles(); p != nil && p.Covers(graph.ProfileRadius(g.N(), g.Diameter())) {
		return p
	}
	return g.AttachProfiles(g.BallProfiles(graph.ProfileRadius(g.N(), g.Diameter())))
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
// cell measures several independent executions.
func (c *Cell) NewNet(g *graph.Graph, seed int64) (*hybrid.Net, error) {
	cfg := c.Config()
	cfg.Seed = seed
	return hybrid.New(g, cfg)
}

// Cells expands the scenario grid in canonical order: families
// outermost, then sizes, base seeds, and points innermost.
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
					})
				}
			}
		}
	}
	return cells
}

// Runner fans independent sweep cells out over a fixed-size worker pool.
type Runner struct {
	// Workers is the pool size; values ≤ 0 mean GOMAXPROCS. Ignored
	// when Pool is set.
	Workers int
	// Pool, when non-nil, is a shared worker pool the sweep's cells are
	// submitted to instead of spawning per-sweep goroutines; concurrent
	// sweeps on one Pool are scheduled fairly per sweep.
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
	// Graphs, when non-nil, deduplicates topology construction: every
	// cell resolves BuildGraph through this cache, so each distinct
	// (family, n, GraphSeed) coordinate is built exactly once and the
	// instance is shared across points, sweeps, and Pool
	// tenants (DESIGN.md §9). Rows are unchanged — the shared instance
	// is byte-identical to a per-cell build.
	Graphs *GraphCache
	// Profiles, when non-nil, deduplicates the derived ball-profile
	// artifacts the NQ measurements read (DESIGN.md §10): every cell
	// resolves Cell.BallProfiles through this cache, so each distinct
	// topology's profile is computed exactly once per sweep — and zero
	// times on resubmission when the cache persists through the
	// artifact store. Rows are unchanged — profile-served NQ values
	// are identical to per-cell ball growth.
	Profiles *ProfileCache
	// Observer, when non-nil, receives one CellEvent per cell (from
	// worker goroutines; it must be safe for concurrent use).
	Observer CellObserver
}

// Serial returns a single-worker runner.
func Serial() *Runner { return &Runner{Workers: 1} }

// Parallel returns a GOMAXPROCS-sized runner.
func Parallel() *Runner { return &Runner{} }

func (r *Runner) workers() int {
	if r == nil || r.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return r.Workers
}

func (r *Runner) cache() CellCache {
	if r == nil {
		return nil
	}
	return r.Cache
}

func (r *Runner) cacheVersion() string {
	if r == nil || r.CacheVersion == "" {
		return CodeVersion
	}
	return r.CacheVersion
}

func (r *Runner) observe(ev CellEvent) {
	if r != nil && r.Observer != nil {
		r.Observer(ev)
	}
}

// Collect runs every cell of the scenario on r's pool and returns the
// rows concatenated in canonical cell order. The output is independent
// of the worker count; on failure the error of the lowest-indexed
// failing cell is returned.
//
// With r.Cache set, each cell's content address is looked up first:
// hits decode their rows from the cache and never reach the worker
// pool, misses run and are stored back. Either way r.Observer sees one
// event per cell.
func Collect[T any](r *Runner, sc *Scenario[T]) ([]T, error) {
	if sc.Run == nil {
		return nil, fmt.Errorf("runner: scenario %q has no Run function", sc.Name)
	}
	cells := Cells(sc)
	if r != nil && (r.Graphs != nil || r.Profiles != nil) {
		for i := range cells {
			cells[i].graphs = r.Graphs
			cells[i].profiles = r.Profiles
		}
	}
	results := make([][]T, len(cells))
	errs := make([]error, len(cells))

	// render materializes a cell's rows in table coordinates for the
	// observer's event — only when someone is listening and the
	// scenario knows how (streaming delivery, DESIGN.md §12).
	render := func(c *Cell, rows []T) []RenderedRow {
		if sc.RenderRow == nil || r == nil || r.Observer == nil || len(rows) == 0 {
			return nil
		}
		out := make([]RenderedRow, len(rows))
		for i := range rows {
			out[i] = sc.RenderRow(c, rows[i])
		}
		return out
	}

	// Cache-lookup pass: resolve hits up front so only misses are
	// dispatched.
	cache := r.cache()
	var keys []string
	pending := make([]int, 0, len(cells))
	if cache != nil {
		version := r.cacheVersion()
		keys = make([]string, len(cells))
		for i := range cells {
			keys[i] = cells[i].CacheKey(version)
			if blob, ok := cache.Get(keys[i]); ok {
				if rows, err := decodeRows[T](blob); err == nil {
					results[i] = rows
					r.observe(CellEvent{Cell: &cells[i], Total: len(cells), Key: keys[i], Cached: true,
						Rows: len(rows), Rendered: render(&cells[i], rows)})
					continue
				}
				// An undecodable entry (e.g. written by an older row
				// schema under a stale version string) is a miss.
			}
			pending = append(pending, i)
		}
	} else {
		for i := range cells {
			pending = append(pending, i)
		}
	}

	runCell := func(i int) {
		results[i], errs[i] = sc.Run(&cells[i])
		ev := CellEvent{Cell: &cells[i], Total: len(cells), Rows: len(results[i]), Err: errs[i]}
		if errs[i] == nil {
			ev.Rendered = render(&cells[i], results[i])
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

	if r != nil && r.Pool != nil {
		tasks := make([]func(), len(pending))
		for j, i := range pending {
			i := i
			tasks[j] = func() { runCell(i) }
		}
		if err := r.Pool.Run(tasks); err != nil {
			return nil, fmt.Errorf("runner: scenario %q: %w", sc.Name, err)
		}
	} else if workers := min(r.workers(), len(pending)); workers <= 1 {
		for _, i := range pending {
			runCell(i)
		}
	} else {
		work := make(chan int, len(pending))
		for _, i := range pending {
			work <- i
		}
		close(work)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					runCell(i)
				}
			}()
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("runner: cell %s: %w", cells[i].String(), err)
		}
	}
	var out []T
	for _, rows := range results {
		out = append(out, rows...)
	}
	return out, nil
}
