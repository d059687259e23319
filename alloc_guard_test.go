package repro_test

// The benchmark regression guard: testing.AllocsPerRun assertions that
// pin the allocation behaviour of the simulation core as normal tests
// (no benchstat needed). These budgets are the gate — the BENCH_*.txt
// records only note times on one machine; lowering a budget is
// progress, raising one is a regression that must be justified.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/congest"
	"repro/internal/cuts"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/nq"
	"repro/internal/overlay"
	"repro/internal/runner"
	"repro/internal/spanner"
	"repro/internal/sssp"
	"repro/internal/unicast"
)

func requireAllocFree(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation guard skipped under -race (instrumentation allocates)")
	}
}

// TestCoreRoundLoopAllocationFree is the acceptance gate of the pooled
// engine: one steady-state TickLocal + SendGlobal round on a
// 1024-node graph must perform zero allocations.
func TestCoreRoundLoopAllocationFree(t *testing.T) {
	requireAllocFree(t)
	net, err := hybrid.New(coreExpander(), hybrid.Config{})
	if err != nil {
		t.Fatal(err)
	}
	msgs := coreMsgs()
	allocs := testing.AllocsPerRun(200, func() {
		net.TickLocal("core/round", 1)
		if _, err := net.SendGlobal("core/round", msgs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("TickLocal+SendGlobal round allocates %.1f times per run, want 0", allocs)
	}
}

// TestCoreSendLocalAllocationFree pins the λ-unbounded and λ = 1 local
// schedulers at zero steady-state allocations.
func TestCoreSendLocalAllocationFree(t *testing.T) {
	requireAllocFree(t)
	g := coreGrid()
	msgs := make([]hybrid.Msg, 64)
	for i := range msgs {
		v := (i * 13) % (coreN - 32)
		msgs[i] = hybrid.Msg{From: v, To: v + 32}
	}
	for _, cfg := range []hybrid.Config{{}, {LocalWordCap: 1}} {
		net, err := hybrid.New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Warm the pooled per-edge map before measuring.
		if _, err := net.SendLocal("core/local", msgs); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := net.SendLocal("core/local", msgs); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("SendLocal (λ=%d) allocates %.1f times per run, want 0", cfg.LocalWordCap, allocs)
		}
	}
}

// TestCoreLoadRoundsAllocationFree pins the load-vector companion.
func TestCoreLoadRoundsAllocationFree(t *testing.T) {
	requireAllocFree(t)
	net, err := hybrid.New(coreExpander(), hybrid.Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, coreN)
	in := make([]int, coreN)
	out[3], in[9] = 25, 31
	allocs := testing.AllocsPerRun(200, func() {
		net.LoadRounds("core/load", out, in)
	})
	if allocs != 0 {
		t.Fatalf("LoadRounds allocates %.1f times per run, want 0", allocs)
	}
}

// TestCoreChargeAllocationFree pins Net.Charge: an entry of the charge
// table records its rounds without allocating once its audit entry
// exists, and an entry under a caller's phase allocates its label only.
func TestCoreChargeAllocationFree(t *testing.T) {
	requireAllocFree(t)
	net, err := hybrid.New(coreExpander(), hybrid.Config{})
	if err != nil {
		t.Fatal(err)
	}
	net.Charge(hybrid.CostTheorem13, hybrid.CostArgs{Eps: 0.5})
	if allocs := testing.AllocsPerRun(200, func() {
		net.Charge(hybrid.CostTheorem13, hybrid.CostArgs{Eps: 0.5})
	}); allocs != 0 {
		t.Fatalf("Charge allocates %.1f times per run, want 0", allocs)
	}
	phase := "core/prefix"
	if allocs := testing.AllocsPerRun(200, func() {
		net.Charge(hybrid.CostOverlayBuild, hybrid.CostArgs{Prefix: phase})
	}); allocs > 1 {
		t.Fatalf("prefixed Charge allocates %.1f times per run, want ≤ 1", allocs)
	}
}

// TestCoreNQOfAllocFree pins nq.Of's max-only paths at zero steady-state
// allocations: unlike PerNode it must not materialize a per-node slice,
// on either the early-exit kernel path or the profile binary-search
// path (the diameter and the pooled ball scratch are warmed first).
func TestCoreNQOfAllocFree(t *testing.T) {
	requireAllocFree(t)
	kernel := coreGrid()
	profiled := coreGrid()
	profiled.AttachProfiles(profiled.BallProfiles(graph.ProfileRadius(profiled.N(), profiled.Diameter())))
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"kernel", kernel},
		{"profile", profiled},
	} {
		// Warm the diameter cache and the pooled scratch.
		if _, err := nq.Of(tc.g, 64); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := nq.Of(tc.g, 64); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("nq.Of (%s path) allocates %.1f times per run, want 0", tc.name, allocs)
		}
	}
}

// TestCoreTreeAggregateAllocFree pins one steady-state Lemma 4.4
// aggregation (NQ_k's per-depth step) at zero allocations: the tree
// charges every level from its size and reuses its suffixed phase
// labels.
func TestCoreTreeAggregateAllocFree(t *testing.T) {
	requireAllocFree(t)
	net, err := hybrid.New(graph.Grid2D(24), hybrid.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tree := overlay.Build(net, "nq")
	if _, err := tree.Aggregate("nq", 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := tree.Aggregate("nq", 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Tree.Aggregate allocates %.1f times per run, want 0", allocs)
	}
}

// chatterNode never terminates and floods every neighbor each round —
// the worst steady-state load for the round engine.
type chatterNode struct{ neighbors []int }

func (c *chatterNode) Step(round int, _ []int, _ []congest.Word, out *congest.Outbox) bool {
	for _, u := range c.neighbors {
		out.Send(u, congest.Word(round))
	}
	return false
}

// TestCoreCongestRoundsAllocationFree pins the sharded round engine's
// zero-steady-state-allocation guarantee: once a Run has warmed the
// pooled inboxes and outboxes, each additional round allocates nothing,
// at one worker and at eight. Per-Run fixed costs (worker goroutines,
// the wake channel, the timeout error) are allowed; the round-marginal
// cost is asserted by comparing a 200-round Run against a 10-round Run.
func TestCoreCongestRoundsAllocationFree(t *testing.T) {
	requireAllocFree(t)
	g := coreExpander()
	for _, workers := range []int{1, 8} {
		nodes := make([]congest.Node, g.N())
		for v := range nodes {
			c := &chatterNode{}
			g.ForEachNeighbor(v, func(u int, _ int64) {
				c.neighbors = append(c.neighbors, u)
			})
			nodes[v] = c
		}
		net, err := hybrid.New(g, hybrid.Config{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := congest.NewRunner(net, nodes)
		if err != nil {
			t.Fatal(err)
		}
		r.Workers = workers
		// Warm the pooled per-node buffers and the engine schedulers.
		r.Run("core/congest", 10)
		short := testing.AllocsPerRun(3, func() { r.Run("core/congest", 10) })
		long := testing.AllocsPerRun(3, func() { r.Run("core/congest", 200) })
		if long > short+2 {
			t.Fatalf("workers=%d: 200-round Run allocates %.1f, 10-round Run %.1f — rounds are not allocation-free", workers, long, short)
		}
	}
}

// TestCoreKernelAllocBudgets bounds the per-call allocation counts of
// the CSR graph kernels (each returns freshly allocated results, so the
// budget is the handful of output slices, not zero).
func TestCoreKernelAllocBudgets(t *testing.T) {
	requireAllocFree(t)
	grid := coreGrid()
	weighted := graph.RandomWeights(coreExpander(), 100, rand.New(rand.NewSource(9)))
	hopDist := make([]int64, grid.N())
	cases := []struct {
		name   string
		budget float64
		run    func()
	}{
		// The BFS queue and the DistHeap scratch are pooled on the
		// graph, so BFS and the heap Dijkstra allocate only their
		// result vectors; on unit weights Dijkstra is BFS.
		{"BFS", 1, func() { grid.BFS(0) }},
		{"Dijkstra", 1, func() { weighted.Dijkstra(0) }},
		{"Dijkstra (unit weights)", 1, func() { grid.Dijkstra(0) }},
		// The hop-limited frontier lists are pooled on the graph too.
		{"HopLimitedDistances", 1, func() { grid.HopLimitedDistances(0, 16) }},
		{"HopLimitedDistancesInto", 0, func() { grid.HopLimitedDistancesInto(hopDist, 0, 16) }},
		{"BallSizes", 2, func() { grid.BallSizes(0, 16) }},
		// Connectivity is memoized on the graph, so every hybrid.New
		// after the first over a shared topology skips the DFS.
		{"Connected (memoized)", 0, func() { grid.Connected() }},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(20, c.run); allocs > c.budget {
			t.Errorf("%s allocates %.1f times per run, budget %.0f", c.name, allocs, c.budget)
		}
	}
}

// mapBlobStore is a minimal in-memory runner.BlobStore.
type mapBlobStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (s *mapBlobStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	return v, ok
}

func (s *mapBlobStore) Put(key string, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = value
}

// TestGraphRestoreAllocBudget pins a topology restore at O(n+m) and
// below a copy of the blob: the codec carries the diameter, so decoding
// path/4096 from a filled store must not rerun the all-sources BFS
// sweep (about 134 MB), and DecodeCSR views the stored arrays in place,
// so it allocates only the symmetry check's transpose and one BFS —
// about 0.19 MB, where the copying decoder with its map-based symmetry
// check allocated 0.47 MB.
func TestGraphRestoreAllocBudget(t *testing.T) {
	requireAllocFree(t)
	const n = 4096
	store := &mapBlobStore{m: map[string][]byte{}}
	if _, err := runner.NewGraphCache(store, 0).Get(graph.FamilyPath, n, 1); err != nil {
		t.Fatal(err)
	}
	gc := runner.NewGraphCache(store, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := gc.Get(graph.FamilyPath, n, 1)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if st := gc.Stats(); st.Builds != 0 || st.StoreHits != 1 {
		t.Fatalf("restore stats %+v, want 0 builds and 1 store hit", st)
	}
	if d := g.Diameter(); d != n-1 {
		t.Fatalf("restored diameter %d, want %d", d, n-1)
	}
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("restoring path/%d allocated %.3f MB", n, mb)
	if mb >= 0.3 {
		t.Fatalf("restoring path/%d allocated %.2f MB, budget 0.3 MB", n, mb)
	}
}

// TestProfileRestoreAllocBudget pins a ball-profile restore below a
// copy of its rows: DecodeProfiles views the stored rows in place, so
// restoring path/4096's artifact (about 2.2 MB of rows, cut at K = 9n)
// from a filled store allocates only its row-batch index and header —
// about 3 KB, where the copying decoder allocated 2.19 MB.
func TestProfileRestoreAllocBudget(t *testing.T) {
	requireAllocFree(t)
	const n = 4096
	store := &mapBlobStore{m: map[string][]byte{}}
	build := func() *graph.Graph {
		g, err := runner.NewGraphCache(nil, 0).Get(graph.FamilyPath, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	runner.NewProfileCache(store, 0).Attach(build(), graph.FamilyPath, n, 1)
	g := build()
	pc := runner.NewProfileCache(store, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := pc.Attach(g, graph.FamilyPath, n, 1)
	runtime.ReadMemStats(&after)
	if st := pc.Stats(); st.Computes != 0 || st.StoreHits != 1 {
		t.Fatalf("restore stats %+v, want 0 computes and 1 store hit", st)
	}
	if p.N() != n {
		t.Fatalf("restored a profile of %d nodes, want %d", p.N(), n)
	}
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("restoring path/%d's profile allocated %.3f MB", n, mb)
	if mb >= 0.1 {
		t.Fatalf("restoring path/%d's profile allocated %.3f MB, budget 0.1 MB", n, mb)
	}
}

// TestCachedRowsDecodeAllocBudget pins the decode behind every cache
// hit of a sweep: a real Table 1 cell blob must decode in at most 4
// allocations and 512 B — the row slice and its family string, 2
// allocations and about 116 B — where gob, which rebuilt its decode engine
// for every blob, took 218 allocations and 9.8 KB.
func TestCachedRowsDecodeAllocBudget(t *testing.T) {
	requireAllocFree(t)
	store := &mapBlobStore{m: map[string][]byte{}}
	cfg := experiments.ReportConfig{N: 32, Families: []graph.Family{graph.FamilyPath}}
	if _, err := experiments.Generate("table1", cfg, &runner.Runner{Workers: 1, Cache: store}); err != nil {
		t.Fatal(err)
	}
	var blob []byte
	for _, b := range store.m {
		if len(b) > len(blob) {
			blob = b
		}
	}
	decode := func() {
		rows, err := runner.DecodeRows[experiments.Table1Row](blob)
		if err != nil || len(rows) != 1 {
			t.Fatalf("decoded %d rows (%v), want 1", len(rows), err)
		}
	}
	allocs := testing.AllocsPerRun(200, decode)
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decode()
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("decoding a %d-byte Table 1 cell blob: %.0f allocations, %.0f B", len(blob), allocs, perRun)
	if allocs > 4 || perRun > 512 {
		t.Fatalf("decoding a Table 1 cell blob took %.0f allocations and %.0f B, budget 4 and 512 B", allocs, perRun)
	}
}

// TestCachedCellServeAllocBudget pins the per-cell work of a resubmitted
// sweep that simulates nothing: a real Table 1 cell's CacheKey must take
// 1 allocation and 64 B, its hex string (fmt's %#v key took 10
// allocations); rendering its row must take at most one allocation per
// value plus the value slice (fmt.Sprintf boxed its operands); and
// EncodeJSONL of the rendered row 1 allocation, the returned 240-byte
// line, plus room for a pool refill after a GC (a map through
// encoding/json took 34 allocations).
func TestCachedCellServeAllocBudget(t *testing.T) {
	requireAllocFree(t)
	var mu sync.Mutex
	var ev runner.CellEvent
	store := &mapBlobStore{m: map[string][]byte{}}
	r := &runner.Runner{Workers: 1, Cache: store, Observer: func(e runner.CellEvent) {
		mu.Lock()
		defer mu.Unlock()
		ev = e
	}}
	fams := []graph.Family{graph.FamilyPath}
	if _, err := experiments.Generate("table1", experiments.ReportConfig{N: 32, Families: fams}, r); err != nil {
		t.Fatal(err)
	}
	if ev.Cell == nil || len(ev.Rendered) != 1 {
		t.Fatalf("observed cell %v with %d rendered rows, want 1", ev.Cell, len(ev.Rendered))
	}
	blob, _ := store.Get(ev.Key)
	rows, err := runner.DecodeRows[experiments.Table1Row](blob)
	if err != nil || len(rows) != 1 {
		t.Fatalf("decoded %d rows (%v), want 1", len(rows), err)
	}
	render := experiments.Table1Scenario(fams, 32, nil, 1).RenderRow
	values := len(ev.Rendered[0].Values)
	for _, c := range []struct {
		what          string
		f             func()
		allocs, bytes float64
	}{
		{"CacheKey", func() { ev.Cell.CacheKey(runner.CodeVersion) }, 1, 64},
		{"RenderRow", func() { render(ev.Cell, rows[0]) }, float64(1 + values), float64(32 * (1 + values))},
		{"EncodeJSONL", func() { runner.EncodeJSONL(ev.Rendered) }, 1, 320},
	} {
		allocs := testing.AllocsPerRun(200, c.f)
		const runs = 1000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			c.f()
		}
		runtime.ReadMemStats(&after)
		perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%s of a Table 1 cell: %.0f allocations, %.0f B", c.what, allocs, perRun)
		if allocs > c.allocs || perRun > c.bytes {
			t.Errorf("%s of a Table 1 cell took %.0f allocations and %.0f B, budget %.0f and %.0f B", c.what, allocs, perRun, c.allocs, c.bytes)
		}
	}
}

// TestGraphResidentBudget pins a built graph at its CSR arrays: a
// Graph keeps rowStart (4 bytes per node + 1) and the to/w half-edge
// arrays (4 + 8 bytes each) and no second copy of its edges, so the
// 2^16-node torus may retain at most 1.1× those arrays after GC.
func TestGraphResidentBudget(t *testing.T) {
	requireAllocFree(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g, err := graph.Build(graph.FamilyTorus2D, 1<<16, nil)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	arrays := 4*(g.N()+1) + 12*2*g.M()
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(g)
	if budget := 1.1 * float64(arrays); float64(held) > budget {
		t.Fatalf("a built %d-node torus retains %d bytes, budget %.0f (CSR arrays %d bytes)", g.N(), held, budget, arrays)
	}
}

// TestDiskReopenAllocBudget pins a disk-tier reopen at O(index): the
// reindex streams every segment through one read buffer and feeds
// values into the record CRC chunk by chunk, so reopening 8 MiB of
// blobs must not allocate anything proportional to the blobs.
func TestDiskReopenAllocBudget(t *testing.T) {
	requireAllocFree(t)
	dir := t.TempDir()
	s, err := artifact.NewStoreWithDisk(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	ns := s.Namespace("graphs")
	for i := 0; i < 8; i++ {
		ns.Put(fmt.Sprintf("blob-%d", i), bytes.Repeat([]byte{byte(i)}, 1<<20))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s2, err := artifact.NewStoreWithDisk(0, dir)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if d := s2.Stats().Disk; d.Reindexed != 8 {
		t.Fatalf("reopen reindexed %d records, want 8", d.Reindexed)
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb >= 1 {
		t.Fatalf("reopening 8 x 1 MiB blobs allocated %.2f MB, budget 1 MB", mb)
	}
}

// allocTrials is how many times allocatedBytes measures.
const allocTrials = 3

// allocatedBytes returns the least bytes that the function fresh returns
// allocates over allocTrials trials, each on the state a new call of
// fresh prepares outside the measurement. TotalAlloc is process-wide, so
// one trial can count another goroutine's allocations; the least of
// several cannot overstate the function's own.
func allocatedBytes(fresh func() func()) uint64 {
	best := uint64(math.MaxUint64)
	for range allocTrials {
		f := fresh()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestDiameterAllocBudget pins the all-sources diameter at the hop
// kernel's pooled scratch: an uncached Diameter of the 1024-node
// expander runs 16 batches of 64 sources over three per-node bit words
// and must not allocate a distance vector per source.
func TestDiameterAllocBudget(t *testing.T) {
	requireAllocFree(t)
	var g *graph.Graph
	kb := float64(allocatedBytes(func() func() {
		g = coreExpander() // RandomRegular seeds no diameter
		return func() { g.Diameter() }
	})) / 1024
	if kb >= 256 {
		t.Fatalf("uncached Diameter of a %d-node expander allocated %.0f KB, budget 256 KB", g.N(), kb)
	}
}

// TestDiameterAllocBudgetLongCycle pins the diameter pass at its
// scratch where the graph is too deep for its ball profiles: on an
// unseeded 4096-node cycle (D = 2048, past ProfileRadius(4096, -1) =
// 200) the first batch's searches pass the radius, the pass stops
// keeping rows, and an uncached Diameter stays within the same 256 KB
// — the profiles it would otherwise keep take over 3 MB. Each worker
// holds its own kernel scratch (three words per node, and the rows of
// its first batch up to the radius), so the pass runs on one worker
// and the budget holds at any core count.
func TestDiameterAllocBudgetLongCycle(t *testing.T) {
	requireAllocFree(t)
	graph.SetMaxKernelWorkers(1)
	defer graph.SetMaxKernelWorkers(0)
	var g *graph.Graph
	kb := float64(allocatedBytes(func() func() {
		b := graph.NewBuilder(4096) // a Builder graph has no seeded diameter
		for v := 0; v < 4096; v++ {
			if err := b.AddEdge(v, (v+1)%4096, 1); err != nil {
				t.Fatal(err)
			}
		}
		g = b.Build()
		return func() { g.Diameter() }
	})) / 1024
	if kb >= 256 {
		t.Fatalf("uncached Diameter of a %d-node cycle allocated %.0f KB, budget 256 KB", g.N(), kb)
	}
	if g.Diameter() != 2048 || g.Profiles() != nil {
		t.Fatalf("cycle: diameter %d, profiles kept %v; want 2048 and none", g.Diameter(), g.Profiles() != nil)
	}
}

// TestBallProfilesAllocBudget pins the profile kernel at its output:
// each 64-node chunk's rows are written once by the hop kernel and
// stay the artifact's storage, so BallProfiles on the 4096-node
// expander may allocate at most 1.1× the artifact's arrays — its row
// offsets, its rows and one slice header per chunk.
func TestBallProfilesAllocBudget(t *testing.T) {
	requireAllocFree(t)
	g := graph.RandomRegular(4096, 4, rand.New(rand.NewSource(7)))
	r := graph.ProfileRadius(g.N(), g.Diameter()) // also warms the kernel scratch
	var p *graph.Profiles
	got := allocatedBytes(func() func() { return func() { p = g.BallProfilesWorkers(r, 1) } })
	entries := 0
	for v := 0; v < p.N(); v++ {
		entries += p.Len(v)
	}
	artifact := 4*(p.N()+1) + 4*entries + 24*((p.N()+63)/64) // rowStart, rows, chunk headers
	budget := 1.1 * float64(artifact)
	if float64(got) > budget {
		t.Fatalf("BallProfilesWorkers(%d, 1) on a %d-node expander allocated %d bytes, budget %.0f (artifact %d bytes)", r, g.N(), got, budget, artifact)
	}
}

// TestBallProfilesHonorsWorkerBudget: BallProfiles runs on the process
// worker budget, so under SetMaxKernelWorkers(1) it allocates exactly
// what BallProfilesWorkers(r, 1) does — one worker spawns no goroutines
// and holds one kernel scratch.
func TestBallProfilesHonorsWorkerBudget(t *testing.T) {
	requireAllocFree(t)
	graph.SetMaxKernelWorkers(1)
	defer graph.SetMaxKernelWorkers(0)
	g := graph.RandomRegular(4096, 4, rand.New(rand.NewSource(7)))
	r := graph.ProfileRadius(g.N(), g.Diameter())
	one := allocatedBytes(func() func() { return func() { g.BallProfilesWorkers(r, 1) } })
	budget := allocatedBytes(func() func() { return func() { g.BallProfiles(r) } })
	if budget != one {
		t.Fatalf("BallProfiles(%d) under a one-worker budget allocated %d bytes, BallProfilesWorkers(%d, 1) %d", r, budget, r, one)
	}
}

// TestSpannerAllocBudget pins the spanner at its output. For k = 2 every
// candidate edge's bounded search reuses one dense distance array and
// one heap (weighted) or one BFS queue (unit weights), so a 3-spanner of
// a 1024-node 8-regular graph must not allocate per search, with random
// weights or with all weights 1.
func TestSpannerAllocBudget(t *testing.T) {
	requireAllocFree(t)
	unit := graph.RandomRegular(1024, 8, rand.New(rand.NewSource(7)))
	for _, g := range []*graph.Graph{graph.RandomWeights(unit, 1000, rand.New(rand.NewSource(3))), unit} {
		if mb := float64(allocatedBytes(func() func() {
			return func() {
				if _, err := spanner.Compute(g, 2); err != nil {
					t.Fatal(err)
				}
			}
		})) / (1 << 20); mb >= 1 {
			t.Fatalf("spanner.Compute(k=2) on a %d-node 8-regular graph (weighted %v) allocated %.2f MB, budget 1 MB", g.N(), g.IsWeighted(), mb)
		}
	}

	// k = 1 runs one search per node over g itself and never copies g's
	// edges: on the randomly weighted 256-node clique it may allocate four
	// times the spanner's CSR arrays (its kept-edge list with append
	// growth, and the CSR laid out once at exact size by graph.FromEdges)
	// plus 256 bytes per node (the search state, candidate lists and
	// heap). It measured 143 KB against a 154 KB budget with go1.24.0 on
	// amd64. The budget catches a spanner laid out through Builder rows
	// grown by append (220 KB), and a sort of a copy of the clique's
	// 32640 edges, as the greedy does (976 KB).
	clique := graph.RandomWeights(graph.Complete(256), 1000, rand.New(rand.NewSource(3)))
	var h *graph.Graph
	got := allocatedBytes(func() func() {
		return func() {
			var err error
			if h, err = spanner.Compute(clique, 1); err != nil {
				t.Fatal(err)
			}
		}
	})
	csr := 4*(h.N()+1) + 24*h.M()
	t.Logf("k = 1 on a weighted %d-clique: %d bytes, spanner CSR %d bytes, %d edges", clique.N(), got, csr, h.M())
	if budget := uint64(4*csr + 256*h.N()); got > budget {
		t.Fatalf("spanner.Compute(k=1) on a weighted %d-clique allocated %d bytes, budget %d (spanner CSR %d bytes, %d edges)", clique.N(), got, budget, csr, h.M())
	}
}

// TestCutsBuildAllocBudget pins the Theorem 9 sparsifier at its output.
// At the default ρ, which is at least the maximum degree of the
// 576-node torus and of the 1024-node degree-4 expander, every edge is
// kept, and Build copies g's edges into the sparsifier and allocates
// nothing else: 24 bytes per edge, which the allocator rounds up to its
// size class (at most an eighth more), plus 1 KB. Below Δ (ρ = 2 on the
// expander) it samples, and may also allocate one copy of the edges (24
// bytes each), the forest index and the list of edges left (4 bytes
// each), one union-find (5 bytes per node) and the sampled edges (24
// bytes each), with the same size-class slack. With go1.24.0 on
// amd64 the default ρ measured 28704 bytes on the torus (budget 32128)
// and 49184 on the expander (budget 56185), and ρ = 2 measured 119840
// (budget 134062). Building the forests at every ρ, with a fresh
// union-find per forest, allocates 181640, 302712 and 302712 bytes on
// the same three, so each budget catches it.
func TestCutsBuildAllocBudget(t *testing.T) {
	requireAllocFree(t)
	torus, err := graph.Build(graph.FamilyTorus2D, 576, nil)
	if err != nil {
		t.Fatal(err)
	}
	build := func(g *graph.Graph, rho float64) (got uint64, sp *cuts.Sparsifier) {
		got = allocatedBytes(func() func() {
			rng := rand.New(rand.NewSource(1))
			return func() {
				if sp, err = cuts.Build(g, 0.5, rng, cuts.Options{Rho: rho}); err != nil {
					t.Fatal(err)
				}
			}
		})
		return got, sp
	}
	for _, g := range []*graph.Graph{torus, coreExpander()} {
		got, sp := build(g, 0)
		budget := uint64(24*g.M() + 3*g.M() + 1024)
		t.Logf("default ρ, %d nodes, %d edges: %d bytes, budget %d", g.N(), g.M(), got, budget)
		if len(sp.Edges) != g.M() || got > budget {
			t.Fatalf("cuts.Build at the default ρ on %d nodes kept %d of %d edges and allocated %d bytes, budget %d", g.N(), len(sp.Edges), g.M(), got, budget)
		}
	}
	g := coreExpander()
	got, sp := build(g, 2)
	raw := 24*g.M() + 8*g.M() + 5*g.N() + 24*len(sp.Edges)
	budget := uint64(raw + raw/8 + 1024)
	t.Logf("ρ = 2, %d nodes, %d edges, %d kept: %d bytes, budget %d", g.N(), g.M(), len(sp.Edges), got, budget)
	if len(sp.Edges) >= g.M() || got > budget {
		t.Fatalf("cuts.Build at ρ = 2 on %d nodes kept %d of %d edges and allocated %d bytes, budget %d", g.N(), len(sp.Edges), g.M(), got, budget)
	}
}

// TestCoreKSSPWithoutValuesAllocBudget pins a Figure 1 k-SSP cell at its
// accounting: with wantValues false, KSSP over k = ⌈n^0.8⌉ random
// sources on the 576-node torus materializes no distance rows, so a call
// must allocate less than one k×n int64 matrix (746 KB). A call measured
// 80 bytes (its result) with go1.24.0 on amd64; with values it allocated
// 794 KB.
func TestCoreKSSPWithoutValuesAllocBudget(t *testing.T) {
	requireAllocFree(t)
	const runs = 8
	g, err := graph.Build(graph.FamilyTorus2D, 576, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	k := int(math.Ceil(math.Pow(float64(n), 0.8)))
	sources := rand.New(rand.NewSource(1)).Perm(n)[:k]
	rng := rand.New(rand.NewSource(2))
	perCall := allocatedBytes(func() func() {
		nets := make([]*hybrid.Net, runs)
		for i := range nets {
			if nets[i], err = hybrid.New(g, hybrid.Config{}); err != nil {
				t.Fatal(err)
			}
		}
		return func() {
			for _, net := range nets {
				if _, _, err := sssp.KSSP(net, sources, 0.5, true, rng, false); err != nil {
					t.Fatal(err)
				}
			}
		}
	}) / runs
	if matrix := uint64(k * n * 8); perCall >= matrix {
		t.Fatalf("KSSP without values (n=%d, k=%d) allocated %d bytes per call, budget %d (one k×n matrix)", n, k, perCall, matrix)
	}
}

// TestCoreRelayAllocBudget pins a table1-sized Theorem 3 case (1) routing
// at its allocation: k = n sources on the 576-node torus send to 4
// targets, and one Route call on a fresh network may allocate no more
// than the 145760 bytes the map-based, one-point-at-a-time pair loop took
// (go1.24.0, amd64). The four-point loop keeps three n-sized load arrays
// instead of seven and resolves each endpoint's helpers once, so it adds
// nothing n-sized per call; it measured 126454 bytes.
func TestCoreRelayAllocBudget(t *testing.T) {
	requireAllocFree(t)
	const runs = 8
	const relayCallBudget = 145760
	g, err := graph.Build(graph.FamilyTorus2D, 576, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	spec := unicast.Spec{Case: unicast.ArbitrarySourcesRandomTargets, Targets: []int{17, 200, 333, 511}, K: n, L: 4}
	for v := range n {
		spec.Sources = append(spec.Sources, v)
	}
	route := func(net *hybrid.Net) {
		if _, err := unicast.Route(net, spec, rand.New(rand.NewSource(1))); err != nil {
			t.Fatal(err)
		}
	}
	newNet := func() *hybrid.Net {
		net, err := hybrid.New(g, hybrid.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	route(newNet()) // attach the graph's diameter and ball profiles
	perCall := allocatedBytes(func() func() {
		nets := make([]*hybrid.Net, runs)
		for i := range nets {
			nets[i] = newNet()
		}
		return func() {
			for _, net := range nets {
				route(net)
			}
		}
	}) / runs
	if perCall > relayCallBudget {
		t.Fatalf("one case (1) Route call (n=%d, k=%d, ℓ=4) allocated %d bytes, budget %d", n, n, perCall, relayCallBudget)
	}
}

// TestCoreAsyncAllocBudget pins a fault-free async BFS run (the
// instance of BenchmarkAsyncBFSFaultFree: a 2048-node expander) at its
// allocation count. The engine runs every node's handler on the calling
// goroutine and reuses each node's inboxes across ticks, so the count
// does not vary from run to run: 16417 allocations with go1.24.0 on
// amd64.
func TestCoreAsyncAllocBudget(t *testing.T) {
	requireAllocFree(t)
	const asyncBFSAllocBudget = 16500
	g := asyncBFSGraph(t)
	allocs := testing.AllocsPerRun(3, func() { asyncBFS(t, g) })
	t.Logf("async BFS on %d nodes: %.0f allocations per run, budget %d", g.N(), allocs, asyncBFSAllocBudget)
	if allocs > asyncBFSAllocBudget {
		t.Fatalf("fault-free async BFS on %d nodes allocated %.0f times per run, budget %d", g.N(), allocs, asyncBFSAllocBudget)
	}
}
