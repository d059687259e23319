package repro_test

// The benchmark regression guard: testing.AllocsPerRun assertions that
// pin the allocation behaviour of the simulation core as normal tests
// (no benchstat needed). The committed thresholds match the current
// column of BENCH_core.json; lowering them is progress, raising them is
// a regression that must be justified.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/nq"
	"repro/internal/overlay"
	"repro/internal/runner"
	"repro/internal/spanner"
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
// reuses its level schedules and its suffixed phase labels.
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
	cases := []struct {
		name   string
		budget float64
		run    func()
	}{
		// The BFS queue and the DistHeap scratch are pooled on the
		// graph, so BFS and the heap Dijkstras allocate only their
		// result vectors; on unit weights Dijkstra is BFS.
		{"BFS", 1, func() { grid.BFS(0) }},
		{"Dijkstra", 1, func() { weighted.Dijkstra(0) }},
		{"Dijkstra (unit weights)", 1, func() { grid.Dijkstra(0) }},
		{"MultiSourceDijkstra", 2, func() { weighted.MultiSourceDijkstra([]int{0, 5, 9}) }},
		{"HopLimitedDistances", 4, func() { grid.HopLimitedDistances(0, 16) }},
		{"BallSizes", 2, func() { grid.BallSizes(0, 16) }},
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

// TestGraphRestoreAllocBudget pins a topology restore at O(n+m): the
// codec carries the diameter, so decoding path/4096 from a filled store
// must not rerun the all-sources BFS sweep, whose one 32 KB distance
// vector per source alone allocates about 134 MB.
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
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 8 {
		t.Fatalf("restoring path/%d allocated %.1f MB, budget 8 MB", n, mb)
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

// allocatedBytes returns the bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDiameterAllocBudget pins the all-sources diameter at the hop
// kernel's pooled scratch: an uncached Diameter of the 1024-node
// expander runs 16 batches of 64 sources over three per-node bit words
// and must not allocate a distance vector per source.
func TestDiameterAllocBudget(t *testing.T) {
	requireAllocFree(t)
	g := coreExpander() // RandomRegular seeds no diameter
	if kb := float64(allocatedBytes(func() { g.Diameter() })) / 1024; kb >= 256 {
		t.Fatalf("uncached Diameter of a %d-node expander allocated %.0f KB, budget 256 KB", g.N(), kb)
	}
}

// TestBallProfilesAllocBudget pins the profile kernel at its output:
// each 64-node chunk's rows are written once by the hop kernel and
// copied once into the flat artifact, so BallProfiles on the 4096-node
// expander may allocate at most 1.1× the artifact's arrays plus those
// staged rows.
func TestBallProfilesAllocBudget(t *testing.T) {
	requireAllocFree(t)
	g := graph.RandomRegular(4096, 4, rand.New(rand.NewSource(7)))
	r := graph.ProfileRadius(g.N(), g.Diameter()) // also warms the kernel scratch
	var p *graph.Profiles
	got := allocatedBytes(func() { p = g.BallProfilesWorkers(r, 1) })
	entries := 0
	for v := 0; v < p.N(); v++ {
		entries += p.Len(v)
	}
	artifact := 4*(p.N()+1) + 4*entries + 8*p.N() // rowStart, sizes, ecc
	budget := 1.1 * float64(artifact+4*entries)
	if float64(got) > budget {
		t.Fatalf("BallProfilesWorkers(%d, 1) on a %d-node expander allocated %d bytes, budget %.0f (artifact %d bytes)", r, g.N(), got, budget, artifact)
	}
}

// TestSpannerAllocBudget pins the greedy spanner at its output: every
// candidate edge's bounded Dijkstra reuses one dense distance array and
// one heap, so a 3-spanner of a weighted 1024-node 8-regular graph must
// not allocate per search.
func TestSpannerAllocBudget(t *testing.T) {
	requireAllocFree(t)
	g := graph.RandomWeights(graph.RandomRegular(1024, 8, rand.New(rand.NewSource(7))), 1000, rand.New(rand.NewSource(3)))
	if mb := float64(allocatedBytes(func() {
		if _, err := spanner.Compute(g, 2); err != nil {
			t.Fatal(err)
		}
	})) / (1 << 20); mb >= 1 {
		t.Fatalf("spanner.Compute(k=2) on a weighted %d-node 8-regular graph allocated %.2f MB, budget 1 MB", g.N(), mb)
	}
}
