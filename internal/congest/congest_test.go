package congest

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/hybrid"
)

func congestNet(t *testing.T, g *graph.Graph) *hybrid.Net {
	t.Helper()
	net, err := hybrid.NewCONGEST(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestRunnerValidation(t *testing.T) {
	net := congestNet(t, graph.Path(4))
	if _, err := NewRunner(net, make([]Node, 3)); err == nil {
		t.Fatal("wrong program count accepted")
	}
	if _, err := NewRunner(net, make([]Node, 4)); err == nil {
		t.Fatal("nil programs accepted")
	}
}

func TestBFSMatchesCentralized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	graphs := []*graph.Graph{
		graph.Path(40),
		graph.Cycle(30),
		graph.Grid(6, 2),
		graph.RandomConnected(50, 0.08, rng),
	}
	for gi, g := range graphs {
		net := congestNet(t, g)
		dist, rounds, err := BFS(net, 0)
		if err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		want := g.BFS(0)
		for v := range want {
			if dist[v] != want[v] {
				t.Fatalf("graph %d node %d: dist=%d want %d", gi, v, dist[v], want[v])
			}
		}
		// BFS needs ≈ eccentricity rounds (plus the quiescence round).
		ecc := int(g.Eccentricity(0))
		if rounds < ecc || rounds > ecc+3 {
			t.Fatalf("graph %d: %d rounds for eccentricity %d", gi, rounds, ecc)
		}
		// The engine must have recorded the local traffic.
		if net.Stats().LocalRounds == 0 {
			t.Fatal("no local rounds recorded")
		}
	}
}

func TestBellmanFordMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomWeights(graph.RandomConnected(40, 0.1, rng), 9, rng)
	net := congestNet(t, g)
	dist, _, err := BellmanFord(net, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := g.Dijkstra(3)
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("node %d: dist=%d want %d", v, dist[v], want[v])
		}
	}
}

// A program that cheats by sending two words over one edge in a round
// must be caught by the runner.
type cheater struct{ neighbors []int }

func (c *cheater) Step(round int, from []int, words []Word, out *Outbox) bool {
	if round == 0 && len(c.neighbors) > 0 {
		out.Send(c.neighbors[0], 1)
		out.Send(c.neighbors[0], 2)
	}
	return true
}

func TestRunnerRejectsPerEdgeViolation(t *testing.T) {
	g := graph.Path(3)
	net := congestNet(t, g)
	nodes := make([]Node, 3)
	for v := 0; v < 3; v++ {
		c := &cheater{}
		g.ForEachNeighbor(v, func(u int, _ int64) { c.neighbors = append(c.neighbors, u) })
		nodes[v] = c
	}
	r, err := NewRunner(net, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run("cheat", 5); err == nil {
		t.Fatal("double send per edge accepted")
	}
}

// A program sending to a non-neighbor must be rejected by the engine.
type longShot struct{ n int }

func (l *longShot) Step(round int, from []int, words []Word, out *Outbox) bool {
	if round == 0 {
		out.Send(l.n-1, 7) // node 0 tries to reach the far end directly
	}
	return true
}

func TestRunnerRejectsNonAdjacentSend(t *testing.T) {
	g := graph.Path(5)
	net := congestNet(t, g)
	nodes := make([]Node, 5)
	nodes[0] = &longShot{n: 5}
	for v := 1; v < 5; v++ {
		nodes[v] = &idle{}
	}
	r, err := NewRunner(net, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run("longshot", 5); err == nil {
		t.Fatal("non-adjacent send accepted")
	}
}

type idle struct{}

func (idle) Step(int, []int, []Word, *Outbox) bool { return true }

func TestRunnerTimeout(t *testing.T) {
	type babbler struct{ to int }
	_ = babbler{}
	g := graph.Path(2)
	net := congestNet(t, g)
	// Node 0 babbles forever.
	r, err := NewRunner(net, []Node{nodeFunc(func(round int, _ []int, _ []Word, out *Outbox) bool {
		out.Send(1, Word(round))
		return false
	}), &idle{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run("babble", 10); err == nil {
		t.Fatal("non-terminating run not reported")
	}
}

// nodeFunc adapts a function to the Node interface.
type nodeFunc func(int, []int, []Word, *Outbox) bool

func (f nodeFunc) Step(r int, from []int, w []Word, o *Outbox) bool { return f(r, from, w, o) }

// runBFSWorkers runs the distributed BFS programs on a fresh engine
// with an explicit round-engine worker count and returns everything
// observable: distances, round count, the engine audit and stats.
func runBFSWorkers(t *testing.T, g *graph.Graph, src, workers int) ([]int64, int, []hybrid.AuditEntry, hybrid.Stats) {
	t.Helper()
	net := congestNet(t, g)
	n := g.N()
	nodes := make([]Node, n)
	progs := make([]*bfsNode, n)
	for v := 0; v < n; v++ {
		p := &bfsNode{id: v, isRoot: v == src, dist: -1}
		g.ForEachNeighbor(v, func(u int, _ int64) {
			p.neighbors = append(p.neighbors, u)
		})
		progs[v] = p
		nodes[v] = p
	}
	r, err := NewRunner(net, nodes)
	if err != nil {
		t.Fatal(err)
	}
	r.Workers = workers
	rounds, err := r.Run("congest/bfs", 4*n+4)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	dist := make([]int64, n)
	for v, p := range progs {
		dist[v] = p.dist
	}
	return dist, rounds, net.Audit(), net.Stats()
}

// TestRunnerWorkerSweepByteIdentity pins the sharded round engine's
// guarantee: every observable — distances, rounds, engine audit, engine
// stats — is byte-identical across worker counts {1, 2, GOMAXPROCS, 8},
// because outboxes merge into the batch in node order regardless of
// which worker ran which Step.
func TestRunnerWorkerSweepByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for gi, g := range []*graph.Graph{
		graph.Grid(24, 2),
		graph.RandomConnected(500, 0.02, rng),
	} {
		wantDist, wantRounds, wantAudit, wantStats := runBFSWorkers(t, g, 0, 1)
		for _, w := range []int{2, runtime.GOMAXPROCS(0), 8} {
			dist, rounds, audit, stats := runBFSWorkers(t, g, 0, w)
			if !reflect.DeepEqual(dist, wantDist) {
				t.Fatalf("graph %d: distances diverge at %d workers", gi, w)
			}
			if rounds != wantRounds {
				t.Fatalf("graph %d: %d rounds at %d workers, want %d", gi, rounds, w, wantRounds)
			}
			if !reflect.DeepEqual(audit, wantAudit) {
				t.Fatalf("graph %d: audit trail diverges at %d workers", gi, w)
			}
			if stats != wantStats {
				t.Fatalf("graph %d: engine stats diverge at %d workers: %+v vs %+v", gi, w, stats, wantStats)
			}
		}
	}
}

// TestRunnerAutoParallelMatchesSequential crosses the parallelMinN
// auto-selection threshold: Workers = 0 on a ≥ 4096-node network shards
// the rounds, and the result still matches the forced-sequential run.
func TestRunnerAutoParallelMatchesSequential(t *testing.T) {
	g := graph.Grid(64, 2) // 4096 nodes, on the auto-parallel side
	if n := g.N(); n < parallelMinN {
		t.Fatalf("test graph has %d nodes, below parallelMinN=%d", n, parallelMinN)
	}
	wantDist, wantRounds, wantAudit, wantStats := runBFSWorkers(t, g, 5, 1)
	dist, rounds, audit, stats := runBFSWorkers(t, g, 5, 0)
	if !reflect.DeepEqual(dist, wantDist) || rounds != wantRounds ||
		!reflect.DeepEqual(audit, wantAudit) || stats != wantStats {
		t.Fatal("auto-parallel run diverges from the sequential schedule")
	}
}

// TestRunnerShardedRejectsPerEdgeViolation pins the error path of the
// sharded engine: a λ violation is caught during the node-order merge
// with the same error text and round as the sequential schedule.
func TestRunnerShardedRejectsPerEdgeViolation(t *testing.T) {
	build := func() *Runner {
		g := graph.Path(200)
		net := congestNet(t, g)
		nodes := make([]Node, g.N())
		for v := range nodes {
			c := &cheater{}
			g.ForEachNeighbor(v, func(u int, _ int64) { c.neighbors = append(c.neighbors, u) })
			nodes[v] = c
		}
		r, err := NewRunner(net, nodes)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	seq := build()
	seq.Workers = 1
	_, errSeq := seq.Run("cheat", 5)
	par := build()
	par.Workers = 8
	_, errPar := par.Run("cheat", 5)
	if errSeq == nil || errPar == nil {
		t.Fatal("double send per edge accepted")
	}
	if errSeq.Error() != errPar.Error() {
		t.Fatalf("error text diverges:\n  sequential: %v\n  sharded:    %v", errSeq, errPar)
	}
}

func TestImmediateTermination(t *testing.T) {
	g := graph.Path(4)
	net := congestNet(t, g)
	nodes := []Node{&idle{}, &idle{}, &idle{}, &idle{}}
	r, err := NewRunner(net, nodes)
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := r.Run("idle", 10)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 0 {
		t.Fatalf("idle run took %d rounds", rounds)
	}
}
