package async

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
)

func testGraph(t testing.TB, n int, seed int64) *graph.Graph {
	t.Helper()
	g := graph.RandomConnected(n, 4.0/float64(n), rand.New(rand.NewSource(seed)))
	if !g.Connected() {
		t.Fatal("test graph not connected")
	}
	return g
}

func TestBFSMatchesOracleFaultFree(t *testing.T) {
	g := testGraph(t, 64, 7)
	want := oracle.BFS(g, 3)
	got, rep, err := BFS(g, 3, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("node %d: got %d want %d", v, got[v], want[v])
		}
	}
	if rep.Delivered == 0 || rep.ConvergedAt == 0 {
		t.Fatalf("implausible report: %+v", rep)
	}
	if rep.DroppedAttempts != 0 || rep.Retries != 0 {
		t.Fatalf("fault-free run reported faults: %+v", rep)
	}
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	g := testGraph(t, 48, 11)
	wg := graph.RandomWeights(g, 30, rand.New(rand.NewSource(111)))
	want := oracle.Dijkstra(wg, 5)
	got, _, err := SSSP(wg, 5, Options{Seed: 2, Faults: LossProfile(0.1)})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("node %d: got %d want %d", v, got[v], want[v])
		}
	}
}

// TestDigestIdenticalAcrossWorkers is the replay certificate: the
// sha256 trace digest — which folds every scheduled event in dispatch
// order — and the whole report must be identical across repeated runs
// of the same seed. The values themselves are pinned by
// TestReportsGolden.
func TestDigestIdenticalAcrossWorkers(t *testing.T) {
	g := testGraph(t, 96, 3)
	profiles := map[string]Faults{
		"none":  {},
		"loss":  LossProfile(0.2),
		"burst": BurstLossProfile(0.1, 0.5, 0.9),
		"churn": ChurnProfile(0.3),
		"mixed": {Loss: 0.05, Jitter: 3, LatencyMax: 4, ChurnRate: 0.2},
	}
	for name, f := range profiles {
		t.Run(name, func(t *testing.T) {
			var reps [2]*Report
			for i := range reps {
				var err error
				if _, reps[i], err = BFS(g, 1, Options{Seed: 42, Faults: f}); err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
			}
			if *reps[1] != *reps[0] {
				t.Fatalf("report diverged on replay: %+v vs %+v", reps[1], reps[0])
			}
		})
	}
}

func TestSeedsProduceDistinctTraces(t *testing.T) {
	g := testGraph(t, 64, 9)
	_, r1, err := BFS(g, 0, Options{Seed: 1, Faults: LossProfile(0.2)})
	if err != nil {
		t.Fatal(err)
	}
	_, r2, err := BFS(g, 0, Options{Seed: 2, Faults: LossProfile(0.2)})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Digest == r2.Digest {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestFaultStatsSurface(t *testing.T) {
	g := testGraph(t, 96, 5)
	_, clean, err := BFS(g, 0, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, lossy, err := BFS(g, 0, Options{Seed: 3, Faults: LossProfile(0.25)})
	if err != nil {
		t.Fatal(err)
	}
	if lossy.DroppedAttempts == 0 || lossy.Retries == 0 {
		t.Fatalf("25%% loss produced no drops/retries: %+v", lossy)
	}
	if lossy.ConvergedAt <= clean.ConvergedAt {
		t.Fatalf("loss did not slow convergence: clean %d lossy %d", clean.ConvergedAt, lossy.ConvergedAt)
	}
	_, churny, err := BFS(g, 0, Options{Seed: 3, Faults: ChurnProfile(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	if churny.Crashes == 0 || churny.Restarts != churny.Crashes {
		t.Fatalf("50%% churn produced no crash/restart pairs: %+v", churny)
	}
}

func TestChurnStillConverges(t *testing.T) {
	g := testGraph(t, 64, 13)
	want := oracle.BFS(g, 2)
	got, rep, err := BFS(g, 2, Options{Seed: 5, Faults: ChurnProfile(0.4)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes == 0 {
		t.Skip("seed produced no crashes; covered by differential suite")
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("node %d after churn: got %d want %d", v, got[v], want[v])
		}
	}
}

func TestDisseminateReachesFullSet(t *testing.T) {
	g := testGraph(t, 48, 17)
	tokensAt := make([]int, g.N())
	tokensAt[0] = 3
	tokensAt[7] = 2
	tokensAt[31] = 1
	sets, _, err := Disseminate(g, tokensAt, Options{Seed: 4, Faults: LossProfile(0.15)})
	if err != nil {
		t.Fatal(err)
	}
	for v, s := range sets {
		if s.Count() != 6 {
			t.Fatalf("node %d holds %d/6 tokens", v, s.Count())
		}
	}
}

// TestConcurrentSimsShareGraph runs two simulations on one graph at
// once: New only reads its graph, so -race must stay quiet and both
// runs must report the same distances and trace.
func TestConcurrentSimsShareGraph(t *testing.T) {
	g := graph.Grid2D(8)
	var dist [2][]int64
	var reps [2]*Report
	errs := make(chan error, 2)
	for i := range dist {
		go func() {
			var err error
			dist[i], reps[i], err = BFS(g, 0, Options{Seed: 1})
			errs <- err
		}()
	}
	for range dist {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	want := oracle.BFS(g, 0)
	for i := range dist {
		for v := range want {
			if dist[i][v] != want[v] {
				t.Fatalf("run %d node %d: got %d want %d", i, v, dist[i][v], want[v])
			}
		}
	}
	if reps[0].Digest != reps[1].Digest {
		t.Fatal("concurrent runs on one graph produced different traces")
	}
}

func TestRunTwiceErrors(t *testing.T) {
	g := testGraph(t, 16, 1)
	sim, err := New(g, Config{Seed: 1}, func(v int) Node { return &distNode{src: v == 0, hop: true} })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil {
		t.Fatal("second Run succeeded")
	}
}

func TestMaxEventsGuard(t *testing.T) {
	g := testGraph(t, 64, 21)
	_, _, err := BFS(g, 0, Options{Seed: 1, MaxEvents: 10})
	if err == nil {
		t.Fatal("expected quiescence-guard error")
	}
}

func TestSendValidation(t *testing.T) {
	g := testGraph(t, 8, 2)
	sim, err := New(g, Config{Seed: 1}, func(v int) Node { return badSender{} })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil {
		t.Fatal("non-adjacent local send not rejected")
	}
}

type badSender struct{}

func (badSender) Start(ctx *Context, restart bool) {
	// A local message to a non-neighbor (self) must be rejected.
	ctx.Send(Message{To: ctx.ID(), Mode: ModeLocal, Kind: kindHello})
}
func (badSender) Deliver(ctx *Context, local, global []Message) {}
