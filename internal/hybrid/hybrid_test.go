package hybrid

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/graph"
)

func newNet(t *testing.T, g *graph.Graph, cfg Config) *Net {
	t.Helper()
	net, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNewValidation(t *testing.T) {
	if _, err := New(graph.NewBuilder(0).Build(), Config{}); !errors.Is(err, ErrEmptyGraph) {
		t.Fatalf("empty graph: err=%v", err)
	}
	b := graph.NewBuilder(3)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := New(b.Build(), Config{}); !errors.Is(err, graph.ErrDisconnected) {
		t.Fatalf("disconnected: err=%v", err)
	}
}

func TestDefaults(t *testing.T) {
	net := newNet(t, graph.Path(100), Config{})
	if net.Variant() != VariantHybrid {
		t.Fatalf("variant=%v", net.Variant())
	}
	if net.PLog() != 7 { // ceil(log2 100) = 7
		t.Fatalf("plog=%d, want 7", net.PLog())
	}
	if net.Cap() != 7 {
		t.Fatalf("cap=%d, want 7", net.Cap())
	}
	// HYBRID identifiers are [n].
	for v := 0; v < 100; v++ {
		if net.ID(v) != int64(v) {
			t.Fatalf("ID(%d)=%d", v, net.ID(v))
		}
		if net.NodeOf(int64(v)) != v {
			t.Fatal("NodeOf mismatch")
		}
	}
}

func TestHybrid0IDsDistinct(t *testing.T) {
	net := newNet(t, graph.Cycle(64), Config{Variant: VariantHybrid0, Seed: 9})
	seen := map[int64]bool{}
	for v := 0; v < 64; v++ {
		id := net.ID(v)
		if id < 0 || id >= 64*64 {
			t.Fatalf("ID(%d)=%d out of [n^2]", v, id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}

func TestKnowledgeInit(t *testing.T) {
	net := newNet(t, graph.Path(5), Config{Variant: VariantHybrid0, TrackKnowledge: true})
	if !net.Knows(2, 1) || !net.Knows(2, 3) || !net.Knows(2, 2) {
		t.Fatal("node must know itself and neighbors")
	}
	if net.Knows(0, 4) {
		t.Fatal("node 0 should not know node 4 initially")
	}
	net.Learn(0, 4)
	if !net.Knows(0, 4) {
		t.Fatal("Learn had no effect")
	}
}

func TestKnowledgeNotTrackedMeansKnown(t *testing.T) {
	net := newNet(t, graph.Path(5), Config{Variant: VariantHybrid0})
	if !net.Knows(0, 4) {
		t.Fatal("without tracking, Knows must report true")
	}
}

func TestSendGlobalCapScheduling(t *testing.T) {
	net := newNet(t, graph.Path(64), Config{}) // cap = 6
	if net.Cap() != 6 {
		t.Fatalf("cap=%d", net.Cap())
	}
	// 12 messages out of node 0: needs ceil(12/6) = 2 rounds.
	var msgs []Msg
	for i := 1; i <= 12; i++ {
		msgs = append(msgs, Msg{From: 0, To: i})
	}
	r, err := net.SendGlobal("t", msgs)
	if err != nil {
		t.Fatal(err)
	}
	if r != 2 {
		t.Fatalf("rounds=%d, want 2", r)
	}
	// 13 messages *into* node 5: ceil(13/6) = 3 rounds.
	msgs = msgs[:0]
	for i := 6; i <= 18; i++ {
		msgs = append(msgs, Msg{From: i, To: 5})
	}
	r, err = net.SendGlobal("t", msgs)
	if err != nil {
		t.Fatal(err)
	}
	if r != 3 {
		t.Fatalf("rounds=%d, want 3", r)
	}
}

func TestSendGlobalSizeCountsWords(t *testing.T) {
	net := newNet(t, graph.Path(64), Config{}) // cap 6
	r, err := net.SendGlobal("t", []Msg{{From: 0, To: 1, Size: 13}})
	if err != nil {
		t.Fatal(err)
	}
	if r != 3 { // ceil(13/6)
		t.Fatalf("rounds=%d, want 3", r)
	}
}

func TestSendGlobalHybrid0Enforcement(t *testing.T) {
	net := newNet(t, graph.Path(8), Config{Variant: VariantHybrid0, TrackKnowledge: true})
	_, err := net.SendGlobal("t", []Msg{{From: 0, To: 7}})
	var unknown *ErrUnknownTarget
	if !errors.As(err, &unknown) {
		t.Fatalf("err=%v, want ErrUnknownTarget", err)
	}
	// Neighbor is fine, and the receiver learns the sender plus taught IDs.
	if _, err := net.SendGlobal("t", []Msg{{From: 0, To: 1, TeachIDs: []int{7}}}); err != nil {
		t.Fatal(err)
	}
	if !net.Knows(1, 7) {
		t.Fatal("TeachIDs not applied")
	}
	// Now node 1 can address node 7.
	if _, err := net.SendGlobal("t", []Msg{{From: 1, To: 7}}); err != nil {
		t.Fatal(err)
	}
	// Node 7 learned node 1 from receiving.
	if !net.Knows(7, 1) {
		t.Fatal("receiver did not learn sender")
	}
}

func TestSendGlobalRangeError(t *testing.T) {
	net := newNet(t, graph.Path(4), Config{})
	if _, err := net.SendGlobal("t", []Msg{{From: 0, To: 9}}); err == nil {
		t.Fatal("out-of-range target accepted")
	}
}

func TestAuditAndKinds(t *testing.T) {
	net := newNet(t, graph.Path(32), Config{})
	net.TickLocal("flood", 4)
	net.Charge("oracle", 10)
	if _, err := net.SendGlobal("send", []Msg{{From: 0, To: 1}}); err != nil {
		t.Fatal(err)
	}
	sim, ch := net.RoundsByKind()
	if sim != 5 || ch != 10 {
		t.Fatalf("sim=%d ch=%d, want 5, 10", sim, ch)
	}
	if net.Rounds() != 15 {
		t.Fatalf("rounds=%d", net.Rounds())
	}
	audit := net.Audit()
	if len(audit) != 3 {
		t.Fatalf("audit entries=%d", len(audit))
	}
	txt := net.FormatAudit()
	if !strings.Contains(txt, "oracle") || !strings.Contains(txt, "TOTAL") {
		t.Fatalf("FormatAudit output missing sections:\n%s", txt)
	}
	net.ResetRounds()
	if net.Rounds() != 0 {
		t.Fatal("ResetRounds did not clear")
	}
}

func TestLoadRounds(t *testing.T) {
	net := newNet(t, graph.Path(64), Config{}) // cap 6
	out := make([]int, 64)
	in := make([]int, 64)
	out[3] = 25
	in[9] = 31
	if r := net.LoadRounds("t", out, in); r != 6 { // ceil(31/6)
		t.Fatalf("rounds=%d, want 6", r)
	}
}

func TestLearnBallAndLearnAll(t *testing.T) {
	net := newNet(t, graph.Path(6), Config{Variant: VariantHybrid0, TrackKnowledge: true})
	net.LearnBall(2)
	if !net.Knows(0, 2) || net.Knows(0, 3) {
		t.Fatal("LearnBall(2) wrong knowledge")
	}
	net.LearnAll()
	if !net.Knows(0, 5) {
		t.Fatal("LearnAll failed")
	}
}

func TestSortedIDs(t *testing.T) {
	net := newNet(t, graph.Cycle(16), Config{Variant: VariantHybrid0, Seed: 3})
	order := net.SortedIDs()
	for i := 1; i < len(order); i++ {
		if net.ID(order[i-1]) >= net.ID(order[i]) {
			t.Fatal("SortedIDs not strictly increasing")
		}
	}
}

func TestCapFactorScalesGamma(t *testing.T) {
	net := newNet(t, graph.Path(64), Config{CapFactor: 4})
	if net.Cap() != 24 {
		t.Fatalf("cap=%d, want 24", net.Cap())
	}
}

func TestVariantString(t *testing.T) {
	if VariantHybrid.String() != "HYBRID" || VariantHybrid0.String() != "HYBRID0" {
		t.Fatal("variant strings wrong")
	}
	if Simulated.String() != "simulated" || Charged.String() != "charged" {
		t.Fatal("kind strings wrong")
	}
}
