package overlay

import (
	"slices"
	"strconv"
	"testing"

	"repro/internal/graph"
	"repro/internal/hybrid"
)

func newNet(t *testing.T, g *graph.Graph, cfg hybrid.Config) *hybrid.Net {
	t.Helper()
	net, err := hybrid.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestBuildStructure(t *testing.T) {
	net := newNet(t, graph.Path(37), hybrid.Config{})
	tr := Build(net, "test")
	if tr.Size() != 37 {
		t.Fatalf("size=%d", tr.Size())
	}
	// Heap levels hold 1, 2, 4, 8, 16 and 6 members: depth ⌊log₂ 37⌋ = 5.
	if d := tr.Depth(); d != 5 {
		t.Fatalf("depth=%d, want 5", d)
	}
	// Every non-root member has a parent; root has none.
	if tr.Parent(0) != -1 {
		t.Fatal("root has a parent")
	}
	seen := map[int]bool{}
	for i, v := range tr.Members {
		if seen[v] {
			t.Fatalf("duplicate member %d", v)
		}
		seen[v] = true
		if i > 0 && tr.Parent(i) == -1 {
			t.Fatalf("member %d has no parent", v)
		}
		if len(children(tr, i)) > 2 {
			t.Fatalf("member %d has %d children", v, len(children(tr, i)))
		}
	}
	// Parent/child relations are mutually consistent.
	for i, v := range tr.Members {
		for _, c := range children(tr, i) {
			if tr.Parent(c) != v {
				t.Fatalf("child %d of %d has parent %d", tr.Members[c], v, tr.Parent(c))
			}
		}
	}
}

func TestBuildChargesPolylog(t *testing.T) {
	net := newNet(t, graph.Path(64), hybrid.Config{})
	Build(net, "x")
	_, charged := net.RoundsByKind()
	if charged != 36 { // plog(64)=6, 6*6
		t.Fatalf("charged=%d, want 36", charged)
	}
}

func TestBuildOnSubsetValidation(t *testing.T) {
	net := newNet(t, graph.Path(10), hybrid.Config{})
	if _, err := BuildOn(net, nil, "x"); err == nil {
		t.Fatal("empty member set accepted")
	}
	if _, err := BuildOn(net, []int{1, 1}, "x"); err == nil {
		t.Fatal("duplicate member accepted")
	}
	if _, err := BuildOn(net, []int{99}, "x"); err == nil {
		t.Fatal("out-of-range member accepted")
	}
	tr, err := BuildOn(net, []int{2, 4, 6, 8}, "x")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 4 {
		t.Fatalf("size=%d", tr.Size())
	}
	if slices.Contains(tr.Members, 3) {
		t.Fatal("non-member is a member")
	}
}

func TestAggregateRounds(t *testing.T) {
	net := newNet(t, graph.Path(64), hybrid.Config{})
	tr := Build(net, "x")
	r, err := tr.Aggregate("x", 1)
	if err != nil {
		t.Fatal(err)
	}
	// One word per level up + down: 2·depth rounds (each level fits in cap).
	want := 2 * tr.Depth()
	if r != want {
		t.Fatalf("aggregate rounds=%d, want %d", r, want)
	}
}

func TestAggregateWideLoad(t *testing.T) {
	net := newNet(t, graph.Path(64), hybrid.Config{}) // cap 6
	tr := Build(net, "x")
	r, err := tr.Aggregate("x", 12)
	if err != nil {
		t.Fatal(err)
	}
	// Levels 1–5 have a parent with two children, ⌈24/6⌉ = 4 rounds each;
	// level 6 holds one member, ⌈12/6⌉ = 2 rounds. Once up, once down.
	if want := 2 * (5*4 + 2); r != want {
		t.Fatalf("wide aggregate rounds=%d, want %d", r, want)
	}
}

// TestAggregateWidthChangeReusesSchedules: a tree that aggregated at
// width 1 and then at width 12 charges the width-12 call exactly what a
// fresh tree charges, and a later width-1 call under a new phase charges
// the width-1 rounds under the new labels.
func TestAggregateWidthChangeReusesSchedules(t *testing.T) {
	fresh := Build(newNet(t, graph.Path(64), hybrid.Config{}), "x")
	want, err := fresh.Aggregate("x", 12)
	if err != nil {
		t.Fatal(err)
	}
	net := newNet(t, graph.Path(64), hybrid.Config{})
	tr := Build(net, "x")
	narrow, err := tr.Aggregate("x", 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.Aggregate("x", 12)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got <= narrow {
		t.Fatalf("width 12 after width 1: %d rounds, fresh tree %d (width 1: %d)", got, want, narrow)
	}
	if again, err := tr.Aggregate("y", 1); err != nil || again != narrow {
		t.Fatalf("width 1 again under a new phase: %d rounds (err %v), want %d", again, err, narrow)
	}
	audit := net.Audit()
	var phases []string
	for _, e := range audit[len(audit)-2:] {
		phases = append(phases, e.Phase)
	}
	if want := []string{"y/convergecast", "y/broadcastdown"}; !slices.Equal(phases, want) {
		t.Fatalf("last audit phases %q, want %q", phases, want)
	}
}

func TestHybrid0TreeCommunicationAllowed(t *testing.T) {
	// In HYBRID₀ with knowledge tracking, the overlay construction must
	// teach tree endpoints each other's IDs, or aggregation would fail.
	net := newNet(t, graph.Path(32), hybrid.Config{Variant: hybrid.VariantHybrid0, TrackKnowledge: true})
	tr := Build(net, "x")
	if _, err := tr.Aggregate("x", 1); err != nil {
		t.Fatalf("aggregate on HYBRID0: %v", err)
	}
}

func TestBasicAggregate(t *testing.T) {
	net := newNet(t, graph.Cycle(50), hybrid.Config{})
	r, err := BasicAggregate(net, "agg")
	if err != nil {
		t.Fatal(err)
	}
	plog := net.PLog()
	if r > 3*plog*plog {
		t.Fatalf("basic aggregate cost %d exceeds eÕ(1)=3·plog² = %d", r, 3*plog*plog)
	}
}

func TestSingleNodeTree(t *testing.T) {
	net := newNet(t, graph.Path(1), hybrid.Config{})
	tr := Build(net, "x")
	if tr.Size() != 1 || tr.Depth() != 0 || tr.Root() != 0 {
		t.Fatal("singleton tree malformed")
	}
	if r, err := tr.Aggregate("x", 1); err != nil || r != 0 {
		t.Fatalf("singleton aggregate r=%d err=%v", r, err)
	}
}

// referencePass sends tr's converge-cast (up) or broadcast level by
// level through SendGlobal on net, with explicit width-word messages
// and the phase labels the tree uses.
func referencePass(net *hybrid.Net, tr *Tree, label string, width int, up bool) (int, error) {
	depth, m := tr.Depth(), tr.Size()
	total := 0
	for i := 1; i <= depth; i++ {
		d := i
		if up {
			d = depth + 1 - i
		}
		var msgs []hybrid.Msg
		for c := 1<<d - 1; c < min(1<<(d+1)-1, m); c++ {
			child, parent := tr.Members[c], tr.Members[(c-1)/2]
			if up {
				msgs = append(msgs, hybrid.Msg{From: child, To: parent, Size: width})
			} else {
				msgs = append(msgs, hybrid.Msg{From: parent, To: child, Size: width})
			}
		}
		r, err := net.SendGlobal(label, msgs)
		if err != nil {
			return total, err
		}
		total += r
	}
	return total, nil
}

// TestTreeMatchesSendGlobal runs one sequence of Aggregate,
// ConvergeCast and BroadcastDown calls on a tree, which charges each
// level from its size, and the same sequence through SendGlobal with
// explicit messages on every level of a second network. Both must agree
// in returned rounds, errors, Audit, Stats, Rounds and (under HYBRID₀)
// knowledge after every call, across width changes back and forth. The
// subset case is a HYBRID₀ cluster tree: BuildOn over every third node.
func TestTreeMatchesSendGlobal(t *testing.T) {
	hybrid0 := hybrid.Config{Variant: hybrid.VariantHybrid0, TrackKnowledge: true, Seed: 3}
	full := func(net *hybrid.Net) (*Tree, error) { return Build(net, "x"), nil }
	subset := func(net *hybrid.Net) (*Tree, error) {
		var members []int
		for v := net.N() - 1; v >= 0; v -= 3 {
			members = append(members, v)
		}
		return BuildOn(net, members, "x")
	}
	type treeCase struct {
		name  string
		cfg   hybrid.Config
		build func(*hybrid.Net) (*Tree, error)
		sizes []int
	}
	allSizes := []int{1, 2, 3, 4, 5, 64, 577}
	cases := []treeCase{
		{"hybrid", hybrid.Config{}, full, allSizes},
		{"hybrid0-tracked", hybrid0, full, allSizes},
		{"local-only", hybrid.Config{LocalOnly: true}, full, allSizes},
		{"hybrid0-tracked-subset", hybrid0, subset, []int{4, 5, 64, 577}},
	}
	for _, c := range cases {
		for _, n := range c.sizes {
			t.Run(c.name+"/n="+strconv.Itoa(n), func(t *testing.T) {
				got := newNet(t, graph.Path(n), c.cfg)
				want := newNet(t, graph.Path(n), c.cfg)
				tr, err := c.build(got)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := c.build(want)
				if err != nil {
					t.Fatal(err)
				}
				gamma := got.Cap()
				widths := []int{1, 1, gamma, gamma, gamma + 1, 1, gamma + 1, gamma + 1, gamma, 0, 1}
				ops := []string{"aggregate", "convergecast", "broadcastdown"}
				for step, w := range widths {
					for oi, op := range ops {
						phase := "p" + strconv.Itoa((step+oi)%2)
						var g, r int
						var gErr, rErr error
						switch op {
						case "aggregate":
							g, gErr = tr.Aggregate(phase, w)
							r, rErr = referencePass(want, ref, phase+"/convergecast", w, true)
							if rErr == nil {
								var down int
								down, rErr = referencePass(want, ref, phase+"/broadcastdown", w, false)
								r += down
							}
						case "convergecast":
							g, gErr = tr.ConvergeCast(phase, w)
							r, rErr = referencePass(want, ref, phase+"/convergecast", w, true)
						case "broadcastdown":
							g, gErr = tr.BroadcastDown(phase, w)
							r, rErr = referencePass(want, ref, phase+"/broadcastdown", w, false)
						}
						at := op + " width " + strconv.Itoa(w) + " step " + strconv.Itoa(step)
						if g != r || (gErr == nil) != (rErr == nil) {
							t.Fatalf("%s: tree %d rounds (err %v), reference %d (err %v)", at, g, gErr, r, rErr)
						}
						if c.cfg.LocalOnly && (gErr != nil) != (tr.Depth() > 0) {
							t.Fatalf("%s: err %v on a LocalOnly tree of depth %d", at, gErr, tr.Depth())
						}
						if !slices.Equal(got.Audit(), want.Audit()) || got.Stats() != want.Stats() || got.Rounds() != want.Rounds() {
							t.Fatalf("%s: audit %v stats %+v, reference audit %v stats %+v",
								at, got.Audit(), got.Stats(), want.Audit(), want.Stats())
						}
					}
				}
				for v := 0; v < n; v++ {
					for u := 0; u < n; u++ {
						if got.Knows(v, u) != want.Knows(v, u) {
							t.Fatalf("Knows(%d, %d) differs from the reference", v, u)
						}
					}
				}
			})
		}
	}
}

// children returns the positions of the children of the member at
// position i (0–2 of them).
func children(t *Tree, i int) []int {
	var out []int
	for _, c := range []int{2*i + 1, 2*i + 2} {
		if c < len(t.Members) {
			out = append(out, c)
		}
	}
	return out
}
