package lower

import (
	"testing"

	"repro/internal/graph"
)

func TestNodeCommInstanceEvaluate(t *testing.T) {
	g := graph.Path(100)
	inst := &NodeCommInstance{
		A:           []int{90, 91, 92},
		B:           []int{0},
		EntropyBits: 1000,
	}
	rounds, h, ball, err := inst.Evaluate(g, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h != 90 {
		t.Fatalf("h=%d, want 90", h)
	}
	// N = min{|B_89(A)|, |B_89(B)|} = min{99, 90} = 90 on the path.
	if ball != 90 {
		t.Fatalf("ball=%d, want 90", ball)
	}
	// min{(1000-1)/(90·5), 44} = min{2.22, 44}.
	if rounds < 2.2 || rounds > 2.3 {
		t.Fatalf("bound=%v", rounds)
	}
}

func TestNodeCommInstanceHLimited(t *testing.T) {
	g := graph.Path(20)
	inst := &NodeCommInstance{A: []int{19}, B: []int{0}, EntropyBits: 1e12}
	rounds, h, _, err := inst.Evaluate(g, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h != 19 || rounds != float64(19)/2-1 {
		t.Fatalf("h=%d rounds=%v", h, rounds)
	}
}

func TestNodeCommInstanceValidation(t *testing.T) {
	g := graph.Path(10)
	cases := []*NodeCommInstance{
		{A: nil, B: []int{0}, EntropyBits: 1},
		{A: []int{0}, B: nil, EntropyBits: 1},
		{A: []int{0}, B: []int{0}, EntropyBits: 1},  // intersecting
		{A: []int{99}, B: []int{0}, EntropyBits: 1}, // out of range
	}
	for i, inst := range cases {
		if _, _, _, err := inst.Evaluate(g, 1, 1); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	ok := &NodeCommInstance{A: []int{9}, B: []int{0}, EntropyBits: 1}
	if _, _, _, err := ok.Evaluate(g, 0, 1); err == nil {
		t.Fatal("gamma=0 accepted")
	}
	if _, _, _, err := ok.Evaluate(g, 1, 0); err == nil {
		t.Fatal("p=0 accepted")
	}
}

func TestEntropyHelpers(t *testing.T) {
	if TokenSetEntropy(100) != 50 {
		t.Fatal("token set entropy")
	}
	if TokenSetEntropy(0) != 0 {
		t.Fatal("degenerate token entropy")
	}
}

func TestPathSeparationInstance(t *testing.T) {
	g := graph.Path(500)
	inst, witness, err := PathSeparationInstance(g, 500)
	if err != nil {
		t.Fatal(err)
	}
	if witness < 0 || witness >= 500 {
		t.Fatalf("witness=%d", witness)
	}
	rounds, h, ball, err := inst.Evaluate(g, 9, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if rounds <= 0 {
		t.Fatalf("trivial bound on a long path (h=%d ball=%d)", h, ball)
	}
	// Consistency with the packaged Theorem 4 bound.
	d, err := Dissemination(g, 500, 9, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if d.Rounds <= 0 {
		t.Fatal("Dissemination bound trivial")
	}
	// Too-small NQ rejected.
	if _, _, err := PathSeparationInstance(graph.Complete(16), 8); err == nil {
		t.Fatal("clique instance accepted")
	}
}

func TestVerifyAgainstMeasured(t *testing.T) {
	g := graph.Path(300)
	inst, _, err := PathSeparationInstance(g, 300)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.VerifyAgainstMeasured(g, 9, 0.9, 100000); err != nil {
		t.Fatalf("legitimate round count rejected: %v", err)
	}
	if err := inst.VerifyAgainstMeasured(g, 9, 0.9, 0); err == nil {
		t.Fatal("impossible round count accepted")
	}
}
