package baseline

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/hybrid"
)

func params() Params {
	return Params{N: 1024, K: 256, L: 4, Gamma: 10, PLog: 10, Eps: 0.25, Diam: 62}
}

func TestFormulaValues(t *testing.T) {
	p := params()
	cases := []struct {
		f    Formula
		want float64
	}{
		{AHKDissemination(), (16 + 4) * 10},
		{KS20Unicast(), (16 + 256.0*4/1024) * 10},
		{KS20APSP(), 32 * 10},
		{AG21APSP(), 32 * 10},
		{AG21SSSP(), 32 * 10},
	}
	for _, c := range cases {
		got := c.f.Rounds(p)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: got %v, want %v", c.f.Name, got, c.want)
		}
		if c.f.Name == "" || c.f.Reference == "" || c.f.Kind == "" {
			t.Errorf("%s: missing metadata", c.f.Name)
		}
	}
}

func TestPowerFormulas(t *testing.T) {
	p := params()
	if got := CHLP21SSSP().Rounds(p); math.Abs(got-math.Pow(1024, 5.0/17.0)*10) > 1e-6 {
		t.Fatalf("CHLP21SSSP=%v", got)
	}
	if got := AHKSSSP().Rounds(p); math.Abs(got-math.Pow(1024, 0.25)*10) > 1e-6 {
		t.Fatalf("AHKSSSP=%v", got)
	}
	p.Eps = 0
	if got := AHKSSSP().Rounds(p); math.Abs(got-math.Pow(1024, 0.25)*10) > 1e-6 {
		t.Fatalf("AHKSSSP default eps: %v", got)
	}
	if got := CHLP21KSSP().Rounds(p); math.Abs(got-(math.Cbrt(1024)+16)*10) > 1e-6 {
		t.Fatalf("CHLP21KSSP=%v", got)
	}
}

func TestNaiveTreeBroadcast(t *testing.T) {
	net, err := hybrid.New(graph.Path(256), hybrid.Config{})
	if err != nil {
		t.Fatal(err)
	}
	k := 1000
	rounds := NaiveTreeBroadcast(net, k)
	// Must pay at least the receive floor k/γ and at most a few times it
	// plus the overlay construction.
	floor := k / net.Cap()
	if rounds < floor {
		t.Fatalf("naive broadcast %d below floor %d", rounds, floor)
	}
	if rounds > 4*floor+10*net.PLog()*net.PLog() {
		t.Fatalf("naive broadcast %d implausibly expensive", rounds)
	}
}
