package nq

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/overlay"
)

// bruteForce computes NQ_k(v) straight from Definition 3.1.
func bruteForce(g *graph.Graph, v, k int) int {
	d := int(g.Diameter())
	if d == 0 {
		d = 1
	}
	dist := g.BFS(v)
	for t := 1; t <= d; t++ {
		size := 0
		for _, x := range dist {
			if x <= int64(t) {
				size++
			}
		}
		if float64(size) >= float64(k)/float64(t) {
			return t
		}
	}
	return d
}

func TestPerNodeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	graphs := []*graph.Graph{
		graph.Path(25),
		graph.Cycle(30),
		graph.Grid(5, 2),
		graph.Star(20),
		graph.RandomConnected(40, 0.08, rng),
	}
	for gi, g := range graphs {
		for _, k := range []int{1, 3, 10, g.N(), 3 * g.N()} {
			per, max, err := PerNode(g, k)
			if err != nil {
				t.Fatal(err)
			}
			wantMax := 0
			for v := 0; v < g.N(); v++ {
				want := bruteForce(g, v, k)
				if per[v] != want {
					t.Fatalf("graph %d k=%d v=%d: NQ=%d, want %d", gi, k, v, per[v], want)
				}
				if want > wantMax {
					wantMax = want
				}
			}
			if max != wantMax {
				t.Fatalf("graph %d k=%d: NQ(G)=%d, want %d", gi, k, max, wantMax)
			}
		}
	}
}

func TestErrors(t *testing.T) {
	if _, _, err := PerNode(graph.NewBuilder(0).Build(), 1); err == nil {
		t.Fatal("empty graph accepted")
	}
	if _, _, err := PerNode(graph.Path(3), 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	g := graph.NewBuilder(2).Build()
	if _, _, err := PerNode(g, 1); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

// Theorem 15: on the n-node path, NQ_k = Θ(√k) for k up to ~D².
func TestTheorem15PathScaling(t *testing.T) {
	g := graph.Path(600)
	for _, k := range []int{16, 64, 256, 1024} {
		v, err := Of(g, k)
		if err != nil {
			t.Fatal(err)
		}
		root := math.Sqrt(float64(k))
		if float64(v) < root/3 || float64(v) > 3*root {
			t.Fatalf("path NQ_%d=%d not within [√k/3, 3√k]=[%.1f, %.1f]", k, v, root/3, 3*root)
		}
	}
}

// Theorem 16: on 2-d grids NQ_k = Θ(k^{1/3}); on 3-d grids Θ(k^{1/4}).
func TestTheorem16GridScaling(t *testing.T) {
	cases := []struct {
		g *graph.Graph
		d float64
	}{
		{graph.Grid(30, 2), 2},
		{graph.Grid(10, 3), 3},
	}
	for _, c := range cases {
		for _, k := range []int{27, 125, 512} {
			v, err := Of(c.g, k)
			if err != nil {
				t.Fatal(err)
			}
			pred := math.Pow(float64(k), 1/(c.d+1))
			if float64(v) < pred/4 || float64(v) > 4*pred {
				t.Fatalf("grid d=%v NQ_%d=%d not within factor 4 of k^{1/(d+1)}=%.1f", c.d, k, v, pred)
			}
		}
	}
}

// Lemma 3.6: sqrt(Dk/3n) < NQ_k <= min{D, ceil(sqrt(k))}.
func TestLemma36Bounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(60)
		g := graph.RandomConnected(n, 0.07, rng)
		k := 1 + rng.Intn(3*n)
		v, err := Of(g, k)
		if err != nil {
			return false
		}
		d := float64(g.Diameter())
		lower := math.Sqrt(d * float64(k) / (3 * float64(n)))
		upper := math.Min(d, math.Ceil(math.Sqrt(float64(k))))
		return float64(v) > lower-1e-9 && float64(v) <= upper+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Lemma 3.7: NQ_{αk} ≤ 6√α · NQ_k.
func TestLemma37Growth(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(50)
		g := graph.RandomConnected(n, 0.1, rng)
		k := 1 + rng.Intn(n)
		alpha := 1 + rng.Intn(9)
		vk, err1 := Of(g, k)
		vak, err2 := Of(g, alpha*k)
		if err1 != nil || err2 != nil {
			return false
		}
		return float64(vak) <= 6*math.Sqrt(float64(alpha))*float64(vk)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// NQ_k is non-decreasing in k.
func TestMonotoneInK(t *testing.T) {
	g := graph.Grid(12, 2)
	prev := 0
	for k := 1; k <= 4*g.N(); k *= 2 {
		v, err := Of(g, k)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev {
			t.Fatalf("NQ_%d=%d < NQ_{k/2}=%d", k, v, prev)
		}
		prev = v
	}
}

// Lemma 3.8: the witness v has |B_r(v)| < k/r for all r < NQ_k.
func TestWitnessProperty(t *testing.T) {
	g := graph.Grid(15, 2)
	k := 2 * g.N()
	v, nqv, err := Witness(g, k)
	if err != nil {
		t.Fatal(err)
	}
	sizes := g.BallSizes(v, nqv)
	for r := 1; r < nqv; r++ {
		size := g.N()
		if r < len(sizes) {
			size = sizes[r]
		}
		if float64(size) >= float64(k)/float64(r) {
			t.Fatalf("witness r=%d: |B_r|=%d >= k/r=%.1f", r, size, float64(k)/float64(r))
		}
	}
}

func TestDistributedMatchesCentralized(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	graphs := []*graph.Graph{
		graph.Path(60),
		graph.Grid(8, 2),
		graph.RandomConnected(50, 0.06, rng),
	}
	for gi, g := range graphs {
		for _, k := range []int{1, 10, g.N()} {
			want, err := Of(g, k)
			if err != nil {
				t.Fatal(err)
			}
			net, err := hybrid.New(g, hybrid.Config{Variant: hybrid.VariantHybrid0, TrackKnowledge: true})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Distributed(net, k)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("graph %d k=%d: distributed=%d, centralized=%d", gi, k, got, want)
			}
			// Lemma 3.3: total rounds are eÕ(NQ_k) — enforce a generous
			// polylog envelope c·(NQ_k+1)·plog³.
			plog := net.PLog()
			budget := 8 * (want + 1) * plog * plog * plog
			if net.Rounds() > budget {
				t.Fatalf("graph %d k=%d: distributed NQ cost %d rounds > budget %d", gi, k, net.Rounds(), budget)
			}
		}
	}
}

// scanRun is Lemma 3.3 as stated: explore one more hop, aggregate over
// the overlay tree, and stop at the first depth t with
// t·min_v |B_t(v)| ≥ k, scanning every node's ball at every depth.
func scanRun(net *hybrid.Net, g *graph.Graph, k, d int) (int, error) {
	tree := overlay.Build(net, "nq")
	ensureProfiles(g, k, d)
	p := g.Profiles()
	for t := 1; t <= d; t++ {
		net.TickLocal("nq/explore", 1)
		if _, err := tree.Aggregate("nq", 1); err != nil {
			return 0, err
		}
		minBall := g.N()
		for v := 0; v < g.N(); v++ {
			minBall = min(minBall, p.Size(v, t))
		}
		if int64(t)*int64(minBall) >= int64(k) {
			return t, nil
		}
	}
	return d, nil
}

// TestDistributedMatchesScanningLoop: Distributed, which reads the
// stopping depth from Of, returns what the scanning loop returns and
// leaves the same Audit, Stats and Rounds on a fresh network, on every
// family for k from 1 to 4n under HYBRID and tracked HYBRID₀.
func TestDistributedMatchesScanningLoop(t *testing.T) {
	configs := []hybrid.Config{
		{},
		{Variant: hybrid.VariantHybrid0, TrackKnowledge: true, Seed: 5},
	}
	for _, f := range graph.Families() {
		g, err := graph.Build(f, 64, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		d := max(int(g.Diameter()), 1)
		n := g.N()
		for _, k := range []int{1, n / 4, n, 4 * n} {
			for _, cfg := range configs {
				got, err := hybrid.New(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := hybrid.New(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				q, err := Distributed(got, k)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := scanRun(want, g, k, d)
				if err != nil {
					t.Fatal(err)
				}
				if q != ref || !slices.Equal(got.Audit(), want.Audit()) || got.Stats() != want.Stats() || got.Rounds() != want.Rounds() {
					t.Fatalf("%s k=%d %v: NQ %d audit %v stats %+v, scanning loop NQ %d audit %v stats %+v",
						f, k, got.Variant(), q, got.Audit(), got.Stats(), ref, want.Audit(), want.Stats())
				}
			}
		}
	}
}

func TestDistributedRejectsBadK(t *testing.T) {
	net, err := hybrid.New(graph.Path(4), hybrid.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Distributed(net, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// TestProfileForStopsAtK: a profile whose rows stop at K answers every
// k ≤ K from its rows and no k past K: ensureProfiles leaves K + 1 to
// the early-exit kernel instead of growing a profile that could not
// decide it either, and both paths match Definition 3.1.
func TestProfileForStopsAtK(t *testing.T) {
	g := graph.Path(40)
	d := int(g.Diameter())
	stop := g.ProfileStop()
	ensureProfiles(g, stop, d)
	p := g.Profiles()
	if p == nil || p.Complete() {
		t.Fatal("the 40-path's canonical profile is missing or complete")
	}
	if q, _ := profileFor(g, stop, d); q != p {
		t.Fatal("k = K is not answered from the attached profile")
	}
	ensureProfiles(g, stop+1, d)
	if g.Profiles() != p {
		t.Fatal("k = K+1 grew another profile")
	}
	if q, _ := profileFor(g, stop+1, d); q != nil {
		t.Fatal("k = K+1 is answered from a profile that does not decide it")
	}
	bare := graph.Path(40)
	ensureProfiles(bare, stop+1, d)
	if bare.Profiles() != nil {
		t.Fatal("k = K+1 grew a profile on a graph that had none")
	}
	for _, k := range []int{stop, stop + 1} {
		want := 0
		for v := 0; v < g.N(); v++ {
			want = max(want, bruteForce(g, v, k))
		}
		for name, gg := range map[string]*graph.Graph{"profiled": g, "bare": bare} {
			if got, err := Of(gg, k); err != nil || got != want {
				t.Fatalf("%s k=%d: NQ = %d (err %v), Definition 3.1 gives %d", name, k, got, err, want)
			}
		}
	}
}
