package nq

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/hybrid"
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

func TestDistributedRejectsBadK(t *testing.T) {
	net, err := hybrid.New(graph.Path(4), hybrid.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Distributed(net, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestUpperBoundHelper(t *testing.T) {
	if UpperBound(100, 16) != 4 {
		t.Fatalf("UpperBound(100,16)=%d", UpperBound(100, 16))
	}
	if UpperBound(3, 100) != 3 {
		t.Fatalf("UpperBound(3,100)=%d", UpperBound(3, 100))
	}
}
