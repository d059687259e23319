package skeleton

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

func TestBuildValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Build(graph.NewBuilder(0).Build(), 2, nil, false, rng); err == nil {
		t.Fatal("empty graph accepted")
	}
	if _, err := Build(graph.Path(4), 0, nil, false, rng); err == nil {
		t.Fatal("x=0 accepted")
	}
	if _, err := Build(graph.Path(4), 2, []int{9}, false, rng); err == nil {
		t.Fatal("out-of-range forced node accepted")
	}
}

func TestForcedNodesIncluded(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sk, err := Build(graph.Path(100), 10, []int{7, 93}, false, rng)
	if err != nil {
		t.Fatal(err)
	}
	if sk.Index[7] < 0 || sk.Index[93] < 0 {
		t.Fatal("forced nodes missing from skeleton")
	}
	for i, v := range sk.Nodes {
		if sk.Index[v] != i {
			t.Fatal("Index inconsistent with Nodes")
		}
	}
}

func TestSampleSizeReasonable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.Grid(20, 2) // n=400
	sk, err := Build(g, 4, nil, false, rng)
	if err != nil {
		t.Fatal(err)
	}
	// E[|V_S|] = 100; allow wide slack.
	if sk.Size() < 50 || sk.Size() > 180 {
		t.Fatalf("skeleton size %d implausible for n/x=100", sk.Size())
	}
}

// Lemma 6.3 (2): skeleton distances equal G distances w.h.p.
func TestSkeletonDistancesMatchG(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomWeights(graph.Path(150), 5, rng)
	sk, err := Build(g, 5, nil, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	if sk.S == nil {
		t.Fatal("edges not materialized")
	}
	for i := 0; i < sk.Size(); i += 3 {
		dS := sk.S.Dijkstra(i)
		dG := g.Dijkstra(sk.Nodes[i])
		for j, u := range sk.Nodes {
			if dS[j] != dG[u] {
				t.Fatalf("d_S(%d,%d)=%d but d_G=%d", sk.Nodes[i], u, dS[j], dG[u])
			}
		}
	}
}

// Lemma 6.3 (1): every node sees a skeleton node within h hops w.h.p.
func TestSkeletonCoversHHopBalls(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.Path(300)
	sk, err := Build(g, 6, nil, false, rng)
	if err != nil {
		t.Fatal(err)
	}
	misses := 0
	for v := 0; v < g.N(); v += 7 {
		dist := g.HopLimitedDistances(v, sk.H)
		if !slices.ContainsFunc(sk.Nodes, func(u int) bool { return dist[u] < graph.Inf }) {
			misses++
		}
	}
	if misses > 0 {
		t.Fatalf("%d sampled nodes have no skeleton node within h=%d hops", misses, sk.H)
	}
}

func TestHCappedAtDiameter(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graph.Grid(6, 2) // D = 10
	sk, err := Build(g, 50, nil, false, rng)
	if err != nil {
		t.Fatal(err)
	}
	if int64(sk.H) > g.Diameter() {
		t.Fatalf("h=%d exceeds diameter %d", sk.H, g.Diameter())
	}
}

func TestDegenerateSampleForcesNode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// x huge → empty sample w.h.p.; Build must still return a usable skeleton.
	sk, err := Build(graph.Path(10), 1000000, nil, false, rng)
	if err != nil {
		t.Fatal(err)
	}
	if sk.Size() < 1 {
		t.Fatal("empty skeleton")
	}
}

func TestHopDistancesFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.Path(50)
	sk, err := Build(g, 3, nil, false, rng)
	if err != nil {
		t.Fatal(err)
	}
	d := g.HopLimitedDistances(0, sk.H)
	for v := 0; v <= sk.H && v < 50; v++ {
		if d[v] != int64(v) {
			t.Fatalf("d^h(0,%d)=%d", v, d[v])
		}
	}
	if sk.H+1 < 50 && d[sk.H+1] < graph.Inf {
		t.Fatalf("d^h beyond h hops should be Inf, got %d", d[sk.H+1])
	}
}
