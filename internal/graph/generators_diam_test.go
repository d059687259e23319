package graph_test

// Certification of the analytic diameter seeds (seedDiameter): every
// closed-form value a generator stores must equal the oracle's
// independently computed diameter. The seeds are what make the
// nqscaling-xl cells tractable, so a wrong formula would silently skew
// the NQ_k ceiling — this suite pins each family across sizes that
// cover the degenerate shapes (single node, missing last tree level,
// odd and even cycles and tori).

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
)

func TestAnalyticDiameters(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{}
	add := func(name string, g *graph.Graph) {
		cases = append(cases, struct {
			name string
			g    *graph.Graph
		}{name, g})
	}
	for _, n := range []int{1, 2, 3, 4, 5, 8, 17, 64} {
		add("path", graph.Path(n))
		add("cycle", graph.Cycle(n))
		add("complete", graph.Complete(n))
		add("star", graph.Star(n))
		add("tree", graph.BinaryTree(n))
	}
	for _, side := range []int{1, 2, 3, 4, 7} {
		add("grid2", graph.Grid(side, 2))
		add("grid3", graph.Grid(side, 3))
		add("torus2", graph.Torus(side, 2))
		add("torus3", graph.Torus(side, 3))
	}
	for _, d := range []int{0, 1, 2, 5} {
		add("hypercube", graph.Hypercube(d))
	}
	for _, shape := range [][2]int{{1, 0}, {1, 5}, {2, 0}, {2, 1}, {4, 0}, {4, 7}, {8, 20}} {
		add("lollipop", graph.Lollipop(shape[0], shape[1]))
	}
	for rings := 1; rings <= 10; rings++ {
		for size := 1; size <= 6; size++ {
			add(fmt.Sprintf("ringofcliques %d×%d", rings, size), graph.RingOfCliques(rings, size))
		}
	}
	for _, c := range cases {
		want := oracle.Diameter(c.g)
		if got := c.g.Diameter(); got != want {
			t.Errorf("%s (n=%d): seeded diameter %d, oracle %d", c.name, c.g.N(), got, want)
		}
	}
}
