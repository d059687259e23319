package unicast

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/hybrid"
)

// BenchmarkRoute times one table1-sized Theorem 3 case (1) routing on a
// fresh network per op: k = n sources on the 576-node torus send to 4
// targets, over a graph whose diameter and ball profiles are already
// attached, as in a report cell. The relay's hash evaluation on the
// 2304 pairs dominates.
func BenchmarkRoute(b *testing.B) {
	g, err := graph.Build(graph.FamilyTorus2D, 576, nil)
	if err != nil {
		b.Fatal(err)
	}
	n := g.N()
	spec := Spec{Case: ArbitrarySourcesRandomTargets, Targets: []int{17, 200, 333, 511}, K: n, L: 4}
	for v := range n {
		spec.Sources = append(spec.Sources, v)
	}
	run := func() {
		net, err := hybrid.New(g, hybrid.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Route(net, spec, rand.New(rand.NewSource(1))); err != nil {
			b.Fatal(err)
		}
	}
	run() // attach the graph's diameter and ball profiles
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
