package apsp

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/nq"
	"repro/internal/skeleton"
	"repro/internal/spanner"
)

// BenchmarkSkeletonSpanner times Theorem 8's skeleton spanner at α = 1:
// one op is spanner.Compute(S, 1) on the skeleton S that Skeleton
// samples for each of the 11 families at n = 576, the families and size
// of a default report's Table 2 (graph and sample seed 1). The
// skeletons are built once, outside the timer.
func BenchmarkSkeletonSpanner(b *testing.B) {
	const n = 576
	var skels []*graph.Graph
	for _, f := range graph.Families() {
		g, err := graph.Build(f, n, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		q, err := nq.Of(g, g.N())
		if err != nil {
			b.Fatal(err)
		}
		sk, err := skeleton.Build(g, skeletonT(g.N(), q, 1), nil, true, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		skels = append(skels, sk.S)
	}
	for b.Loop() {
		for _, s := range skels {
			if _, err := spanner.Compute(s, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}
