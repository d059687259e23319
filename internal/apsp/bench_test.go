package apsp

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/nq"
	"repro/internal/skeleton"
	"repro/internal/spanner"
)

// BenchmarkSkeletonBuild times Theorem 8's skeleton construction
// (Definition 6.2) with its edges: one op of each family's
// sub-benchmark is skeleton.Build(g, t, nil, true, ·) on the family's
// n = 576 graph with Table 2's t at α = 1 (graph and sample seed 1),
// the skeletons a default report builds. The graph, its diameter and
// NQ_n are computed once, outside the timer.
func BenchmarkSkeletonBuild(b *testing.B) {
	const n = 576
	for _, f := range graph.Families() {
		g, err := graph.Build(f, n, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		q, err := nq.Of(g, g.N())
		if err != nil {
			b.Fatal(err)
		}
		t := skeletonT(g.N(), q, 1)
		b.Run(string(f), func(b *testing.B) {
			for b.Loop() {
				if _, err := skeleton.Build(g, t, nil, true, rand.New(rand.NewSource(1))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

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
