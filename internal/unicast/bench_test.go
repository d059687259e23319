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

// BenchmarkAblationRelayHashing isolates the Lemma 5.3 design choice:
// relaying the k·ℓ messages of a routing instance through κ-wise
// independently hashed intermediates (load ≈ kℓ/n + log n per node)
// versus funnelling them through one fixed relay (load k·ℓ, so the
// relay's receive capacity forces ≥ 2kℓ/γ rounds). Only the relay stage
// is measured — everything else in Theorem 3 is identical.
func BenchmarkAblationRelayHashing(b *testing.B) {
	g, err := graph.Build(graph.FamilyGrid2D, 576, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	n := g.N()
	k, l := n, 8
	pairs := make([][2]int, 0, k*l)
	for s := 0; s < k; s++ {
		for t := 0; t < l; t++ {
			pairs = append(pairs, [2]int{s, (s*31 + t*97) % n})
		}
	}
	b.Run("hashed-relays", func(b *testing.B) {
		var rounds, maxLoad int
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(int64(i + 1)))
			net, err := hybrid.New(g, hybrid.Config{Seed: int64(i + 1)})
			if err != nil {
				b.Fatal(err)
			}
			h, err := NewHash(n, 64, rng)
			if err != nil {
				b.Fatal(err)
			}
			out := make([]int, n)
			in := make([]int, n)
			load := make([]int, n)
			for _, p := range pairs {
				mid := h.eval(int64(p[0]), int64(p[1]))
				out[p[0]]++
				in[mid]++
				load[mid]++
			}
			rounds = net.LoadRounds("ablation/hashed", out, in)
			maxLoad = 0
			for _, x := range load {
				if x > maxLoad {
					maxLoad = x
				}
			}
		}
		b.ReportMetric(float64(rounds), "rounds")
		b.ReportMetric(float64(maxLoad), "max-relay-load")
	})
	b.Run("single-relay", func(b *testing.B) {
		var rounds int
		for i := 0; i < b.N; i++ {
			net, err := hybrid.New(g, hybrid.Config{Seed: int64(i + 1)})
			if err != nil {
				b.Fatal(err)
			}
			out := make([]int, n)
			in := make([]int, n)
			for _, p := range pairs {
				out[p[0]]++
				in[0]++ // every message through node 0
			}
			rounds = net.LoadRounds("ablation/single", out, in)
		}
		b.ReportMetric(float64(rounds), "rounds")
		b.ReportMetric(float64(len(pairs)), "max-relay-load")
	})
}
