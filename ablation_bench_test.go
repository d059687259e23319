package repro_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/sssp"
	"repro/internal/unicast"
)

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// γ-dependence of the skeleton scheduling (Theorem 14 in HYBRID(∞,γ)),
// the adaptive helper sets of Theorem 3 versus sending directly, and the
// NQ_k clustering of Theorem 1 versus an NCC-only pipeline and the LOCAL
// flood.

// BenchmarkAblationGammaScaling sweeps the global capacity γ (the
// CapFactor of HYBRID(∞, γ)) for a fixed k-SSP instance: Theorem 14
// predicts eÕ(√(k/γ)) rounds, so quadrupling γ should halve the
// skeleton-regime cost, and k ≤ γ collapses to eÕ(1/ε²).
func BenchmarkAblationGammaScaling(b *testing.B) {
	g := mustGraph(b, graph.FamilyPath, benchN)
	n := g.N()
	k := 48 // below n^{2/3} ≈ 69, so the skeleton regime is exercised
	for _, capFactor := range []int{1, 2, 4, 16} {
		b.Run(fmt.Sprintf("gamma=%dx", capFactor), func(b *testing.B) {
			var rounds int
			var regime string
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i + 1)))
				net, err := hybrid.New(g, hybrid.Config{CapFactor: capFactor, Seed: int64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				sources := unicast.SampleNodes(n, float64(k)/float64(n), rng)
				_, res, err := sssp.KSSP(net, sources, 0.5, true, rng, false)
				if err != nil {
					b.Fatal(err)
				}
				rounds, regime = res.Rounds, res.Regime.String()
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.Logf("regime: %s", regime)
		})
	}
}

// BenchmarkAblationRelayHashing isolates the Lemma 5.3 design choice:
// relaying the k·ℓ messages of a routing instance through κ-wise
// independently hashed intermediates (load ≈ kℓ/n + log n per node)
// versus funnelling them through one fixed relay (load k·ℓ, so the
// relay's receive capacity forces ≥ 2kℓ/γ rounds). Only the relay stage
// is measured — everything else in Theorem 3 is identical.
func BenchmarkAblationRelayHashing(b *testing.B) {
	g := mustGraph(b, graph.FamilyGrid2D, benchN)
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
			net := mustNet(b, g, int64(i+1))
			h, err := unicast.NewHash(n, 64, rng)
			if err != nil {
				b.Fatal(err)
			}
			out := make([]int, n)
			in := make([]int, n)
			load := make([]int, n)
			for _, p := range pairs {
				mid := h.Eval(int64(p[0]), int64(p[1]))
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
			net := mustNet(b, g, int64(i+1))
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

// BenchmarkAblationClustering compares Theorem 1 against the NCC-only
// overlay pipeline and the LOCAL flood on two extreme families: the
// ring of cliques (small NQ_k: clustering wins) and the path (NQ_k =
// Θ(√k): the LOCAL flood is competitive since D ≈ n).
func BenchmarkAblationClustering(b *testing.B) {
	for _, fam := range []graph.Family{graph.FamilyRingOfCliques, graph.FamilyPath} {
		g := mustGraph(b, fam, benchN)
		n := g.N()
		k := 4 * n
		b.Run(fmt.Sprintf("%s/theorem1", fam), func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				net := mustNet(b, g, int64(i+1))
				tokens := make([]int, n)
				tokens[0] = k
				res, err := broadcast.Disseminate(net, tokens)
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
		b.Run(fmt.Sprintf("%s/ncc-pipeline", fam), func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				net := mustNet(b, g, int64(i+1))
				rounds = baseline.NaiveTreeBroadcast(net, k)
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
		b.Run(fmt.Sprintf("%s/local-flood", fam), func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				net := mustNet(b, g, int64(i+1))
				net.TickLocal("ablation/flood", int(g.Diameter()))
				rounds = net.Rounds()
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkAblationKnowledgeTracking measures the engine overhead of
// HYBRID₀ identifier-knowledge enforcement (bitsets + checks) on the
// same Theorem 1 run — a simulator cost, not a round cost: the round
// counts must be identical.
func BenchmarkAblationKnowledgeTracking(b *testing.B) {
	g := mustGraph(b, graph.FamilyGrid2D, 256)
	for _, track := range []bool{false, true} {
		b.Run(fmt.Sprintf("track=%v", track), func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				net, err := hybrid.New(g, hybrid.Config{
					Variant:        hybrid.VariantHybrid0,
					TrackKnowledge: track,
					Seed:           int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				tokens := make([]int, g.N())
				tokens[0] = g.N()
				res, err := broadcast.Disseminate(net, tokens)
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}
