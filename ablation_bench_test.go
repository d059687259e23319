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
// γ-dependence of the skeleton scheduling (Theorem 14 in HYBRID(∞,γ))
// and the NQ_k clustering of Theorem 1 versus an NCC-only pipeline and
// the LOCAL flood. The Theorem 3 relay-hashing ablation lives with the
// hash, as internal/unicast's BenchmarkAblationRelayHashing.

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
