// Package repro_test hosts the benchmark harness: one testing.B benchmark
// per table and figure of the paper (see the experiment index in the
// internal/experiments package documentation). Each benchmark runs
// the corresponding universal algorithm in the simulator and reports the
// measured synchronous-round count (metric "rounds") next to the
// evaluated prior-work formula ("baseline-rounds") and, where defined,
// the Section 7 lower bound ("lowerbound-rounds"), so `go test -bench`
// output regenerates the paper's comparisons:
//
//	go test -bench=. -benchmem                 # everything
//	go test -bench=BenchmarkTable1 -benchtime=1x
//
// Absolute wall-clock times measure the simulator, not the algorithms;
// the scientific content is in the round metrics.
package repro_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/apsp"
	"repro/internal/baseline"
	"repro/internal/broadcast"
	"repro/internal/cuts"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/lower"
	"repro/internal/runner"
	"repro/internal/sssp"
	"repro/internal/unicast"
)

const benchN = 576 // default instance size for every table

func benchFamilies() []graph.Family {
	return []graph.Family{graph.FamilyPath, graph.FamilyGrid2D, graph.FamilyGrid3D, graph.FamilyRingOfCliques}
}

func mustNet(b *testing.B, g *graph.Graph, seed int64) *hybrid.Net {
	b.Helper()
	net, err := hybrid.New(g, hybrid.Config{Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	return net
}

func mustGraph(b *testing.B, fam graph.Family, n int) *graph.Graph {
	b.Helper()
	g, err := graph.Build(fam, n, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func params(net *hybrid.Net, k, l int, eps float64) baseline.Params {
	return baseline.Params{
		N: net.N(), K: k, L: l, PLog: net.PLog(),
		Eps: eps, Diam: net.Graph().Diameter(),
	}
}

// BenchmarkTable1Dissemination regenerates the broadcast half of Table 1:
// Theorem 1 rounds vs the [AHK+20] eÕ(√k+ℓ) formula and the Theorem 4
// lower bound, per family and k.
func BenchmarkTable1Dissemination(b *testing.B) {
	for _, fam := range benchFamilies() {
		g := mustGraph(b, fam, benchN)
		for _, k := range []int{benchN / 4, benchN, 4 * benchN} {
			b.Run(fmt.Sprintf("%s/k=%d", fam, k), func(b *testing.B) {
				var rounds, nqv int
				for i := 0; i < b.N; i++ {
					net := mustNet(b, g, int64(i+1))
					tokens := make([]int, g.N())
					tokens[0] = k
					res, err := broadcast.Disseminate(net, tokens)
					if err != nil {
						b.Fatal(err)
					}
					rounds, nqv = res.Rounds, res.NQ
				}
				net := mustNet(b, g, 1)
				lb, err := lower.Dissemination(g, k, net.Cap(), 0.9)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rounds), "rounds")
				b.ReportMetric(float64(nqv), "NQ_k")
				b.ReportMetric(baseline.AHKDissemination(params(net, k, 1, 0)), "baseline-rounds")
				b.ReportMetric(lb.Rounds, "lowerbound-rounds")
			})
		}
	}
}

// BenchmarkTable1Aggregation regenerates the k-aggregation row of
// Table 1 (Theorem 2).
func BenchmarkTable1Aggregation(b *testing.B) {
	for _, fam := range benchFamilies() {
		g := mustGraph(b, fam, benchN)
		b.Run(string(fam), func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				net := mustNet(b, g, int64(i+1))
				_, res, err := broadcast.Aggregate(net, g.N(), nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkTable1Unicast regenerates the unicast row of Table 1:
// Theorem 3 case (1) vs the [KS20] eÕ(√k+kℓ/n) formula.
func BenchmarkTable1Unicast(b *testing.B) {
	for _, fam := range benchFamilies() {
		g := mustGraph(b, fam, benchN)
		n := g.N()
		k, l := n/2, 4
		b.Run(fmt.Sprintf("%s/k=%d/l=%d", fam, k, l), func(b *testing.B) {
			var rounds int
			var pairs int64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i + 1)))
				net := mustNet(b, g, int64(i+1))
				sources := make([]int, k)
				for j := range sources {
					sources[j] = j
				}
				targets := unicast.SampleNodes(n, float64(l)/float64(n), rng)
				if len(targets) == 0 {
					targets = []int{n - 1}
				}
				res, err := unicast.Route(net, unicast.Spec{
					Case:    unicast.ArbitrarySourcesRandomTargets,
					Sources: sources, Targets: targets, K: k, L: l,
				}, rng)
				if err != nil {
					b.Fatal(err)
				}
				rounds, pairs = res.Rounds, res.Pairs
			}
			net := mustNet(b, g, 1)
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(float64(pairs), "pairs")
			b.ReportMetric(baseline.KS20Unicast(params(net, k, l, 0)), "baseline-rounds")
		})
	}
}

// BenchmarkTable1BCC regenerates the Corollary 2.1 BCC-round simulation.
func BenchmarkTable1BCC(b *testing.B) {
	g := mustGraph(b, graph.FamilyGrid2D, benchN)
	var rounds int
	for i := 0; i < b.N; i++ {
		net := mustNet(b, g, int64(i+1))
		res, err := broadcast.SimulateBCCRound(net)
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkTable2APSP regenerates Table 2: the four universal APSP
// algorithms vs the eÕ(√n) prior bound, per family.
func BenchmarkTable2APSP(b *testing.B) {
	algos := []struct {
		name string
		run  func(net *hybrid.Net, rng *rand.Rand) (*apsp.Result, error)
	}{
		{"thm6-unweighted", func(net *hybrid.Net, _ *rand.Rand) (*apsp.Result, error) {
			_, r, err := apsp.Unweighted(net, 0.5, false)
			return r, err
		}},
		{"cor22-sparse", func(net *hybrid.Net, _ *rand.Rand) (*apsp.Result, error) {
			_, r, err := apsp.SparseExact(net, false)
			return r, err
		}},
		{"cor23-spanner", func(net *hybrid.Net, _ *rand.Rand) (*apsp.Result, error) {
			_, r, err := apsp.LogOverLogLog(net, false)
			return r, err
		}},
		{"thm8-skeleton", func(net *hybrid.Net, rng *rand.Rand) (*apsp.Result, error) {
			_, r, err := apsp.Skeleton(net, 1, rng, false)
			return r, err
		}},
	}
	for _, fam := range benchFamilies() {
		g := mustGraph(b, fam, benchN)
		for _, algo := range algos {
			b.Run(fmt.Sprintf("%s/%s", fam, algo.name), func(b *testing.B) {
				var rounds int
				for i := 0; i < b.N; i++ {
					rng := rand.New(rand.NewSource(int64(i + 1)))
					net := mustNet(b, g, int64(i+1))
					res, err := algo.run(net, rng)
					if err != nil {
						b.Fatal(err)
					}
					rounds = res.Rounds
				}
				net := mustNet(b, g, 1)
				b.ReportMetric(float64(rounds), "rounds")
				b.ReportMetric(baseline.KS20APSP(params(net, g.N(), g.N(), 0.5)), "baseline-rounds")
			})
		}
	}
}

// BenchmarkTable2Cuts regenerates the Theorem 9 cut-approximation row.
func BenchmarkTable2Cuts(b *testing.B) {
	for _, fam := range benchFamilies() {
		g := mustGraph(b, fam, benchN)
		b.Run(string(fam), func(b *testing.B) {
			var rounds, edges int
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i + 1)))
				net := mustNet(b, g, int64(i+1))
				_, res, err := cuts.ApproxCuts(net, 0.5, rng, cuts.Options{})
				if err != nil {
					b.Fatal(err)
				}
				rounds, edges = res.Rounds, res.SparsifierEdges
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(float64(edges), "sparsifier-edges")
		})
	}
}

// BenchmarkTable3KLSP regenerates Table 3: Theorem 5 (k,ℓ)-SP vs the
// eΩ(√k) existential and Theorem 11 universal lower bounds.
func BenchmarkTable3KLSP(b *testing.B) {
	for _, fam := range benchFamilies() {
		g := mustGraph(b, fam, benchN)
		n := g.N()
		for _, k := range []int{n / 8, n / 2} {
			b.Run(fmt.Sprintf("%s/k=%d", fam, k), func(b *testing.B) {
				var rounds int
				for i := 0; i < b.N; i++ {
					rng := rand.New(rand.NewSource(int64(i + 1)))
					net := mustNet(b, g, int64(i+1))
					targets := unicast.SampleNodes(n, 3.0/float64(n), rng)
					if len(targets) == 0 {
						targets = []int{n - 1}
					}
					sources := make([]int, k)
					for j := range sources {
						sources[j] = j
					}
					_, res, err := apsp.KLSP(net, sources, targets, 0.5, apsp.KLSPArbitrarySources, rng, false)
					if err != nil {
						b.Fatal(err)
					}
					rounds = res.Rounds
				}
				net := mustNet(b, g, 1)
				lb, err := lower.WeightedKLSP(g, k, net.Cap(), 0.9)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rounds), "rounds")
				b.ReportMetric(lower.ExistentialSqrtK(k, net.Cap()), "existential-lb")
				b.ReportMetric(lb.Rounds, "lowerbound-rounds")
			})
		}
	}
}

// BenchmarkTable4SSSP regenerates Table 4: Theorem 13 vs [AG21]/[CHLP21]/
// [AHK+20] per ε.
func BenchmarkTable4SSSP(b *testing.B) {
	g := mustGraph(b, graph.FamilyGrid2D, benchN)
	for _, eps := range []float64{0.5, 0.25, 0.1} {
		b.Run(fmt.Sprintf("eps=%.2f", eps), func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				net := mustNet(b, g, int64(i+1))
				if _, err := sssp.Approx(net, 0, eps); err != nil {
					b.Fatal(err)
				}
				rounds = net.Rounds()
			}
			net := mustNet(b, g, 1)
			p := params(net, 1, 1, eps)
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(baseline.CHLP21SSSP(p), "chlp21-rounds")
			b.ReportMetric(baseline.AG21SSSP(p), "ag21-rounds")
		})
	}
}

// BenchmarkFigure1KSSP regenerates Figure 1: the k-SSP round exponent
// across k = n^β on the worst-case (path) and grid topologies.
func BenchmarkFigure1KSSP(b *testing.B) {
	for _, fam := range []graph.Family{graph.FamilyPath, graph.FamilyGrid2D} {
		g := mustGraph(b, fam, benchN)
		n := g.N()
		for _, beta := range []float64{0, 1.0 / 3, 0.5, 2.0 / 3, 1} {
			k := betaToK(n, beta)
			b.Run(fmt.Sprintf("%s/beta=%.2f", fam, beta), func(b *testing.B) {
				var rounds int
				var stretch float64
				for i := 0; i < b.N; i++ {
					rng := rand.New(rand.NewSource(int64(i + 1)))
					net := mustNet(b, g, int64(i+1))
					sources := unicast.SampleNodes(n, float64(k)/float64(n), rng)
					if len(sources) == 0 {
						sources = []int{0}
					}
					_, res, err := sssp.KSSP(net, sources, 0.5, true, rng, false)
					if err != nil {
						b.Fatal(err)
					}
					rounds, stretch = res.Rounds, res.Stretch
				}
				net := mustNet(b, g, 1)
				b.ReportMetric(float64(rounds), "rounds")
				b.ReportMetric(stretch, "stretch")
				b.ReportMetric(lower.ExistentialSqrtK(k, net.Cap()), "sqrtk-lb")
				b.ReportMetric(baseline.CHLP21KSSP(params(net, k, 1, 0.5)), "chlp21-rounds")
			})
		}
	}
}

func betaToK(n int, beta float64) int {
	k := int(math.Pow(float64(n), beta))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// BenchmarkRunnerParallel measures the scenario-sweep runner on a full
// Table 2 sweep over all eleven families, serial versus a
// GOMAXPROCS-sized worker pool. The sweep cells are independent, so on
// multi-core hardware the parallel sub-benchmark shows the wall-clock
// win directly (on one core the two coincide); the row outputs are
// byte-identical either way — see the determinism tests in
// internal/runner and internal/experiments.
func BenchmarkRunnerParallel(b *testing.B) {
	variants := []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{fmt.Sprintf("parallel-%d", runtime.GOMAXPROCS(0)), runtime.GOMAXPROCS(0)},
	}
	for _, v := range variants {
		workers := v.workers
		b.Run(v.name, func(b *testing.B) {
			var rows int
			for i := 0; i < b.N; i++ {
				sc := experiments.Table2Scenario(experiments.DefaultFamilies(), 144, 1)
				out, err := runner.Collect(&runner.Runner{Workers: workers}, sc)
				if err != nil {
					b.Fatal(err)
				}
				rows = len(out)
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// BenchmarkNQScaling regenerates the Theorem 15/16 NQ_k tables.
func BenchmarkNQScaling(b *testing.B) {
	var rows []experiments.NQScalingRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.NQScaling(benchN, []int{16, 64, 256, 1024})
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := 0.0
	for _, r := range rows {
		if r.Ratio > worst {
			worst = r.Ratio
		}
	}
	b.ReportMetric(worst, "worst-ratio-vs-theory")
}
