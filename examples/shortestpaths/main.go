// Shortest paths across the HYBRID toolbox: runs SSSP (Theorem 13),
// k-SSP (Theorem 14), and three APSP algorithms (Theorems 6–8) on a
// weighted grid, verifying the stretch guarantees against exact Dijkstra
// and printing the measured rounds next to the eÕ(√n) existential bound
// the paper improves on.
//
// Run:  go run ./examples/shortestpaths
package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"

	"repro/hybridnet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "shortestpaths:", err)
		os.Exit(1)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(42))
	g := hybridnet.RandomWeights(hybridnet.Grid2D(16), 50, rng) // weighted 256-node grid
	n := g.N()
	sqrtN := math.Sqrt(float64(n))

	// Theorem 13: (1+ε)-SSSP in eÕ(1/ε²) rounds.
	net, err := hybridnet.NewNetwork(g, hybridnet.Config{Variant: hybridnet.HYBRID0})
	if err != nil {
		return err
	}
	eps := 0.25
	est, err := net.SSSP(0, eps)
	if err != nil {
		return err
	}
	exact := g.Dijkstra(0)
	worst := 1.0
	for v := range est {
		if exact[v] > 0 {
			if r := float64(est[v]) / float64(exact[v]); r > worst {
				worst = r
			}
		}
	}
	fmt.Printf("Theorem 13 SSSP (ε=%.2f): %d rounds, measured stretch ≤ %.3f (guarantee %.2f)\n",
		eps, net.Rounds(), worst, 1+eps)
	fmt.Printf("  prior best: eÕ(n^(5/17)) = %.0f·polylog [CHLP21], eÕ(√n) = %.0f·polylog [AG21]\n\n",
		math.Pow(float64(n), 5.0/17.0), sqrtN)

	// Theorem 14: k-SSP from random sources.
	net.ResetRounds()
	k := 24
	sources := hybridnet.SampleNodes(n, float64(k)/float64(n), rng)
	dist, kres, err := net.KSSP(sources, 0.5, true, rng, true)
	if err != nil {
		return err
	}
	fmt.Printf("Theorem 14 k-SSP (k=%d, regime %q): %d rounds, stretch ≤ %.2f\n",
		len(sources), kres.Regime, kres.Rounds, kres.Stretch)
	fmt.Printf("  skeleton: %d nodes, h=%d hops; exact-vs-estimate check on source 0: ", kres.SkeletonSize, kres.H)
	d0 := g.Dijkstra(sources[0])
	ok := true
	for v := range d0 {
		if dist[0][v] < d0[v] || float64(dist[0][v]) > kres.Stretch*float64(d0[v])+1e-6 {
			ok = false
			break
		}
	}
	fmt.Printf("%v\n\n", ok)

	// APSP family.
	for _, algo := range []struct {
		name string
		run  func(*hybridnet.Network) (*hybridnet.APSPResult, error)
	}{
		{"Theorem 6 unweighted (1+ε)", func(nw *hybridnet.Network) (*hybridnet.APSPResult, error) {
			_, r, err := nw.UnweightedAPSP(0.5, false)
			return r, err
		}},
		{"Corollary 2.2 sparse exact", func(nw *hybridnet.Network) (*hybridnet.APSPResult, error) {
			_, r, err := nw.SparseAPSP(false)
			return r, err
		}},
		{"Theorem 7 spanner (stretch 1+ε·log n)", func(nw *hybridnet.Network) (*hybridnet.APSPResult, error) {
			_, r, err := nw.SpannerAPSP(0.5, false)
			return r, err
		}},
		{"Theorem 8 skeleton (stretch 3)", func(nw *hybridnet.Network) (*hybridnet.APSPResult, error) {
			_, r, err := nw.SkeletonAPSP(1, rng, false)
			return r, err
		}},
	} {
		nw, err := hybridnet.NewNetwork(g, hybridnet.Config{})
		if err != nil {
			return err
		}
		res, err := algo.run(nw)
		if err != nil {
			return err
		}
		fmt.Printf("%-42s %6d rounds (NQ_n=%d, payload %d tokens, stretch %.2f)\n",
			algo.name+":", res.Rounds, res.NQ, res.PayloadTokens, res.Stretch)
	}
	fmt.Printf("%-42s %6.0f·polylog rounds\n", "existential eΘ(√n) APSP [KS20]:", sqrtN)
	return nil
}
