// Command hybridsim runs one algorithm of the library on one graph
// family and prints the full per-phase round audit — the quickest way to
// inspect how a universal algorithm spends its rounds.
//
// Usage:
//
//	hybridsim -algo disseminate -family grid2d -n 1024 -k 1024
//	hybridsim -algo route -family path -n 512 -k 256 -l 4
//	hybridsim -algo sssp|kssp|apsp-unweighted|apsp-sparse|apsp-spanner|apsp-skeleton|cuts ...
package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strings"

	"repro/hybridnet"
	"repro/internal/cliutil"
	"repro/internal/graph"
)

// algorithms are the -algo values, one per case of run's switch.
var algorithms = []string{"disseminate", "aggregate", "route", "bcc", "sssp", "kssp",
	"apsp-unweighted", "apsp-sparse", "apsp-spanner", "apsp-skeleton", "klsp", "cuts"}

func main() { os.Exit(exitCode(os.Args[1:], os.Stdout, os.Stderr)) }

// exitCode runs the command and reports a failure on stderr as one
// line under the binary's name, the error's only prefix.
func exitCode(args []string, stdout, stderr io.Writer) int {
	if err := run(args, stdout); err != nil {
		fmt.Fprintln(stderr, "hybridsim:", err)
		return 1
	}
	return 0
}

func run(args []string, w io.Writer) error {
	fs := cliutil.NewFlagSet(w, "hybridsim",
		"Run one algorithm of the library on one graph family and print the full per-phase round audit.",
		"hybridsim -algo disseminate -family grid2d -n 1024 -k 1024",
		"hybridsim -algo route -family path -n 512 -k 256 -l 4",
		"hybridsim -algo sssp -family expander -n 1024 -eps 0.25",
	)
	algo := fs.String("algo", "disseminate", strings.Join(algorithms, "|"))
	family := fs.String("family", "grid2d", "graph family")
	n := fs.Int("n", 1024, "approximate node count")
	k := fs.Int("k", 0, "workload (default n)")
	l := fs.Int("l", 4, "targets for routing/klsp")
	eps := fs.Float64("eps", 0.5, "approximation parameter")
	seed := fs.Int64("seed", 1, "random seed")
	hybrid0 := fs.Bool("hybrid0", false, "use the HYBRID0 variant")
	workers := fs.Int("workers", 0, "worker budget for the parallel graph kernels (0 = GOMAXPROCS); output is byte-identical at any setting")
	if err := fs.Parse(args); err != nil {
		if cliutil.HelpRequested(err) {
			return nil
		}
		return err
	}

	if !slices.Contains(algorithms, *algo) {
		return fmt.Errorf("unknown algorithm %q", *algo)
	}

	graph.SetMaxKernelWorkers(*workers)
	rng := rand.New(rand.NewSource(*seed))
	g, err := graph.Build(graph.Family(*family), *n, rng)
	if err != nil {
		return err
	}
	cfg := hybridnet.Config{Seed: *seed}
	if *hybrid0 {
		cfg.Variant = hybridnet.HYBRID0
	}
	net, err := hybridnet.NewNetwork(g, cfg)
	if err != nil {
		return err
	}
	nn := net.N()
	kk := *k
	if kk <= 0 {
		kk = nn
	}
	fmt.Fprintf(w, "# %s on %s: n=%d m=%d D=%d γ=%d\n", *algo, *family, nn, g.M(), g.Diameter(), net.Cap())

	switch *algo {
	case "disseminate":
		tokens := make([]int, nn)
		tokens[0] = kk
		res, err := net.Disseminate(tokens)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "k=%d NQ_k=%d clusters=%d → %d rounds\n", res.K, res.NQ, res.Clusters, res.Rounds)
	case "aggregate":
		_, res, err := net.Aggregate(kk, nil, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "k=%d NQ_k=%d → %d rounds\n", res.K, res.NQ, res.Rounds)
	case "bcc":
		res, err := net.BCCRound()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "one BCC round: NQ_n=%d → %d rounds\n", res.NQ, res.Rounds)
	case "route":
		sources := make([]int, min(kk, nn))
		for i := range sources {
			sources[i] = i
		}
		targets := hybridnet.SampleNodes(nn, float64(*l)/float64(nn), rng)
		if len(targets) == 0 {
			targets = []int{nn - 1}
		}
		res, err := net.Route(hybridnet.RoutingSpec{
			Case:    hybridnet.ArbitrarySourcesRandomTargets,
			Sources: sources, Targets: targets, K: kk, L: *l,
		}, rng)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "k=%d ℓ=%d pairs=%d NQ_k=%d → %d rounds (conditions met: %v)\n",
			res.K, res.L, res.Pairs, res.NQ, res.Rounds, res.ConditionsMet)
	case "sssp":
		if _, err := net.SSSP(0, *eps); err != nil {
			return err
		}
		fmt.Fprintf(w, "(1+%.2f)-SSSP → %d rounds\n", *eps, net.Rounds())
	case "kssp":
		sources := hybridnet.SampleNodes(nn, float64(kk)/float64(nn), rng)
		_, res, err := net.KSSP(sources, *eps, true, rng, false)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "k=%d regime=%q stretch=%.2f → %d rounds\n", len(sources), res.Regime, res.Stretch, res.Rounds)
	case "apsp-unweighted":
		_, res, err := net.UnweightedAPSP(*eps, false)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "NQ_n=%d stretch=%.2f → %d rounds\n", res.NQ, res.Stretch, res.Rounds)
	case "apsp-sparse":
		_, res, err := net.SparseAPSP(false)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "NQ=%d payload=%d edges → %d rounds (exact)\n", res.NQ, res.PayloadTokens, res.Rounds)
	case "apsp-spanner":
		_, res, err := net.SpannerAPSP(*eps, false)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "NQ=%d stretch=%.2f payload=%d → %d rounds\n", res.NQ, res.Stretch, res.PayloadTokens, res.Rounds)
	case "apsp-skeleton":
		_, res, err := net.SkeletonAPSP(1, rng, false)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "NQ=%d stretch=%.2f payload=%d → %d rounds\n", res.NQ, res.Stretch, res.PayloadTokens, res.Rounds)
	case "klsp":
		sources := make([]int, min(kk, nn))
		for i := range sources {
			sources[i] = i
		}
		targets := hybridnet.SampleNodes(nn, float64(*l)/float64(nn), rng)
		if len(targets) == 0 {
			targets = []int{nn - 1}
		}
		_, res, err := net.KLSP(sources, targets, *eps, hybridnet.KLSPArbitrarySources, rng, false)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "k=%d ℓ=%d NQ_k=%d stretch=%.2f → %d rounds\n", len(sources), len(targets), res.NQ, res.Stretch, res.Rounds)
	case "cuts":
		_, res, err := net.ApproxCuts(*eps, rng)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "sparsifier=%d edges NQ=%d → %d rounds\n", res.SparsifierEdges, res.NQ, res.Rounds)
	}
	fmt.Fprintln(w, "\nround audit:")
	fmt.Fprint(w, net.Audit())
	return nil
}
