// Command experiments regenerates every table and figure of the paper's
// results section by sweeping the registered scenarios of
// internal/experiments on a parallel runner.
//
// Usage:
//
//	experiments                        # everything at the default scale
//	experiments -table 1 -n 1024
//	experiments -figure 1
//	experiments -nq                    # Theorem 15/16 scaling tables
//	experiments -parallel 8            # worker-pool size (0 = GOMAXPROCS)
//	experiments -families path,grid2d  # restrict the family axis
//	experiments -format jsonl          # md (default), csv or jsonl
//
// Output is deterministic for a fixed seed regardless of -parallel.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/graph"
)

func main() { os.Exit(exitCode(os.Args[1:], os.Stdout, os.Stderr)) }

// exitCode runs the command and reports a failure on stderr as one
// line under the binary's name, the error's only prefix.
func exitCode(args []string, stdout, stderr io.Writer) int {
	if err := run(args, stdout); err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	return 0
}

func run(args []string, w io.Writer) error {
	fs := cliutil.NewFlagSet(w, "experiments",
		"Regenerate the paper's tables and figures by sweeping the registered scenarios on a parallel runner.",
		"experiments                        # everything at the default scale",
		"experiments -table 1 -n 1024",
		"experiments -figure 1",
		"experiments -nq                    # Theorem 15/16 scaling tables",
		"experiments -parallel 8            # worker-pool size (0 = GOMAXPROCS)",
		"experiments -families path,grid2d  # restrict the family axis",
		"experiments -format jsonl          # md (default), csv or jsonl",
	)
	table := fs.Int("table", 0, "regenerate one table (1-4); 0 = all")
	figure := fs.Int("figure", 0, "regenerate figure 1")
	nqOnly := fs.Bool("nq", false, "only the NQ scaling tables")
	n := fs.Int("n", 576, "approximate node count")
	seed := fs.Int64("seed", 1, "random seed")
	parallel := fs.Int("parallel", 0, "sweep worker-pool size (0 = GOMAXPROCS)")
	families := fs.String("families", "", "comma-separated graph families (default: all; figure 1 defaults to path,grid2d and the NQ section intersects with its four theorem families)")
	format := fs.String("format", "md", "output format: md, csv or jsonl")
	if help, err := cliutil.Parse(fs, args); help || err != nil {
		return err
	}

	cfg := experiments.ReportConfig{
		N:       *n,
		Seed:    *seed,
		Workers: *parallel,
		Format:  *format,
	}
	if *families != "" {
		fams, err := parseFamilies(*families)
		if err != nil {
			return err
		}
		cfg.Families = fams
	}
	switch {
	case *nqOnly:
		cfg.NQ = true
		cfg.Tables = []int{}
	case *table != 0:
		cfg.Tables = []int{*table}
	case *figure == 1:
		cfg.Figure1 = true
		cfg.Tables = []int{}
	}
	return experiments.WriteReport(w, cfg)
}

func parseFamilies(s string) ([]graph.Family, error) {
	known := make(map[graph.Family]bool)
	for _, f := range graph.Families() {
		known[f] = true
	}
	var out []graph.Family
	for _, part := range strings.Split(s, ",") {
		f := graph.Family(strings.TrimSpace(part))
		if !known[f] {
			return nil, fmt.Errorf("unknown family %q (known: %v)", f, graph.Families())
		}
		out = append(out, f)
	}
	return out, nil
}
