// Command e2ebench is the repository's end-to-end benchmark: it drives
// an in-process hybridnet.Server through one of three workloads, checks
// every rendered byte against a reference, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics of a traced run) as
// the last line of standard output.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload cold-report --seed 1 --seconds 30 --trace 0
//
// Workloads (README.md has the full rationale):
//
//	cold-report   fresh no-disk server per pass; the six default report
//	              scenarios over all families — simulation-bound.
//	warm-serve    one filled server; a closed loop of one HTTP client
//	              resubmitting and fetching cached sweeps — serving-bound.
//	restore-bump  reopen a filled disk tier under a bumped code version and
//	              re-sweep nqscaling-large — graph/profile restore-bound.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	reportN  int    // instance size of the report scenarios
	largeN   int    // base size of nqscaling-large (instances reach 16×)
	out      string // directory for the run's scratch files and span file
	workDir  string // fresh per run under out; removed at exit
	traceOut string // span file written at exit (trace runs)
	corrupt  bool   // test hook: corrupt one digest of the first pass
	log      io.Writer
}

// setupRuns is the number of timed set-ups per run; setup_s is their
// median. Each workload first builds its reference untimed, which also
// warms the process, so every timed set-up starts from the same state.
const setupRuns = 5

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(*config, *gate) (map[string]metric, error){
	"cold-report":  runColdReport,
	"warm-serve":   runWarmServe,
	"restore-bump": runRestoreBump,
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "cold-report, warm-serve or restore-bump")
	seed := fs.Int64("seed", 1, "workload seed (becomes SweepRequest.Seed)")
	seconds := fs.Float64("seconds", 30, "length of the measured window")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for the run's scratch files and span file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	return execute(&config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		reportN: 576, largeN: 256, out: *out, log: stderr,
	}, stdout)
}

// execute runs one configured invocation and prints its environment
// block and result line.
func execute(cfg *config, stdout io.Writer) error {
	spec, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want cold-report, warm-serve or restore-bump)", cfg.workload)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(cfg.out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	cfg.workDir = work
	if cfg.trace {
		cfg.traceOut = filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	}

	env := environment(cfg)
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "environment %s\n", envLine)

	g := &gate{log: cfg.log}
	metrics, err := spec(cfg, g)
	if err != nil {
		return err
	}
	res := result{Correct: g.failed == 0, Attempted: g.attempted, Failed: g.failed, Metrics: metrics}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// environment is the machine block printed with every run.
func environment(cfg *config) map[string]any {
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"git_commit": gitCommit(),
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the VCS revision stamped into the binary by go build;
// "unknown" when the benchmark was built outside a git checkout.
func gitCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// deadline is the end of a measured window that starts now.
func (c *config) deadline() time.Time {
	return time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
}
