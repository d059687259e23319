package experiments

import (
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/runner"
)

// Default sweep axes applied by every entry point (WriteReport,
// Generate, the sweep service) when a request leaves them zero, so
// equivalent requests canonicalize identically.
const (
	// DefaultN is the approximate instance size.
	DefaultN = 576
	// DefaultSeed drives all randomized runs.
	DefaultSeed = 1
)

// ReportConfig selects what WriteReport regenerates and how.
type ReportConfig struct {
	// N is the approximate instance size (default DefaultN).
	N int
	// Seed drives all randomized runs (default DefaultSeed).
	Seed int64
	// Tables selects tables 1–4 (nil = all); Figure1 and NQ toggle the
	// figure and the NQ-scaling section.
	Tables  []int
	Figure1 bool
	NQ      bool
	// Families restricts the family axis (nil = DefaultFamilies, i.e.
	// all eleven built-in families). Figure 1 replaces its default
	// path/grid2d pair with this list; the NQ-scaling section uses the
	// intersection with NQFamilies, since only those carry a
	// Theorem 15/16 prediction.
	Families []graph.Family
	// Workers is the sweep worker-pool size (≤ 0 = GOMAXPROCS). Output
	// is byte-identical at any worker count.
	Workers int
	// Format selects the sink: "md" (default), "csv", or "jsonl".
	Format string
}

func (c *ReportConfig) defaults() {
	if c.N <= 0 {
		c.N = DefaultN
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	if c.Tables == nil && !c.Figure1 && !c.NQ {
		c.Tables = []int{1, 2, 3, 4}
		c.Figure1 = true
		c.NQ = true
	}
	if c.Format == "" {
		c.Format = "md"
	}
}

func (c *ReportConfig) families() []graph.Family {
	if len(c.Families) > 0 {
		return c.Families
	}
	return DefaultFamilies()
}

// formatSpec is the single source of truth for a result format: the
// sink that renders it and the media type it is served under. The
// sweep service derives its Content-Type negotiation from this same
// table (Formats, FormatContentType), so the HTTP whitelist cannot
// drift from what NewSink accepts.
type formatSpec struct {
	contentType string
	newSink     func(io.Writer) runner.Sink
}

var formatSpecs = map[string]formatSpec{
	"md":    {"text/markdown; charset=utf-8", func(w io.Writer) runner.Sink { return &runner.MarkdownSink{W: w} }},
	"csv":   {"text/csv; charset=utf-8", func(w io.Writer) runner.Sink { return runner.NewCSVSink(w) }},
	"jsonl": {"application/x-ndjson", func(w io.Writer) runner.Sink { return runner.NewJSONLSink(w) }},
}

// Formats lists the supported result formats in canonical order.
func Formats() []string { return []string{"md", "csv", "jsonl"} }

// FormatContentType returns the media type a format is served under
// ("" means the markdown default) and whether the format is known.
func FormatContentType(format string) (string, bool) {
	if format == "" {
		format = "md"
	}
	spec, ok := formatSpecs[format]
	return spec.contentType, ok
}

// NewSink builds the result sink for the configured format.
func (c *ReportConfig) NewSink(w io.Writer) (runner.Sink, error) {
	format := c.Format
	if format == "" {
		format = "md"
	}
	spec, ok := formatSpecs[format]
	if !ok {
		return nil, fmt.Errorf("unknown format %q (want md, csv or jsonl)", c.Format)
	}
	return spec.newSink(w), nil
}

// WriteReport regenerates the selected artifacts on w — the
// programmatic form of `cmd/experiments`. Each selected section's
// registered scenario is swept on a Workers-sized pool and streamed
// into the configured sink.
func WriteReport(w io.Writer, cfg ReportConfig) error {
	cfg.defaults()
	sink, err := cfg.NewSink(w)
	if err != nil {
		return err
	}
	// One topology cache and one derived-profile cache for the whole
	// report: the sweep points share their topology instance, and a
	// seed-free family's (family, n) instance is shared across sections
	// too, so every distinct graph is built exactly once and grows its
	// ball-profile artifact at most once (through the profile cache for
	// nqscaling, on the shared graph by nq itself for the tables).
	// Sharing does not change the output — a cached instance is
	// byte-identical to a per-cell build, and profile-served NQ values
	// equal per-cell ball growth (DESIGN.md §9–10).
	run := &runner.Runner{
		Workers:  cfg.Workers,
		Graphs:   runner.NewGraphCache(nil, 0),
		Profiles: runner.NewProfileCache(nil, 0),
	}
	var names []string
	if cfg.NQ {
		names = append(names, "nq")
	}
	for _, tbl := range cfg.Tables {
		name := fmt.Sprintf("table%d", tbl)
		if _, ok := lookup(name); !ok {
			return fmt.Errorf("unknown table %d", tbl)
		}
		names = append(names, name)
	}
	if cfg.Figure1 {
		names = append(names, "figure1")
	}
	for _, name := range names {
		gen, _ := lookup(name)
		tables, err := gen(cfg, run)
		if err != nil {
			return err
		}
		for _, t := range tables {
			if err := runner.WriteTable(sink, t); err != nil {
				return err
			}
		}
	}
	return nil
}
