package experiments

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/runner"
)

// A generator sweeps one registered report artifact through the runner
// and renders the resulting tables. Each registry entry below builds
// its scenario from the config and renders the rows through its
// table's spec (collectTables), so the report is assembled
// declaratively from the registry rather than from hand-rolled loops.
type generator func(cfg ReportConfig, r *runner.Runner) ([]*runner.Table, error)

// Artifact describes one registered report artifact — the unit a sweep
// request addresses. The registry is the introspection surface of the
// harness: the sweep service lists it verbatim on GET /v1/scenarios.
type Artifact struct {
	// Name is the stable machine key ("table1", …, "figure1", "nq").
	Name string `json:"name"`
	// Title is the human heading.
	Title string `json:"title"`
	// Summary states what the artifact reproduces, with the paper
	// references.
	Summary string `json:"summary"`
}

// registry lists every artifact in canonical report order (the order
// WriteReport emits when everything is selected: the NQ analysis first,
// then tables 1–4, then figure 1).
var registry = []struct {
	Artifact
	gen generator
}{
	{Artifact{
		Name:    "nq",
		Title:   "NQ_k scaling (Theorems 15/16)",
		Summary: "Measured neighborhood quality NQ_k against the predicted Θ(k^{1/(d+1)}) on the Appendix B grid families.",
	}, nqGen(nqScalingSpec, func(fams []graph.Family, n int) *runner.Scenario[NQScalingRow] {
		return NQScalingScenario(fams, n, []int{16, 64, 256, 1024})
	})},
	{Artifact{
		Name:    "table1",
		Title:   "Table 1 — information dissemination",
		Summary: "k-dissemination, k-aggregation and (k,ℓ)-routing (Theorems 1–3) versus [AHK+20]/[KS20] and the Theorem 4 lower bound.",
	}, func(cfg ReportConfig, r *runner.Runner) ([]*runner.Table, error) {
		return collectTables(r, Table1Scenario(cfg.families(), cfg.N, []int{cfg.N / 4, cfg.N, 4 * cfg.N}, cfg.Seed), table1Spec)
	}},
	{Artifact{
		Name:    "table2",
		Title:   "Table 2 — all-pairs shortest paths",
		Summary: "The APSP family (Theorems 6–9, Corollary 2.2) versus the eΘ(√n) worst-case prior work.",
	}, func(cfg ReportConfig, r *runner.Runner) ([]*runner.Table, error) {
		return collectTables(r, Table2Scenario(cfg.families(), cfg.N, cfg.Seed), table2Spec)
	}},
	{Artifact{
		Name:    "table3",
		Title:   "Table 3 — (k,ℓ)-source shortest paths",
		Summary: "(1+ε)-approximate (k,ℓ)-SP (Theorem 5) versus the eΩ(√k) existential bound.",
	}, func(cfg ReportConfig, r *runner.Runner) ([]*runner.Table, error) {
		return collectTables(r, Table3Scenario(cfg.families(), cfg.N, []int{cfg.N / 8, cfg.N / 2}, cfg.Seed), table3Spec)
	}},
	{Artifact{
		Name:    "table4",
		Title:   "Table 4 — single-source shortest paths",
		Summary: "(1+ε)-approximate SSSP (Theorem 13) versus eÕ(√n), eÕ(n^{5/17}) and eÕ(n^ε) prior work.",
	}, func(cfg ReportConfig, r *runner.Runner) ([]*runner.Table, error) {
		return collectTables(r, Table4Scenario(cfg.families(), cfg.N, []float64{0.5, 0.25, 0.1}, cfg.Seed), table4Spec)
	}},
	{Artifact{
		Name:    "figure1",
		Title:   "Figure 1 — the k-SSP complexity landscape",
		Summary: "Round complexity of k-source shortest paths across k = n^β (Theorem 14), worst-case path versus grid.",
	}, func(cfg ReportConfig, r *runner.Runner) ([]*runner.Table, error) {
		// Figure 1 contrasts the worst-case path with the grid by
		// default; an explicit family restriction replaces that pair.
		// One scenario over all families, so every cell shares the pool.
		fams := cfg.Families
		if len(fams) == 0 {
			fams = []graph.Family{graph.FamilyPath, graph.FamilyGrid2D}
		}
		betas := []float64{0, 1.0 / 6, 1.0 / 3, 0.5, 2.0 / 3, 5.0 / 6, 1}
		return collectTables(r, Figure1Scenario(fams, cfg.N, betas, 0.5, cfg.Seed), figure1Spec)
	}},
	{Artifact{
		Name:    "nqscaling-large",
		Title:   "NQ_k scaling at large n (Theorems 15/16)",
		Summary: "The Theorem 15/16 analysis on 4n- and 16n-node instances with k up to 4096 — a sweep sized for the shared topology cache (each instance is built once and reused across all k-points); excluded from the default quick report.",
	}, nqGen(nqScalingLargeSpec, NQScalingLargeScenario)},
	{Artifact{
		Name:    "nqscaling-xl",
		Title:   "NQ_k scaling at n = 10^6 (Theorems 15/16)",
		Summary: "The Theorem 15/16 analysis on million-node instances — profile-free, served entirely by the sharded early-exit ball kernel over the analytic diameter seeds (DESIGN.md §14); excluded from the default quick report.",
	}, nqGen(nqScalingXLSpec, func(fams []graph.Family, _ int) *runner.Scenario[NQScalingRow] {
		// The instance size is pinned: the artifact exists to exercise
		// the n = 10^6 regime, whatever cfg.N asks for.
		return NQScalingXLScenario(fams, NQXLNodes)
	})},
	{Artifact{
		Name:    "robustness",
		Title:   "Robustness — async backend under faults",
		Summary: "Solution quality and convergence time of the asynchronous fault-injecting backend (DESIGN.md §13) versus loss and churn rates — the robustness axis the round-synchronous analysis doesn't touch; excluded from the default quick report.",
	}, func(cfg ReportConfig, r *runner.Runner) ([]*runner.Table, error) {
		return collectTables(r, RobustnessScenario(cfg.Families, cfg.N/4, cfg.Seed), robustnessSpec)
	}},
}

// Artifacts returns the registered report artifacts in canonical
// report order.
func Artifacts() []Artifact {
	out := make([]Artifact, len(registry))
	for i, reg := range registry {
		out[i] = reg.Artifact
	}
	return out
}

// Generate sweeps one registered artifact by name on r and returns its
// rendered tables. The ReportConfig axes (N, Seed, Families, defaults
// applied as in WriteReport) select the grid; Tables/Figure1/NQ are
// ignored — the name already addresses the artifact.
func Generate(name string, cfg ReportConfig, r *runner.Runner) ([]*runner.Table, error) {
	cfg.defaults()
	if gen, ok := lookup(name); ok {
		return gen(cfg, r)
	}
	return nil, fmt.Errorf("experiments: unknown scenario %q (registered: %v)", name, artifactNames())
}

func artifactNames() []string {
	names := make([]string, len(registry))
	for i, reg := range registry {
		names[i] = reg.Name
	}
	return names
}

// lookup resolves a registered artifact's generator by name.
func lookup(name string) (generator, bool) {
	for _, reg := range registry {
		if reg.Name == name {
			return reg.gen, true
		}
	}
	return nil, false
}

// nqFamilyIntersection applies an explicit family restriction to the
// families the Theorem 15/16 predictions cover. The second result is
// false when the restriction excludes every covered family.
func nqFamilyIntersection(cfg ReportConfig) ([]graph.Family, bool) {
	fams := NQFamilies()
	if len(cfg.Families) == 0 {
		return fams, true
	}
	covered := make(map[graph.Family]bool)
	for _, f := range fams {
		covered[f] = true
	}
	fams = nil
	for _, f := range cfg.Families {
		if covered[f] {
			fams = append(fams, f)
		}
	}
	return fams, len(fams) > 0
}

// nqGen sweeps one NQ-scaling grid over the families the Theorem 15/16
// predictions cover; a family restriction that excludes all of them
// renders the empty table.
func nqGen(spec *tableSpec[NQScalingRow], scenario func(fams []graph.Family, n int) *runner.Scenario[NQScalingRow]) generator {
	return func(cfg ReportConfig, r *runner.Runner) ([]*runner.Table, error) {
		fams, ok := nqFamilyIntersection(cfg)
		if !ok {
			return []*runner.Table{spec.table(nil)}, nil
		}
		return collectTables(r, scenario(fams, cfg.N), spec)
	}
}
