package experiments

import (
	"fmt"

	"repro/internal/apsp"
	"repro/internal/baseline"
	"repro/internal/cuts"
	"repro/internal/graph"
	"repro/internal/lower"
	"repro/internal/runner"
)

// Table2Row compares the universal APSP algorithms (Theorems 6–9,
// Corollary 2.2) with the eΘ(√n) existential prior work on one instance.
type Table2Row struct {
	Family string
	N      int
	NQ     int
	// Measured universal algorithms (cost-only runs).
	UnweightedRounds  int     // Theorem 6, ε = 0.5
	SparseExactRounds int     // Corollary 2.2
	SpannerRounds     int     // Theorem 7 via Corollary 2.3
	SpannerStretch    float64 // its stretch
	SkeletonRounds    int     // Theorem 8, α = 1
	CutsRounds        int     // Theorem 9, ε = 0.5
	// Prior-work formulas.
	KS20Rounds float64
	AG21Rounds float64
	LocalFlood int64
	// Theorem 11 lower bound for k = n.
	LowerBound float64
}

// Table2Scenario declares the Table 2 sweep: per family cell it runs
// the four universal APSP algorithms and the cut approximation.
func Table2Scenario(families []graph.Family, n int, seed int64) *runner.Scenario[Table2Row] {
	return &runner.Scenario[Table2Row]{
		Name:     table2Spec.name,
		Families: families,
		Ns:       []int{n},
		Seeds:    []int64{seed},
		Run: func(c *runner.Cell) ([]Table2Row, error) {
			g, err := c.BuildGraph()
			if err != nil {
				return nil, err
			}
			row, err := table2Row(c, g)
			if err != nil {
				return nil, fmt.Errorf("table2 %s: %w", c.Family, err)
			}
			return []Table2Row{*row}, nil
		},
		RenderRow: table2Spec.row,
	}
}

func table2Row(c *runner.Cell, g *graph.Graph) (*Table2Row, error) {
	rng := c.Rng()
	row := &Table2Row{Family: string(c.Family), N: g.N()}

	net, err := c.NewNet(g, rng.Int63())
	if err != nil {
		return nil, err
	}
	_, ures, err := apsp.Unweighted(net, 0.5, false)
	if err != nil {
		return nil, err
	}
	row.UnweightedRounds = ures.Rounds
	row.NQ = ures.NQ

	net2, err := c.NewNet(g, rng.Int63())
	if err != nil {
		return nil, err
	}
	_, sres, err := apsp.SparseExact(net2, false)
	if err != nil {
		return nil, err
	}
	row.SparseExactRounds = sres.Rounds

	net3, err := c.NewNet(g, rng.Int63())
	if err != nil {
		return nil, err
	}
	_, pres, err := apsp.LogOverLogLog(net3, false)
	if err != nil {
		return nil, err
	}
	row.SpannerRounds = pres.Rounds
	row.SpannerStretch = pres.Stretch

	net4, err := c.NewNet(g, rng.Int63())
	if err != nil {
		return nil, err
	}
	_, kres, err := apsp.Skeleton(net4, 1, rng, false)
	if err != nil {
		return nil, err
	}
	row.SkeletonRounds = kres.Rounds

	net5, err := c.NewNet(g, rng.Int63())
	if err != nil {
		return nil, err
	}
	_, cres, err := cuts.ApproxCuts(net5, 0.5, rng, cuts.Options{})
	if err != nil {
		return nil, err
	}
	row.CutsRounds = cres.Rounds

	p := params(net, g.N(), g.N(), 0.5)
	row.KS20Rounds = baseline.KS20APSP(p)
	row.AG21Rounds = baseline.AG21APSP(p)
	row.LocalFlood = p.Diam

	lb, err := lower.WeightedKLSP(g, g.N(), net.Cap(), 0.9)
	if err != nil {
		return nil, err
	}
	row.LowerBound = lb.Rounds
	return row, nil
}

var table2Spec = &tableSpec[Table2Row]{
	name:  "table2",
	title: "Table 2 — APSP (Theorems 6-9, Corollary 2.2)",
	header: []string{"family", "n", "NQ_n",
		"Thm6 1+ε", "Cor2.2 exact", "Cor2.3 spanner (stretch)", "Thm8 4α-1", "Thm9 cuts",
		"KS20 eÕ(√n)", "AG21 eÕ(√n)", "LOCAL D", "Thm11 LB"},
	keys: []string{"family", "n", "nq", "thm6_rounds", "cor22_rounds",
		"cor23_rounds_stretch", "thm8_rounds", "thm9_rounds",
		"ks20_rounds", "ag21_rounds", "local_d", "thm11_lb"},
	values: func(r Table2Row) []string {
		return []string{
			r.Family,
			fmt.Sprintf("%d", r.N),
			fmt.Sprintf("%d", r.NQ),
			fmt.Sprintf("%d", r.UnweightedRounds),
			fmt.Sprintf("%d", r.SparseExactRounds),
			fmt.Sprintf("%d (%.1f)", r.SpannerRounds, r.SpannerStretch),
			fmt.Sprintf("%d", r.SkeletonRounds),
			fmt.Sprintf("%d", r.CutsRounds),
			f1(r.KS20Rounds),
			f1(r.AG21Rounds),
			fmt.Sprintf("%d", r.LocalFlood),
			f1(r.LowerBound),
		}
	},
}
