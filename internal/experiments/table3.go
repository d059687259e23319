package experiments

import (
	"fmt"

	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/lower"
	"repro/internal/runner"
)

// Table3Row compares the universal (k,ℓ)-SP algorithm (Theorem 5) with
// the eΩ(√k) existential bound and the Theorem 11 universal lower bound.
type Table3Row struct {
	Family string
	N      int
	K, L   int
	NQ     int
	// Measured Theorem 5 case (1): arbitrary sources, random targets.
	Rounds  int
	Stretch float64
	// Prior existential lower bound eΩ(√k) for (k,1)-SP [KS20].
	SqrtKLower float64
	// Theorem 11 universal lower bound.
	UniversalLower float64
	LocalFlood     int64
}

// Table3Scenario declares the Table 3 sweep: per (family, k) cell it
// runs the Theorem 5 (k,ℓ)-SP with ℓ ≈ min(NQ_k, 4) random targets.
// Cells whose k exceeds the realized instance size contribute no row.
func Table3Scenario(families []graph.Family, n int, ks []int, seed int64) *runner.Scenario[Table3Row] {
	return &runner.Scenario[Table3Row]{
		Name:     table3Spec.name,
		Families: families,
		Ns:       []int{n},
		Seeds:    []int64{seed},
		Points:   runner.PointsK(ks),
		Run: func(c *runner.Cell) ([]Table3Row, error) {
			g, err := c.BuildGraph()
			if err != nil {
				return nil, err
			}
			if c.Point.K > g.N() {
				return nil, nil
			}
			row, err := table3Row(c, g)
			if err != nil {
				return nil, fmt.Errorf("table3 %s k=%d: %w", c.Family, c.Point.K, err)
			}
			return []Table3Row{*row}, nil
		},
		RenderRow:   table3Spec.row,
		RowsPerCell: 1,
	}
}

func table3Row(c *runner.Cell, g *graph.Graph) (*Table3Row, error) {
	n, k := g.N(), c.Point.K
	rng := c.Rng()
	row := &Table3Row{Family: string(c.Family), N: n, K: k}
	net, err := c.NewNet(g, rng.Int63())
	if err != nil {
		return nil, err
	}
	// ℓ ≈ min(NQ_k, 4) random targets (Theorem 5 case 1 condition ℓ ≤ NQ_k).
	lb, err := lower.WeightedKLSP(g, k, net.Cap(), 0.9)
	if err != nil {
		return nil, err
	}
	row.NQ = lb.NQ
	row.UniversalLower = lb.Rounds
	l := lb.NQ
	if l > 4 {
		l = 4
	}
	if l < 1 {
		l = 1
	}
	row.L = l
	targets := sampleNodes(n, float64(l)/float64(n), rng)
	_, res, err := apsp.KLSP(net, firstK(k), targets, 0.5, apsp.KLSPArbitrarySources, rng, false)
	if err != nil {
		return nil, err
	}
	row.Rounds = res.Rounds
	row.Stretch = res.Stretch
	row.SqrtKLower = lower.ExistentialSqrtK(k, net.Cap())
	row.LocalFlood = g.Diameter()
	return row, nil
}

var table3Spec = &tableSpec[Table3Row]{
	name:  "table3",
	title: "Table 3 — (k,ℓ)-shortest paths (Theorem 5)",
	header: []string{"family", "n", "k", "ℓ", "NQ_k",
		"Thm5 (rounds)", "stretch", "eΩ(√(k/γ)) exist.", "Thm11 LB", "LOCAL D"},
	keys: []string{"family", "n", "k", "l", "nq",
		"thm5_rounds", "stretch", "sqrtk_lb", "thm11_lb", "local_d"},
	values: func(r Table3Row) []string {
		return []string{
			r.Family,
			itoa(r.N),
			itoa(r.K),
			itoa(r.L),
			itoa(r.NQ),
			itoa(r.Rounds),
			fixed(r.Stretch, 2),
			f1(r.SqrtKLower),
			f1(r.UniversalLower),
			itoa(r.LocalFlood),
		}
	},
}
