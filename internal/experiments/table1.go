package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/baseline"
	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/lower"
	"repro/internal/runner"
	"repro/internal/unicast"
)

// Table1Row compares the universal information-dissemination algorithms
// (Theorems 1–3) with the prior-work bounds of Table 1 and the Theorem 4
// lower bound on one (family, n, k) instance.
type Table1Row struct {
	Family string
	N      int
	K      int
	NQ     int
	// Measured universal algorithms.
	DisseminationRounds int // Theorem 1
	AggregationRounds   int // Theorem 2
	RoutingRounds       int // Theorem 3 case (1)
	RoutingL            int
	// Prior-work formulas.
	AHKRounds   float64 // [AHK+20] eÕ(√k+ℓ)
	KS20Unicast float64 // [KS20] eÕ(√k + kℓ/n)
	NaiveNCC    int     // measured NCC-only tree pipeline
	LocalFlood  int64   // trivial D rounds
	// Theorem 4 lower bound.
	LowerBound float64
}

// Table1Scenario declares the Table 1 sweep: per (family, k) cell it
// runs k-dissemination, k-aggregation and (k,ℓ)-routing with ℓ ≈ NQ_k
// random targets, and evaluates the baselines and the lower bound.
func Table1Scenario(families []graph.Family, n int, ks []int, seed int64) *runner.Scenario[Table1Row] {
	return &runner.Scenario[Table1Row]{
		Name:     table1Spec.name,
		Families: families,
		Ns:       []int{n},
		Seeds:    []int64{seed},
		Points:   runner.PointsK(ks),
		Run: func(c *runner.Cell) ([]Table1Row, error) {
			g, err := c.BuildGraph()
			if err != nil {
				return nil, err
			}
			row, err := table1Row(c, g)
			if err != nil {
				return nil, fmt.Errorf("table1 %s k=%d: %w", c.Family, c.Point.K, err)
			}
			return []Table1Row{*row}, nil
		},
		RenderRow:   table1Spec.row,
		RowsPerCell: 1,
	}
}

func table1Row(c *runner.Cell, g *graph.Graph) (*Table1Row, error) {
	n, k := g.N(), c.Point.K
	rng := c.Rng()
	row := &Table1Row{Family: string(c.Family), N: n, K: k}

	// Theorem 1: k-dissemination with adversarial placement (all tokens
	// at node 0 — Theorem 1 is distribution-independent).
	net, err := c.NewNet(g, rng.Int63())
	if err != nil {
		return nil, err
	}
	tokens := make([]int, n)
	tokens[0] = k
	dres, err := broadcast.Disseminate(net, tokens)
	if err != nil {
		return nil, err
	}
	row.DisseminationRounds = dres.Rounds
	row.NQ = dres.NQ
	if row.NQ == 0 { // small-k fast path: report NQ_k anyway
		b, err := lower.Dissemination(g, k, net.Cap(), 0.9)
		if err != nil {
			return nil, err
		}
		row.NQ = b.NQ
	}

	// Theorem 2: k-aggregation (cost-only run).
	net2, err := c.NewNet(g, rng.Int63())
	if err != nil {
		return nil, err
	}
	_, ares, err := broadcast.Aggregate(net2, k, nil, nil)
	if err != nil {
		return nil, err
	}
	row.AggregationRounds = ares.Rounds

	// Theorem 3 case (1): k arbitrary sources, ℓ ≈ min(NQ_k, 4) random
	// targets.
	l := row.NQ
	if l > 4 {
		l = 4
	}
	if l < 1 {
		l = 1
	}
	kSrc := k
	if kSrc > n {
		kSrc = n
	}
	net3, err := c.NewNet(g, rng.Int63())
	if err != nil {
		return nil, err
	}
	targets := sampleNodes(n, float64(l)/float64(n), rng)
	rres, err := unicast.Route(net3, unicast.Spec{
		Case:    unicast.ArbitrarySourcesRandomTargets,
		Sources: firstK(kSrc),
		Targets: targets,
		K:       kSrc,
		L:       l,
	}, rng)
	if err != nil {
		return nil, err
	}
	row.RoutingRounds = rres.Rounds
	row.RoutingL = len(targets)

	// Baselines.
	p := params(net, k, l, 0)
	row.AHKRounds = baseline.AHKDissemination(p)
	row.KS20Unicast = baseline.KS20Unicast(p)
	row.LocalFlood = p.Diam
	netN, err := c.NewNet(g, rng.Int63())
	if err != nil {
		return nil, err
	}
	row.NaiveNCC = baseline.NaiveTreeBroadcast(netN, k)

	// Theorem 4 lower bound.
	lb, err := lower.Dissemination(g, k, net.Cap(), 0.9)
	if err != nil {
		return nil, err
	}
	row.LowerBound = lb.Rounds
	return row, nil
}

var table1Spec = &tableSpec[Table1Row]{
	name:  "table1",
	title: "Table 1 — information dissemination (Theorems 1-4)",
	header: []string{"family", "n", "k", "NQ_k",
		"Thm1 (rounds)", "Thm2 (rounds)", "Thm3 (rounds, ℓ)",
		"AHK+20 eÕ(√k+ℓ)", "KS20 unicast", "NCC naive", "LOCAL D", "Thm4 LB"},
	keys: []string{"family", "n", "k", "nq", "thm1_rounds", "thm2_rounds",
		"thm3_rounds_l", "ahk_rounds", "ks20_unicast", "ncc_naive", "local_d", "thm4_lb"},
	values: func(r Table1Row) []string {
		return []string{
			r.Family,
			itoa(r.N),
			itoa(r.K),
			itoa(r.NQ),
			itoa(r.DisseminationRounds),
			itoa(r.AggregationRounds),
			roundsWithL(r.RoutingRounds, r.RoutingL),
			f1(r.AHKRounds),
			f1(r.KS20Unicast),
			itoa(r.NaiveNCC),
			itoa(r.LocalFlood),
			f1(r.LowerBound),
		}
	},
}

// roundsWithL formats a Theorem 3 value as "%d (ℓ=%d)".
func roundsWithL(rounds, l int) string {
	var b [48]byte
	v := strconv.AppendInt(b[:0], int64(rounds), 10)
	v = append(v, " (ℓ="...)
	v = strconv.AppendInt(v, int64(l), 10)
	return string(append(v, ')'))
}
