package experiments

import (
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/lower"
	"repro/internal/runner"
	"repro/internal/sssp"
)

// Figure1Point is one point of the k-SSP complexity landscape
// (Figure 1): the number of sources k = n^β on the horizontal axis and
// the measured round exponent δ (rounds = n^δ) on the vertical axis,
// with the prior upper bound [CHLP21a] and the eΩ(√k) lower bound.
type Figure1Point struct {
	Family graph.Family
	Beta   float64
	K      int
	Rounds int // measured Theorem 14 rounds
	// Delta is the polylog-normalized round exponent
	// log_n(max(1, rounds/plog²)) — dividing out the library's eÕ(1)
	// unit so the exponent is comparable to the paper's axes.
	Delta   float64
	Regime  string
	Stretch float64
	// Comparators.
	CHLP21     float64 // eÕ(n^{1/3} + √k)
	LowerSqrtK float64 // eΩ(√(k/γ))
	DeltaLB    float64 // log_n of the lower bound
}

// Figure1Scenario declares the Figure 1 sweep: per (family, β) cell it
// samples k = n^β random sources and measures the Theorem 14 k-SSP.
// Sweeping several families through one scenario lets all their cells
// share the worker pool.
func Figure1Scenario(families []graph.Family, n int, betas []float64, eps float64, seed int64) *runner.Scenario[Figure1Point] {
	return &runner.Scenario[Figure1Point]{
		Name:     figure1Spec.name,
		Families: families,
		Ns:       []int{n},
		Seeds:    []int64{seed},
		Points:   runner.PointsBeta(betas),
		Run: func(c *runner.Cell) ([]Figure1Point, error) {
			g, err := c.BuildGraph()
			if err != nil {
				return nil, err
			}
			pt, err := figure1Point(c, g, eps)
			if err != nil {
				return nil, fmt.Errorf("figure1 beta=%v: %w", c.Point.Beta, err)
			}
			return []Figure1Point{*pt}, nil
		},
		RenderRow: figure1Spec.row,
	}
}

func figure1Point(c *runner.Cell, g *graph.Graph, eps float64) (*Figure1Point, error) {
	nn := g.N()
	beta := c.Point.Beta
	rng := c.Rng()
	k := int(math.Round(math.Pow(float64(nn), beta)))
	if k < 1 {
		k = 1
	}
	if k > nn {
		k = nn
	}
	net, err := c.NewNet(g, rng.Int63())
	if err != nil {
		return nil, err
	}
	sources := sampleNodes(nn, float64(k)/float64(nn), rng)
	_, res, err := sssp.KSSP(net, sources, eps, true, rng, false)
	if err != nil {
		return nil, err
	}
	p := params(net, k, 1, eps)
	lnN := math.Log(float64(nn))
	pt := &Figure1Point{
		Family:     c.Family,
		Beta:       beta,
		K:          k,
		Rounds:     res.Rounds,
		Regime:     res.Regime.String(),
		Stretch:    res.Stretch,
		CHLP21:     baseline.CHLP21KSSP(p),
		LowerSqrtK: lower.ExistentialSqrtK(k, net.Cap()),
	}
	plog2 := float64(net.PLog() * net.PLog())
	if norm := float64(res.Rounds) / plog2; norm > 1 {
		pt.Delta = math.Log(norm) / lnN
	}
	if pt.LowerSqrtK > 1 {
		pt.DeltaLB = math.Log(pt.LowerSqrtK) / lnN
	}
	return pt, nil
}

// figure1Spec splits Figure 1 into one table per family; the canonical
// cell order groups families contiguously in the same order the tables
// appear, so per-cell rows concatenate to the static document. The
// note carries the markdown-only ASCII sketch of δ versus β.
var figure1Spec = &tableSpec[Figure1Point]{
	name:  "figure1",
	title: "Figure 1 — k-SSP complexity landscape on %s (Theorem 14)",
	header: []string{"β (k=n^β)", "k", "Thm14 rounds", "δ = log_n(rounds/eÕ(1))",
		"regime", "stretch", "CHLP21 eÕ(n^{1/3}+√k)", "eΩ(√(k/γ))", "δ_LB"},
	keys: []string{"beta", "k", "rounds", "delta",
		"regime", "stretch", "chlp21_rounds", "sqrtk_lb", "delta_lb"},
	values: func(p Figure1Point) []string {
		return []string{
			fmt.Sprintf("%.2f", p.Beta),
			fmt.Sprintf("%d", p.K),
			fmt.Sprintf("%d", p.Rounds),
			fmt.Sprintf("%.3f", p.Delta),
			p.Regime,
			fmt.Sprintf("%.2f", p.Stretch),
			f1(p.CHLP21),
			f1(p.LowerSqrtK),
			fmt.Sprintf("%.3f", p.DeltaLB),
		}
	},
	note:   asciiLandscape,
	family: func(p Figure1Point) graph.Family { return p.Family },
}

// asciiLandscape sketches δ (vertical) against β (horizontal): '*' marks
// the measured Theorem 14 exponent, '.' the √k lower-bound exponent β/2.
func asciiLandscape(points []Figure1Point) string {
	const height = 12
	var b []byte
	rows := make([][]byte, height)
	for i := range rows {
		rows[i] = make([]byte, len(points)*6+8)
		for j := range rows[i] {
			rows[i][j] = ' '
		}
	}
	put := func(col int, delta float64, ch byte) {
		r := height - 1 - int(math.Round(delta*2*float64(height-1)))
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		rows[r][8+col*6] = ch
	}
	for i, p := range points {
		put(i, p.Beta/2, '.') // the eΩ(√k) = n^{β/2} region boundary
		put(i, p.Delta, '*')
	}
	b = append(b, []byte("δ=1/2 +\n")...)
	for i, r := range rows {
		label := "      |"
		if i == 0 {
			label = "δ=1/2 |"
		}
		if i == height-1 {
			label = "δ=0   |"
		}
		b = append(b, []byte(label)...)
		b = append(b, r...)
		b = append(b, '\n')
	}
	b = append(b, []byte("      +"+"β: ")...)
	for _, p := range points {
		b = append(b, []byte(fmt.Sprintf("%5.2f ", p.Beta))...)
	}
	b = append(b, '\n')
	b = append(b, []byte("      ('*' measured Thm14 exponent, '.' eΩ(√k) boundary β/2)\n")...)
	return string(b)
}
