package experiments

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/nq"
	"repro/internal/runner"
)

// NQScalingRow is one point of the Theorem 15/16 analysis: the measured
// NQ_k on a family against the predicted Θ(k^{1/(d+1)}) (d the grid
// dimension; paths and cycles are d = 1).
type NQScalingRow struct {
	Family    string
	N         int
	K         int
	NQ        int
	Predicted float64 // min{k^{1/(d+1)}, D}
	Ratio     float64 // NQ / Predicted
	Diameter  int64
}

// nqDimension maps the Theorem 15/16 families to their grid dimension d.
var nqDimension = map[graph.Family]float64{
	graph.FamilyPath:   1,
	graph.FamilyCycle:  1,
	graph.FamilyGrid2D: 2,
	graph.FamilyGrid3D: 3,
}

// NQFamilies are the families the Theorem 15/16 predictions cover, in
// display order.
func NQFamilies() []graph.Family {
	return []graph.Family{graph.FamilyPath, graph.FamilyCycle, graph.FamilyGrid2D, graph.FamilyGrid3D}
}

// NQScalingScenario declares the Theorem 15/16 sweep: NQ_k on the given
// families across a grid of k. Families without a Θ(k^{1/(d+1)})
// prediction (anything outside NQFamilies) are rejected; an empty list
// selects all of NQFamilies. The computation is fully deterministic —
// the seed axis is degenerate.
func NQScalingScenario(families []graph.Family, n int, ks []int) *runner.Scenario[NQScalingRow] {
	return nqScalingScenario("nqscaling", families, []int{n}, ks, true)
}

// NQScalingLargeScenario is the large-n variant registered as
// "nqscaling-large": the same theorem families swept at sizes 4n and
// 16n with a workload grid reaching k = 4096. Every size shares one
// graph instance across its five k-points, so the sweep is only
// tractable with the topology cache (runner.GraphCache): the dominant
// per-cell cost — the all-sources exact diameter behind the min{·, D}
// prediction — is paid once per instance instead of once per point.
func NQScalingLargeScenario(families []graph.Family, n int) *runner.Scenario[NQScalingRow] {
	return nqScalingScenario("nqscaling-large", families, []int{4 * n, 16 * n},
		[]int{16, 64, 256, 1024, 4096}, true)
}

// NQXLNodes is the instance size of the "nqscaling-xl" artifact — the
// million-node regime the parallel kernel layer (DESIGN.md §14) exists
// for.
const NQXLNodes = 1_000_000

// NQScalingXLScenario is the million-node variant registered as
// "nqscaling-xl". Unlike the smaller sweeps it never materializes the
// ball-profile artifact (at n = 10^6 the per-node profile matrix would
// dominate memory); every cell answers through the early-exit ball
// kernel, sharded across graph.MaxKernelWorkers(), and the min{·, D}
// cap comes from the generators' analytic diameter seeds instead of the
// all-sources hop-kernel sweep (n/64 batches, O(n·m) at worst). The n
// parameter exists for shape tests; the registry runs it at NQXLNodes.
func NQScalingXLScenario(families []graph.Family, n int) *runner.Scenario[NQScalingRow] {
	return nqScalingScenario("nqscaling-xl", families, []int{n},
		[]int{16, 256, 4096}, false)
}

func nqScalingScenario(name string, families []graph.Family, ns, ks []int, attachProfiles bool) *runner.Scenario[NQScalingRow] {
	if len(families) == 0 {
		families = NQFamilies()
	}
	return &runner.Scenario[NQScalingRow]{
		Name:     name,
		Families: families,
		Ns:       ns,
		Points:   runner.PointsK(ks),
		Run: func(c *runner.Cell) ([]NQScalingRow, error) {
			g, err := c.BuildGraph()
			if err != nil {
				return nil, err
			}
			d, ok := nqDimension[c.Family]
			if !ok {
				return nil, fmt.Errorf("nqscaling: no Theorem 15/16 prediction for family %q (covered: %v)", c.Family, NQFamilies())
			}
			// Share the ball-profile artifact across every k-point of
			// this instance (computed once per graph, persisted by the
			// sweep service): nq.Of then answers each node in O(log)
			// from the profile instead of regrowing its ball. The xl
			// sweep opts out and relies on the ball kernel per cell.
			if attachProfiles {
				c.BallProfiles(g)
			}
			k := c.Point.K
			q, err := nq.Of(g, k)
			if err != nil {
				return nil, fmt.Errorf("nqscaling %s k=%d: %w", c.Family, k, err)
			}
			diam := g.Diameter()
			pred := math.Pow(float64(k), 1/(d+1))
			if pred > float64(diam) {
				pred = float64(diam)
			}
			return []NQScalingRow{{
				Family:    string(c.Family),
				N:         g.N(),
				K:         k,
				NQ:        q,
				Predicted: pred,
				Ratio:     float64(q) / pred,
				Diameter:  diam,
			}}, nil
		},
		RenderRow: func(c *runner.Cell, r NQScalingRow) runner.RenderedRow {
			return runner.RenderedRow{Table: name, Keys: nqScalingKeys, Values: nqScalingValues(r)}
		},
	}
}

// NQScaling regenerates the Theorem 15/16 tables over all of
// NQFamilies on the default parallel runner.
func NQScaling(n int, ks []int) ([]NQScalingRow, error) {
	return runner.Collect(runner.Parallel(), NQScalingScenario(nil, n, ks))
}

// NQScalingData renders rows into the sink-neutral table form.
func NQScalingData(rows []NQScalingRow) *runner.Table {
	return nqScalingData("nqscaling", "NQ_k scaling (Theorems 15/16)", rows)
}

// NQScalingLargeData renders the large-n sweep's rows.
func NQScalingLargeData(rows []NQScalingRow) *runner.Table {
	return nqScalingData("nqscaling-large", "NQ_k scaling at large n (Theorems 15/16)", rows)
}

// NQScalingXLData renders the million-node sweep's rows.
func NQScalingXLData(rows []NQScalingRow) *runner.Table {
	return nqScalingData("nqscaling-xl", "NQ_k scaling at n = 10^6 (Theorems 15/16)", rows)
}

// nqScalingKeys and nqScalingValues are shared between the finished
// table rendering and the per-cell stream rendering
// (Scenario.RenderRow), so streamed rows match the document byte for
// byte.
var nqScalingKeys = []string{"family", "n", "diameter", "k", "nq", "predicted", "ratio"}

func nqScalingValues(r NQScalingRow) []string {
	return []string{
		r.Family,
		fmt.Sprintf("%d", r.N),
		fmt.Sprintf("%d", r.Diameter),
		fmt.Sprintf("%d", r.K),
		fmt.Sprintf("%d", r.NQ),
		f1(r.Predicted),
		fmt.Sprintf("%.2f", r.Ratio),
	}
}

func nqScalingData(name, title string, rows []NQScalingRow) *runner.Table {
	t := &runner.Table{
		Name:   name,
		Title:  title,
		Header: []string{"family", "n", "D", "k", "NQ_k", "Θ(k^{1/(d+1)}) pred.", "ratio"},
		Keys:   nqScalingKeys,
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, nqScalingValues(r))
	}
	return t
}

// FormatNQScaling renders rows as markdown.
func FormatNQScaling(rows []NQScalingRow) string {
	t := NQScalingData(rows)
	return runner.Markdown(t.Header, t.Rows)
}
