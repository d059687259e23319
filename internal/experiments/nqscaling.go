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
	return nqScalingScenario(nqScalingSpec, families, []int{n}, ks, true)
}

// NQScalingLargeScenario is the large-n variant registered as
// "nqscaling-large": the same theorem families swept at sizes 4n and
// 16n with a workload grid reaching k = 4096. Every size shares one
// graph instance across its five k-points, so the sweep is only
// tractable with the topology cache (runner.GraphCache): the dominant
// per-cell cost — the all-sources exact diameter behind the min{·, D}
// prediction — is paid once per instance instead of once per point.
func NQScalingLargeScenario(families []graph.Family, n int) *runner.Scenario[NQScalingRow] {
	return nqScalingScenario(nqScalingLargeSpec, families, []int{4 * n, 16 * n},
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
	return nqScalingScenario(nqScalingXLSpec, families, []int{n},
		[]int{16, 256, 4096}, false)
}

func nqScalingScenario(spec *tableSpec[NQScalingRow], families []graph.Family, ns, ks []int, attachProfiles bool) *runner.Scenario[NQScalingRow] {
	if len(families) == 0 {
		families = NQFamilies()
	}
	return &runner.Scenario[NQScalingRow]{
		Name:     spec.name,
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
		RenderRow:   spec.row,
		RowsPerCell: 1,
	}
}

// NQScaling regenerates the Theorem 15/16 tables over all of
// NQFamilies on the default parallel runner.
func NQScaling(n int, ks []int) ([]NQScalingRow, error) {
	rows, _, err := runner.Collect(runner.Parallel(), NQScalingScenario(nil, n, ks))
	return rows, err
}

var (
	nqScalingSpec      = nqSpec("nqscaling", "NQ_k scaling (Theorems 15/16)")
	nqScalingLargeSpec = nqSpec("nqscaling-large", "NQ_k scaling at large n (Theorems 15/16)")
	nqScalingXLSpec    = nqSpec("nqscaling-xl", "NQ_k scaling at n = 10^6 (Theorems 15/16)")
)

// nqSpec declares one of the NQ-scaling tables, which differ only in
// name and title.
func nqSpec(name, title string) *tableSpec[NQScalingRow] {
	return &tableSpec[NQScalingRow]{
		name:   name,
		title:  title,
		header: []string{"family", "n", "D", "k", "NQ_k", "Θ(k^{1/(d+1)}) pred.", "ratio"},
		keys:   []string{"family", "n", "diameter", "k", "nq", "predicted", "ratio"},
		values: func(r NQScalingRow) []string {
			return []string{
				r.Family,
				itoa(r.N),
				itoa(r.Diameter),
				itoa(r.K),
				itoa(r.NQ),
				f1(r.Predicted),
				fixed(r.Ratio, 2),
			}
		},
	}
}

// FormatNQScaling renders rows as markdown.
func FormatNQScaling(rows []NQScalingRow) string {
	t := nqScalingSpec.table(rows)
	return runner.Markdown(t.Header, t.Rows)
}
