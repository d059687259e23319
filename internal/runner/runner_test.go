package runner

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/hybrid"
)

// syntheticScenario exercises every axis: it records, per cell, the
// derived seeds and a small measurement on the cell's graph, so equal
// outputs certify both scheduling determinism and seed stability.
func syntheticScenario() *Scenario[string] {
	return &Scenario[string]{
		Name:     "synthetic",
		Families: []graph.Family{graph.FamilyPath, graph.FamilyRandom, graph.FamilyExpander},
		Ns:       []int{32, 64},
		Seeds:    []int64{1, 2},
		Points:   PointsK([]int{4, 16}),
		Run: func(c *Cell) ([]string, error) {
			g, err := c.BuildGraph()
			if err != nil {
				return nil, err
			}
			net, err := c.NewNet(g, c.Rng().Int63())
			if err != nil {
				return nil, err
			}
			r := net.LoadRounds("probe", []int{c.Point.K * 3}, []int{c.Point.K})
			return []string{fmt.Sprintf("%s seed=%d graphseed=%d m=%d rounds=%d",
				c.String(), c.Seed(), c.GraphSeed(), g.M(), r)}, nil
		},
	}
}

// TestCollectDeterministicAcrossWorkerCounts is the core contract: the
// same scenario must produce byte-identical rows on 1, 2, 4, and 8
// workers (run under -race this also certifies the pool is race-clean).
func TestCollectDeterministicAcrossWorkerCounts(t *testing.T) {
	want, _, err := Collect(Serial(), syntheticScenario())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 3*2*2*2 {
		t.Fatalf("rows=%d, want %d", len(want), 3*2*2*2)
	}
	for _, workers := range []int{2, 4, 8} {
		got, _, err := Collect(&Runner{Workers: workers}, syntheticScenario())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d diverged:\n got %v\nwant %v", workers, got, want)
		}
	}
}

func TestCellsCanonicalOrder(t *testing.T) {
	cells := Cells(syntheticScenario())
	if len(cells) != 24 {
		t.Fatalf("cells=%d", len(cells))
	}
	// Families outermost, points innermost.
	if cells[0].Family != graph.FamilyPath || cells[0].N != 32 || cells[0].Point.K != 4 {
		t.Fatalf("cell0 = %s", cells[0].String())
	}
	if cells[1].Point.K != 16 {
		t.Fatalf("cell1 = %s", cells[1].String())
	}
	if cells[23].Family != graph.FamilyExpander || cells[23].N != 64 ||
		cells[23].BaseSeed != 2 || cells[23].Point.K != 16 {
		t.Fatalf("cell23 = %s", cells[23].String())
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has Index %d", i, c.Index)
		}
	}
}

func TestDeriveSeedProperties(t *testing.T) {
	cells := Cells(syntheticScenario())
	seen := make(map[int64]string)
	for _, c := range cells {
		s := c.Seed()
		if s <= 0 {
			t.Fatalf("non-positive seed %d for %s", s, c.String())
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between %s and %s", prev, c.String())
		}
		seen[s] = c.String()
		// Stability: recomputation yields the same value.
		if c.Seed() != s {
			t.Fatal("Seed not stable")
		}
		// Label streams are independent.
		if c.DeriveSeed("a") == c.DeriveSeed("b") {
			t.Fatalf("label streams collide for %s", c.String())
		}
	}
	// GraphSeed is point-independent: cells 0 and 1 differ only in K.
	if cells[0].GraphSeed() != cells[1].GraphSeed() {
		t.Fatal("GraphSeed depends on the point")
	}
	if cells[0].Seed() == cells[1].Seed() {
		t.Fatal("cell seed ignores the point")
	}
}

func TestBuildGraphSameInstanceAcrossPoints(t *testing.T) {
	cells := Cells(&Scenario[int]{
		Name:     "g",
		Families: []graph.Family{graph.FamilyRandom},
		Ns:       []int{48},
		Points:   PointsK([]int{1, 2}),
		Run:      func(*Cell) ([]int, error) { return nil, nil },
	})
	g0, err := cells[0].BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	g1, err := cells[1].BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	if g0 != g1 {
		t.Fatal("the points of one expansion measure distinct graph instances")
	}
}

func TestCollectErrorIsDeterministic(t *testing.T) {
	boom := errors.New("boom")
	sc := func() *Scenario[int] {
		return &Scenario[int]{
			Name:     "err",
			Families: []graph.Family{graph.FamilyPath},
			Ns:       []int{8},
			Points:   PointsK([]int{1, 2, 3, 4, 5, 6, 7, 8}),
			Run: func(c *Cell) ([]int, error) {
				if c.Point.K >= 3 {
					return nil, fmt.Errorf("k=%d: %w", c.Point.K, boom)
				}
				return []int{c.Point.K}, nil
			},
		}
	}
	var msgs []string
	for _, workers := range []int{1, 4} {
		_, _, err := Collect(&Runner{Workers: workers}, sc())
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err=%v", workers, err)
		}
		msgs = append(msgs, err.Error())
	}
	// The lowest-indexed failing cell wins regardless of worker count.
	if msgs[0] != msgs[1] {
		t.Fatalf("error not deterministic: %q vs %q", msgs[0], msgs[1])
	}
	if !strings.Contains(msgs[0], "k=3") {
		t.Fatalf("want first failing cell (k=3) in %q", msgs[0])
	}
}

func TestCollectRunsEveryCellOnce(t *testing.T) {
	var calls atomic.Int64
	sc := &Scenario[int]{
		Name:   "count",
		Points: PointsK([]int{1, 2, 3, 4, 5}),
		Run: func(c *Cell) ([]int, error) {
			calls.Add(1)
			return []int{c.Index}, nil
		},
	}
	rows, _, err := Collect(&Runner{Workers: 3}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 5 {
		t.Fatalf("calls=%d", calls.Load())
	}
	for i, v := range rows {
		if v != i {
			t.Fatalf("row order broken: %v", rows)
		}
	}
}

func TestCollectNilRun(t *testing.T) {
	if _, _, err := Collect(Serial(), &Scenario[int]{Name: "nil"}); err == nil {
		t.Fatal("nil Run accepted")
	}
}

func TestCellConfigCapFactorOverride(t *testing.T) {
	sc := &Scenario[int]{
		Name:     "cfg",
		Families: []graph.Family{graph.FamilyPath},
		Ns:       []int{16},
		Points:   PointsCap([]int{1, 4}),
		Model:    hybrid.Config{Variant: hybrid.VariantHybrid0},
		Run:      func(*Cell) ([]int, error) { return nil, nil },
	}
	cells := Cells(sc)
	c0, c1 := cells[0].Config(), cells[1].Config()
	if c0.Variant != hybrid.VariantHybrid0 || c1.Variant != hybrid.VariantHybrid0 {
		t.Fatal("model template variant lost")
	}
	if c0.CapFactor != 1 || c1.CapFactor != 4 {
		t.Fatalf("cap factors: %d, %d", c0.CapFactor, c1.CapFactor)
	}
	if c0.Seed == 0 || c0.Seed == c1.Seed {
		t.Fatal("config seeds not derived per cell")
	}
}
