package graph_test

// Certification of Family.Seeded: the topology caches key a seed-free
// family by (family, n) alone, so Build must really ignore its rng for
// every family that is not Seeded, and the Seeded ones must really
// depend on it.

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func csrHashAt(t *testing.T, f graph.Family, n int, seed int64) string {
	t.Helper()
	g, err := graph.Build(f, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	h, err := graph.CSRHash(g)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestSeedFreeFamiliesIgnoreSeed(t *testing.T) {
	for _, f := range graph.Families() {
		if f.Seeded() {
			continue
		}
		for _, n := range []int{1, 2, 63, 64, 65, 576} {
			want := csrHashAt(t, f, n, 1)
			for _, seed := range []int64{2, 3} {
				if got := csrHashAt(t, f, n, seed); got != want {
					t.Fatalf("%s/%d: seed %d builds %s, seed 1 builds %s", f, n, seed, got, want)
				}
			}
		}
	}
}

func TestSeededFamiliesDependOnSeed(t *testing.T) {
	var seeded []graph.Family
	for _, f := range graph.Families() {
		if f.Seeded() {
			seeded = append(seeded, f)
		}
	}
	if len(seeded) != 2 || seeded[0] != graph.FamilyRandom || seeded[1] != graph.FamilyExpander {
		t.Fatalf("seeded families %v, want [random expander]", seeded)
	}
	for _, f := range seeded {
		if a, b := csrHashAt(t, f, 576, 1), csrHashAt(t, f, 576, 2); a == b {
			t.Fatalf("%s/576: seeds 1 and 2 build the same graph", f)
		}
	}
}
