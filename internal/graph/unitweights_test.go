package graph

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"weak"
)

// TestUnitWeightsShared: unweighted graphs from the builder and from
// FromEdges view one array of ones, with IsWeighted answered; a
// weighted graph, and one above maxSharedOnes half-edges, own theirs.
func TestUnitWeightsShared(t *testing.T) {
	path, cycle := Path(100), Cycle(50)
	edges, err := FromEdges(3, []UndirectedEdge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := FromEdges(3, []UndirectedEdge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}})
	if err != nil {
		t.Fatal(err)
	}
	big := Path(maxSharedOnes/2 + 2)
	shared := func(g *Graph) bool { return &g.w[0] == &path.w[0] || &g.w[0] == &cycle.w[0] }
	for _, c := range []struct {
		name             string
		g                *Graph
		shared, weighted bool
	}{
		{"path", path, true, false},
		{"cycle", cycle, true, false},
		{"unit FromEdges", edges, true, false},
		{"weighted FromEdges", weighted, false, true},
		{"path above the shared size", big, false, false},
	} {
		if got := shared(c.g); got != c.shared {
			t.Errorf("%s: shares the ones = %v, want %v", c.name, got, c.shared)
		}
		if got := c.g.IsWeighted(); got != c.weighted {
			t.Errorf("%s: IsWeighted = %v, want %v", c.name, got, c.weighted)
		}
		if len(c.g.w) != len(c.g.to) || cap(c.g.w) != len(c.g.to) {
			t.Errorf("%s: %d weights with capacity %d for %d half-edges", c.name, len(c.g.w), cap(c.g.w), len(c.g.to))
		}
		for i, w := range c.g.w {
			if !c.weighted && w != 1 {
				t.Fatalf("%s: weight %d is %d, want 1", c.name, i, w)
			}
		}
	}
	if want := []int64{1, 1, 2, 2}; !slices.Equal(weighted.w, want) {
		t.Errorf("weighted FromEdges has weights %v, want %v", weighted.w, want)
	}
}

// TestUnitWeightsNotPinned: the shared ones live only as long as a
// graph views them, so dropping every graph that does frees them.
func TestUnitWeightsNotPinned(t *testing.T) {
	sharedOnes.Lock()
	sharedOnes.first, sharedOnes.len = weak.Pointer[int64]{}, 0
	sharedOnes.Unlock()
	g := Path(1000)
	ones := weak.Make(&g.w[0])
	if sharedOnes.first != ones {
		t.Fatal("the path does not view the shared ones")
	}
	runtime.KeepAlive(g)
	runtime.GC()
	if ones.Value() != nil {
		t.Fatal("the shared ones outlived the only graph viewing them")
	}
	if g := Path(10); len(g.w) != 18 || g.w[0] != 1 || g.IsWeighted() {
		t.Fatalf("a graph built after the ones were freed has weights %v", g.w)
	}
}

// TestUnitWeightsConcurrentBuilds: graphs built from several
// goroutines at once share the ones without a race (run with -race).
func TestUnitWeightsConcurrentBuilds(t *testing.T) {
	var wg sync.WaitGroup
	graphs := make([]*Graph, 8)
	for i := range graphs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			graphs[i] = Torus(8+i, 2)
		}()
	}
	wg.Wait()
	for i, g := range graphs {
		if g.IsWeighted() {
			t.Fatalf("torus %d reads weighted", i)
		}
		for _, w := range g.w {
			if w != 1 {
				t.Fatalf("torus %d has weight %d", i, w)
			}
		}
	}
}
