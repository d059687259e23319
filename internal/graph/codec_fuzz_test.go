package graph_test

// FuzzDecodeCSR hardens the codec against arbitrary input: DecodeCSR
// must never panic, and anything it accepts must be a well-formed
// graph that re-encodes to exactly the bytes it was decoded
// from (the codec is a bijection on its accepted set).

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func FuzzDecodeCSR(f *testing.F) {
	// Seed corpus: valid encodings of several shapes, plus light
	// corruptions the fuzzer can splice from.
	for _, fam := range []graph.Family{graph.FamilyPath, graph.FamilyGrid2D, graph.FamilyExpander} {
		g, err := graph.Build(fam, 24, rand.New(rand.NewSource(3)))
		if err != nil {
			f.Fatal(err)
		}
		blob, err := graph.EncodeCSR(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		tweaked := append([]byte(nil), blob...)
		tweaked[len(tweaked)-1] ^= 0xff
		f.Add(tweaked)
	}
	// The diameter field's two special values: Inf on a disconnected
	// graph, 0 on a single node.
	split := graph.NewBuilder(4)
	if err := split.AddEdge(0, 1, 1); err != nil {
		f.Fatal(err)
	}
	for _, g := range []*graph.Graph{split.Build(), graph.NewBuilder(1).Build()} {
		blob, err := graph.EncodeCSR(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Add([]byte("HCSR"))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := graph.DecodeCSR(data)
		if err != nil {
			return
		}
		if g.N() > 0 {
			// Spot-check invariants the library relies on: traversals
			// terminate and visit only in-range nodes.
			_ = g.BFS(0)
			_ = g.Connected()
		}
		re, err := graph.EncodeCSR(g)
		if err != nil {
			t.Fatalf("re-encoding an accepted graph failed: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("codec is not a bijection: accepted %d bytes, re-encoded %d differing bytes", len(data), len(re))
		}
	})
}
