package graph_test

// FuzzDecodeCSR hardens the codec against arbitrary input: DecodeCSR
// must never panic, and anything it accepts must be a well-formed
// graph that re-encodes to exactly the bytes it was decoded
// from (the codec is a bijection on its accepted set). A misaligned
// copy of the input must decode the same way (the one aligned copy
// in front of the views), and an asymmetric one must name the edge
// that sorting every node's lists names.

import (
	"bytes"
	"math/rand"
	"strings"
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
		// Node 0's first half-edge, reweighted: an asymmetric edge.
		reweighted := append([]byte(nil), blob...)
		reweighted[32] = 2
		f.Add(reweighted)
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
		g, err := graph.DecodeCSR(graph.AlignedCopy(data))
		mg, merr := graph.DecodeCSR(graph.MisalignedCopy(data))
		if (err == nil) != (merr == nil) || err != nil && err.Error() != merr.Error() {
			t.Fatalf("misaligned input decodes differently: %v, aligned %v", merr, err)
		}
		if err != nil {
			if strings.Contains(err.Error(), "asymmetric edge") && !graph.UnmatchedAgrees(graph.AlignedCopy(data)) {
				t.Fatalf("%v, but sorting every node's lists names another edge", err)
			}
			return
		}
		if h, mh := mustHash(t, g), mustHash(t, mg); h != mh {
			t.Fatalf("misaligned input decodes to CSRHash %s, aligned %s", mh, h)
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

func mustHash(t *testing.T, g *graph.Graph) string {
	t.Helper()
	h, err := graph.CSRHash(g)
	if err != nil {
		t.Fatal(err)
	}
	return h
}
