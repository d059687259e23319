package graph_test

// The differential suite for the CSR codec (satellite of DESIGN.md §9):
// every built-in family × size × seed must round-trip through
// EncodeCSR/DecodeCSR into a graph that re-encodes
// byte-identically, matches a freshly rebuilt instance byte for byte,
// and agrees with the independent internal/oracle traversals.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
)

// buildFamily constructs one deterministic instance; the rng only
// matters for the randomized families.
func buildFamily(t *testing.T, fam graph.Family, n int, seed int64) *graph.Graph {
	t.Helper()
	g, err := graph.Build(fam, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("Build(%s, %d): %v", fam, n, err)
	}
	return g
}

func TestCodecRoundTripDifferential(t *testing.T) {
	for _, fam := range graph.Families() {
		for _, n := range []int{32, 96} {
			for seed := int64(1); seed <= 3; seed++ {
				g := buildFamily(t, fam, n, seed)
				blob, err := graph.EncodeCSR(g)
				if err != nil {
					t.Fatalf("%s/%d/%d: EncodeCSR: %v", fam, n, seed, err)
				}

				// Byte-identical to a rebuilt instance: the codec output
				// is a pure function of (family, n, seed).
				rebuilt, err := graph.EncodeCSR(buildFamily(t, fam, n, seed))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(blob, rebuilt) {
					t.Fatalf("%s/%d/%d: rebuilt instance encodes differently", fam, n, seed)
				}

				dec, err := graph.DecodeCSR(blob)
				if err != nil {
					t.Fatalf("%s/%d/%d: DecodeCSR: %v", fam, n, seed, err)
				}
				if dec.N() != g.N() || dec.M() != g.M() {
					t.Fatalf("%s/%d/%d: decoded shape %d/%d, want %d/%d", fam, n, seed, dec.N(), dec.M(), g.N(), g.M())
				}

				// Re-encoding the decoded graph must reproduce the blob.
				re, err := graph.EncodeCSR(dec)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(blob, re) {
					t.Fatalf("%s/%d/%d: decoded graph re-encodes differently", fam, n, seed)
				}
				h1, err := graph.CSRHash(g)
				if err != nil {
					t.Fatal(err)
				}
				if h2, _ := graph.CSRHash(dec); h1 != h2 {
					t.Fatalf("%s/%d/%d: content hash changed across round-trip: %s vs %s", fam, n, seed, h1, h2)
				}

				// The decoded adjacency must match the original edge list
				// exactly (order included).
				if len(dec.Edges()) != len(g.Edges()) {
					t.Fatalf("%s/%d/%d: edge lists differ in length", fam, n, seed)
				}
				for i, e := range g.Edges() {
					if dec.Edges()[i] != e {
						t.Fatalf("%s/%d/%d: edge %d = %+v, want %+v", fam, n, seed, i, dec.Edges()[i], e)
					}
				}

				// Differential traversals: the decoded graph's hot
				// paths must agree with the oracle run on the original.
				for _, src := range []int{0, g.N() / 2, g.N() - 1} {
					wantBFS := oracle.BFS(g, src)
					gotBFS := dec.BFS(src)
					for v := range wantBFS {
						if gotBFS[v] != wantBFS[v] {
							t.Fatalf("%s/%d/%d: BFS(%d)[%d] = %d, oracle %d", fam, n, seed, src, v, gotBFS[v], wantBFS[v])
						}
					}
					wantD := oracle.Dijkstra(g, src)
					gotD := dec.Dijkstra(src)
					for v := range wantD {
						if gotD[v] != wantD[v] {
							t.Fatalf("%s/%d/%d: Dijkstra(%d)[%d] = %d, oracle %d", fam, n, seed, src, v, gotD[v], wantD[v])
						}
					}
				}
				if want, got := oracle.Diameter(g), dec.Diameter(); want != got {
					t.Fatalf("%s/%d/%d: Diameter = %d, oracle %d", fam, n, seed, got, want)
				}
			}
		}
	}
}

// TestCodecWeightedRoundTrip covers non-unit weights (the families are
// all unweighted, so reweight one explicitly).
func TestCodecWeightedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomWeights(buildFamily(t, graph.FamilyGrid2D, 64, 1), 1000, rng)
	blob, err := graph.EncodeCSR(g)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := graph.DecodeCSR(blob)
	if err != nil {
		t.Fatal(err)
	}
	src := 0
	want := oracle.Dijkstra(g, src)
	got := dec.Dijkstra(src)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("weighted Dijkstra[%d] = %d, oracle %d", v, got[v], want[v])
		}
	}
	if re, _ := graph.EncodeCSR(dec); !bytes.Equal(blob, re) {
		t.Fatal("weighted graph re-encodes differently")
	}
}

// headerLen derives the codec's header length from a blob: everything
// before the rowStart (4 bytes per node + 1) and half-edge (4-byte to,
// 8-byte w) arrays.
func headerLen(g *graph.Graph, blob []byte) int {
	return len(blob) - 4*(g.N()+1) - 12*2*g.M()
}

// withDiameter returns a copy of blob whose stored diameter (the last
// header field) is d.
func withDiameter(g *graph.Graph, blob []byte, d int64) []byte {
	b := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint64(b[headerLen(g, b)-8:], uint64(d))
	return b
}

// TestDecodeRejectsCorruption: structured corruption of a valid blob
// must fail loudly, never produce an invariant-violating graph, while
// every diameter the ecc(0) bracket admits round-trips.
func TestDecodeRejectsCorruption(t *testing.T) {
	encode := func(g *graph.Graph) []byte {
		t.Helper()
		blob, err := graph.EncodeCSR(g)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	g := buildFamily(t, graph.FamilyCycle, 16, 1)
	blob := encode(g)
	hdr := headerLen(g, blob)
	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), blob...)
		mutate(b)
		return b
	}
	one := graph.NewBuilder(1).Build()
	oneBlob := encode(one)
	sb := graph.NewBuilder(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {3, 4}} {
		if err := sb.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	split := sb.Build()
	splitBlob := encode(split)

	// Each case names the check it must trip, so a case that drifts
	// onto another field fails instead of passing for the wrong reason.
	// C_16: ecc(0) = D = 8.
	cases := map[string]struct {
		data []byte
		want string
	}{
		"empty":        {[]byte{}, "truncated header"},
		"short header": {blob[:10], "truncated header"},
		"bad magic":    {corrupt(func(b []byte) { b[0] = 'X' }), "bad magic"},
		"bad version":  {corrupt(func(b []byte) { b[4] = 99 }), "version"},
		"truncated":    {blob[:len(blob)-3], "payload is"},
		"padded":       {append(append([]byte(nil), blob...), 0), "payload is"},
		"huge n":       {corrupt(func(b []byte) { b[12] = 0xff }), "implausible sizes"},
		// rowStart[0] lives right after the header.
		"bad offsets": {corrupt(func(b []byte) { b[hdr] = 1 }), "row offsets"},
		// First endpoint: point node 0's first neighbor at itself.
		"self-loop": {corrupt(func(b []byte) {
			copy(b[hdr+4*(g.N()+1):], []byte{0, 0, 0, 0})
		}), "self-loop"},
		"diameter below ecc(0)":        {withDiameter(g, blob, 7), "diameter"},
		"diameter above 2*ecc(0)":      {withDiameter(g, blob, 17), "diameter"},
		"negative diameter":            {withDiameter(g, blob, -8), "diameter"},
		"Inf diameter on connected":    {withDiameter(g, blob, graph.Inf), "diameter"},
		"finite diameter disconnected": {withDiameter(split, splitBlob, 2), "diameter"},
		"nonzero diameter on n=1":      {withDiameter(one, oneBlob, 1), "diameter"},
	}
	for name, c := range cases {
		_, err := graph.DecodeCSR(c.data)
		if err == nil {
			t.Errorf("%s: DecodeCSR accepted corrupt input", name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: DecodeCSR error %q, want one mentioning %q", name, err, c.want)
		}
	}

	// The bracket is the only diameter check: any D in [ecc(0),
	// 2·ecc(0)] decodes, and the special values round-trip too.
	accepted := map[string]struct {
		data []byte
		want int64
	}{
		"exact":        {blob, 8},
		"2*ecc(0)":     {withDiameter(g, blob, 16), 16},
		"disconnected": {splitBlob, graph.Inf},
		"one node":     {oneBlob, 0},
	}
	for name, c := range accepted {
		dec, err := graph.DecodeCSR(c.data)
		if err != nil {
			t.Fatalf("%s: DecodeCSR: %v", name, err)
		}
		if got := dec.Diameter(); got != c.want {
			t.Fatalf("%s: decoded diameter %d, want %d", name, got, c.want)
		}
		if re := encode(dec); !bytes.Equal(re, c.data) {
			t.Fatalf("%s: re-encodes differently", name)
		}
	}
}
