package graph

// The deterministic binary codec for graphs (DESIGN.md §9). EncodeCSR
// serializes exactly a graph's CSR arrays — rowStart, to, w — plus the
// exact hop diameter, so a decoded graph is read-shareable, already
// carries the D every prediction is capped by, and is byte-identical
// to a rebuilt-and-re-encoded one: the arrays keep the Builder's
// insertion order, every traversal visits neighbors in that order
// (§4), and the diameter is a function of the topology. That
// determinism is what lets runner.GraphCache persist topologies
// through the artifact disk tier and hand the same instance to every
// sweep point, mirroring the paper's universal-optimality premise that
// the bounds — and here the bytes — are functions of the input graph G.

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
)

// CodecVersion names the CSR wire format. It is part of every encoded
// header and of runner.GraphCache's content addresses, so a format
// change orphans persisted topologies instead of misreading them.
// Version 3 moved w ahead of rowStart and to, so that every array sits
// at an offset that is a multiple of its element size.
const CodecVersion uint32 = 3

// csrMagic starts every encoded graph.
var csrMagic = [4]byte{'H', 'C', 'S', 'R'}

// csrHeaderLen is magic + version + n + halfEdges + diameter.
const csrHeaderLen = 4 + 4 + 8 + 8 + 8

// EncodeCSR serializes g into the deterministic binary CSR format: a
// fixed 32-byte header (magic, CodecVersion, n, half-edge count, hop
// diameter) followed by the little-endian w (int64), rowStart (int32)
// and to (int32) arrays, in that order, so each array of a blob that
// starts 8-byte aligned is naturally aligned with no padding. The
// diameter is g.Diameter() — 0 for n ≤ 1, Inf for a disconnected graph
// — so encoding an unseeded graph pays its all-sources hop-kernel sweep
// once, and every decode inherits it. Two graphs with identical CSR
// arrays encode to identical bytes. Every Graph encodes; the error
// result is always nil.
func EncodeCSR(g *Graph) ([]byte, error) {
	n := g.N()
	h := len(g.to)
	buf := make([]byte, csrHeaderLen+8*h+4*(n+1)+4*h)
	copy(buf, csrMagic[:])
	binary.LittleEndian.PutUint32(buf[4:], CodecVersion)
	binary.LittleEndian.PutUint64(buf[8:], uint64(n))
	binary.LittleEndian.PutUint64(buf[16:], uint64(h))
	binary.LittleEndian.PutUint64(buf[24:], uint64(g.Diameter()))
	off := csrHeaderLen
	for _, v := range g.w {
		binary.LittleEndian.PutUint64(buf[off:], uint64(v))
		off += 8
	}
	for _, v := range g.rowStart {
		binary.LittleEndian.PutUint32(buf[off:], uint32(v))
		off += 4
	}
	for _, v := range g.to {
		binary.LittleEndian.PutUint32(buf[off:], uint32(v))
		off += 4
	}
	return buf, nil
}

// DecodeCSR parses an EncodeCSR blob back into a graph. On a
// little-endian host the graph's arrays are views of the blob's own
// bytes, not copies: the decoded graph retains data, which must never
// be modified afterwards (DESIGN.md §5). A blob whose first byte is
// not 8-byte aligned is first copied once into an aligned buffer; a
// big-endian host converts the arrays into fresh ones instead. The
// input is validated structurally — header shape, exact payload
// length, monotone row offsets, in-range endpoints, no self-loops,
// positive weights, and half-edge symmetry (every (u,v,w) half-edge
// has its (v,u,w) mate, counted with multiplicity) — so a corrupt or
// truncated blob returns an error rather than a graph that violates
// the library's invariants. The stored diameter D is then checked
// against one BFS from node 0, e = ecc(0): a connected graph needs
// e ≤ D ≤ 2e (0 when n ≤ 1), a disconnected one exactly D = Inf. An
// accepted D pre-fills the Diameter cache, so a restore costs O(n+m)
// array work — two counting-sort transposes and one BFS — instead of
// the all-sources hop-kernel sweep.
func DecodeCSR(data []byte) (*Graph, error) {
	if len(data) < csrHeaderLen {
		return nil, fmt.Errorf("graph: codec: truncated header (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != csrMagic {
		return nil, fmt.Errorf("graph: codec: bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != CodecVersion {
		return nil, fmt.Errorf("graph: codec: version %d, want %d", v, CodecVersion)
	}
	n64 := binary.LittleEndian.Uint64(data[8:])
	h64 := binary.LittleEndian.Uint64(data[16:])
	diam := int64(binary.LittleEndian.Uint64(data[24:]))
	// Bounds first, so the size arithmetic below cannot overflow (int
	// may be 32 bits) or over-allocate: every rowStart entry needs 4
	// payload bytes and every half-edge 12, so both counts are capped
	// by len(data) before any multiplication.
	if n64 > math.MaxInt32 || h64 > math.MaxInt32 ||
		n64 > uint64(len(data))/4 || h64 > uint64(len(data))/12 {
		return nil, fmt.Errorf("graph: codec: implausible sizes n=%d halfEdges=%d for %d bytes", n64, h64, len(data))
	}
	n, h := int(n64), int(h64)
	if h%2 != 0 {
		return nil, fmt.Errorf("graph: codec: odd half-edge count %d", h)
	}
	want := csrHeaderLen + 8*h + 4*(n+1) + 4*h
	if len(data) != want {
		return nil, fmt.Errorf("graph: codec: payload is %d bytes, want %d for n=%d halfEdges=%d", len(data), want, n, h)
	}
	data = aligned(data)
	rows := csrHeaderLen + 8*h
	g := &Graph{
		w:        int64s(data[csrHeaderLen:rows]),
		rowStart: int32s(data[rows : rows+4*(n+1)]),
		to:       int32s(data[rows+4*(n+1):]),
	}
	if g.rowStart[0] != 0 || int(g.rowStart[n]) != h {
		return nil, fmt.Errorf("graph: codec: row offsets span [%d,%d], want [0,%d]", g.rowStart[0], g.rowStart[n], h)
	}
	for v := 0; v < n; v++ {
		if g.rowStart[v] > g.rowStart[v+1] {
			return nil, fmt.Errorf("graph: codec: row offsets not monotone at node %d", v)
		}
	}
	for v := 0; v < n; v++ {
		for i := g.rowStart[v]; i < g.rowStart[v+1]; i++ {
			u, w := int(g.to[i]), g.w[i]
			if u < 0 || u >= n {
				return nil, fmt.Errorf("graph: codec: endpoint %d of node %d out of range [0,%d)", u, v, n)
			}
			if u == v {
				return nil, fmt.Errorf("graph: codec: self-loop at %d", v)
			}
			if w <= 0 {
				return nil, fmt.Errorf("graph: codec: non-positive weight %d on edge (%d,%d)", w, v, u)
			}
		}
	}
	if from, to, w, ok := g.unmatchedHalfEdge(); ok {
		return nil, fmt.Errorf("graph: codec: asymmetric edge (%d,%d,w=%d)", min(from, to), max(from, to), w)
	}
	// ecc(0) brackets the diameter (ecc ≤ D ≤ 2·ecc by the triangle
	// inequality through node 0) and is Inf exactly when the graph is
	// disconnected; n = 0 yields e = 0 like n = 1.
	e := g.Eccentricity(0)
	if e >= Inf {
		if diam != Inf {
			return nil, fmt.Errorf("graph: codec: diameter %d on a disconnected graph, want Inf", diam)
		}
	} else if diam < e || diam > 2*e {
		return nil, fmt.Errorf("graph: codec: diameter %d outside [%d,%d] bracketed by ecc(0)", diam, e, 2*e)
	}
	g.diam.Store(diam)
	return g, nil
}

// halfEdge is one (neighbor, weight) entry of a row.
type halfEdge struct {
	u int32
	w int64
}

func cmpHalfEdge(a, b halfEdge) int {
	if a.u != b.u {
		return cmp.Compare(a.u, b.u)
	}
	return cmp.Compare(a.w, b.w)
}

// entering is one half-edge entering a node: its source and its index
// in the source's row.
type entering struct {
	src, edge int32
}

// unmatchedHalfEdge finds a half-edge from→to of weight w whose mates
// to→from of weight w are fewer than its copies, and reports ok = false
// when there is none: the graph is undirected exactly when, at every node,
// the half-edges leaving it and those entering it are equal multisets
// of (neighbor, weight). A counting-sort transpose lists the half-edges
// entering each node by ascending source; its own transpose lists each
// node's half-edges by ascending neighbor, and is walked, not stored,
// against the first position by position. On a symmetric graph the two
// lists of a node can differ only in the order of a parallel-edge
// group's weights, which no Builder graph has: only then are both lists
// of every node sorted by (neighbor, weight) and compared
// (sortedUnmatched). Endpoints must already be in range.
func (g *Graph) unmatchedHalfEdge() (from, to int, w int64, ok bool) {
	n, h := g.N(), len(g.to)
	// in[start[x]:start[x+1]] lists the half-edges entering x by
	// ascending source: filled backwards from each row's end, so start
	// ends at each row's beginning.
	start := make([]int32, n+1)
	for _, x := range g.to {
		start[x]++
	}
	for x := 1; x < n; x++ {
		start[x] += start[x-1]
	}
	start[n] = int32(h)
	in := make([]entering, h)
	for s := n - 1; s >= 0; s-- {
		for i := g.rowStart[s+1] - 1; i >= g.rowStart[s]; i-- {
			x := g.to[i]
			start[x]--
			in[start[x]] = entering{int32(s), i}
		}
	}
	// Every node enters as many half-edges as it leaves exactly when
	// the entering lists are laid out like the rows.
	if !slices.Equal(start, g.rowStart) {
		return g.sortedUnmatched(start, in)
	}
	// Read in order of x, the half-edges s→x of in are each s's own
	// half-edges by ascending neighbor; the p-th of them must match the
	// p-th half-edge entering s, which start[s] counts off.
	for x := 0; x < n; x++ {
		for k := g.rowStart[x]; k < g.rowStart[x+1]; k++ {
			e := in[k]
			mate := in[start[e.src]]
			start[e.src]++
			if mate.src != int32(x) || g.w[mate.edge] != g.w[e.edge] {
				return g.sortedUnmatched(g.rowStart, in)
			}
		}
	}
	return 0, 0, 0, false
}

// sortedUnmatched is unmatchedHalfEdge's answer once some node's two
// lists differ: in node order it sorts each node v's own half-edges and
// those entering it, in[bounds[v]:bounds[v+1]], by (neighbor, weight)
// and names the first half-edge on which they differ, or none when the
// lists only ordered a parallel-edge group's weights differently.
func (g *Graph) sortedUnmatched(bounds []int32, in []entering) (from, to int, w int64, ok bool) {
	var own, ent []halfEdge
	for v := 0; v < g.N(); v++ {
		own, ent = own[:0], ent[:0]
		for j := g.rowStart[v]; j < g.rowStart[v+1]; j++ {
			own = append(own, halfEdge{g.to[j], g.w[j]})
		}
		for _, e := range in[bounds[v]:bounds[v+1]] {
			ent = append(ent, halfEdge{e.src, g.w[e.edge]})
		}
		slices.SortFunc(own, cmpHalfEdge)
		slices.SortFunc(ent, cmpHalfEdge)
		for i := 0; i < len(own) || i < len(ent); i++ {
			switch {
			case i == len(ent) || i < len(own) && cmpHalfEdge(own[i], ent[i]) < 0:
				return v, int(own[i].u), own[i].w, true
			case i == len(own) || cmpHalfEdge(ent[i], own[i]) < 0:
				return int(ent[i].u), v, ent[i].w, true
			}
		}
	}
	return 0, 0, 0, false
}

// CSRHash returns the graph's content address: the SHA-256 hex digest
// of its EncodeCSR bytes. Graphs with identical CSR arrays hash
// identically; the error result is always nil.
func CSRHash(g *Graph) (string, error) {
	blob, err := EncodeCSR(g)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}
