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
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
)

// CodecVersion names the CSR wire format. It is part of every encoded
// header and of runner.GraphCache's content addresses, so a format
// change orphans persisted topologies instead of misreading them.
const CodecVersion uint32 = 2

// csrMagic starts every encoded graph.
var csrMagic = [4]byte{'H', 'C', 'S', 'R'}

// csrHeaderLen is magic + version + n + halfEdges + diameter.
const csrHeaderLen = 4 + 4 + 8 + 8 + 8

// EncodeCSR serializes g into the deterministic binary CSR format: a
// fixed header (magic, CodecVersion, n, half-edge count, hop diameter)
// followed by the little-endian rowStart (int32), to (int32) and w
// (int64) arrays. The diameter is g.Diameter() — 0 for n ≤ 1, Inf for
// a disconnected graph — so encoding an unseeded graph pays its
// all-sources hop-kernel sweep once, and every decode inherits it. Two
// graphs with identical CSR arrays encode to identical bytes. Every
// Graph encodes; the error result is always nil.
func EncodeCSR(g *Graph) ([]byte, error) {
	n := g.N()
	h := len(g.to)
	buf := make([]byte, csrHeaderLen+4*(n+1)+4*h+8*h)
	copy(buf, csrMagic[:])
	binary.LittleEndian.PutUint32(buf[4:], CodecVersion)
	binary.LittleEndian.PutUint64(buf[8:], uint64(n))
	binary.LittleEndian.PutUint64(buf[16:], uint64(h))
	binary.LittleEndian.PutUint64(buf[24:], uint64(g.Diameter()))
	off := csrHeaderLen
	for _, v := range g.rowStart {
		binary.LittleEndian.PutUint32(buf[off:], uint32(v))
		off += 4
	}
	for _, v := range g.to {
		binary.LittleEndian.PutUint32(buf[off:], uint32(v))
		off += 4
	}
	for _, v := range g.w {
		binary.LittleEndian.PutUint64(buf[off:], uint64(v))
		off += 8
	}
	return buf, nil
}

// DecodeCSR parses an EncodeCSR blob back into a graph whose arrays
// are the blob's. The input is validated structurally — header
// shape, exact payload length, monotone row offsets, in-range
// endpoints, no self-loops, positive weights, and half-edge symmetry
// (every (u,v,w) half-edge has its (v,u,w) mate) — so a corrupt or
// truncated blob returns an error rather than a graph that violates
// the library's invariants. The stored diameter D is then checked
// against one BFS from node 0, e = ecc(0): a connected graph needs
// e ≤ D ≤ 2e (0 when n ≤ 1), a disconnected one exactly D = Inf. An
// accepted D pre-fills the Diameter cache, so a restore costs O(n+m)
// instead of the all-sources hop-kernel sweep.
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
	want := csrHeaderLen + 4*(n+1) + 4*h + 8*h
	if len(data) != want {
		return nil, fmt.Errorf("graph: codec: payload is %d bytes, want %d for n=%d halfEdges=%d", len(data), want, n, h)
	}
	g := &Graph{
		rowStart: make([]int32, n+1),
		to:       make([]int32, h),
		w:        make([]int64, h),
	}
	off := csrHeaderLen
	for i := range g.rowStart {
		g.rowStart[i] = int32(binary.LittleEndian.Uint32(data[off:]))
		off += 4
	}
	for i := range g.to {
		g.to[i] = int32(binary.LittleEndian.Uint32(data[off:]))
		off += 4
	}
	for i := range g.w {
		g.w[i] = int64(binary.LittleEndian.Uint64(data[off:]))
		off += 8
	}
	if g.rowStart[0] != 0 || int(g.rowStart[n]) != h {
		return nil, fmt.Errorf("graph: codec: row offsets span [%d,%d], want [0,%d]", g.rowStart[0], g.rowStart[n], h)
	}
	for v := 0; v < n; v++ {
		if g.rowStart[v] > g.rowStart[v+1] {
			return nil, fmt.Errorf("graph: codec: row offsets not monotone at node %d", v)
		}
	}
	// mates pairs each (v,u,w) half-edge with its reverse; every edge
	// must cancel out for the graph to be undirected. Weight mismatches
	// between directions surface as an unmatched leftover.
	mates := make(map[[3]int64]int, h/2)
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
			if v < u {
				mates[[3]int64{int64(v), int64(u), w}]++
			} else {
				mates[[3]int64{int64(u), int64(v), w}]--
			}
		}
	}
	for e, count := range mates {
		if count != 0 {
			return nil, fmt.Errorf("graph: codec: asymmetric edge (%d,%d,w=%d)", e[0], e[1], e[2])
		}
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
