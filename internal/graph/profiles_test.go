package graph

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// stopRow cuts a BallSizes row at its first t with t·|B_t| ≥ stop,
// where a BallProfiles row stops: the reference rows of the profile
// tests.
func stopRow(sizes []int, stop int) []int {
	for t, size := range sizes {
		if t*size >= stop {
			return sizes[:t+1]
		}
	}
	return sizes
}

// TestProfilesMatchBallSizes: the batch kernel must agree entrywise
// with the incremental BallSizes it batches, cut at each row's first
// t·|B_t| ≥ K, including the truncation semantics (entries past the
// stored row repeat the final value).
func TestProfilesMatchBallSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	graphs := map[string]*Graph{
		"path":   Path(40),
		"grid":   Grid(6, 2),
		"random": RandomConnected(35, 0.1, rng),
	}
	for name, g := range graphs {
		stop := g.ProfileStop()
		for _, maxR := range []int{0, 1, 3, 12, g.N()} {
			p := g.BallProfiles(maxR)
			if p.N() != g.N() || p.maxR != maxR || p.stop != int64(stop) {
				t.Fatalf("%s maxR=%d: shape n=%d maxR=%d stop=%d", name, maxR, p.N(), p.maxR, p.stop)
			}
			for v := 0; v < g.N(); v++ {
				sizes := stopRow(g.BallSizes(v, maxR), stop)
				if p.Len(v) != len(sizes) {
					t.Fatalf("%s maxR=%d v=%d: profile len %d, BallSizes cut at K has %d", name, maxR, v, p.Len(v), len(sizes))
				}
				for tt := 0; tt <= maxR; tt++ {
					want := sizes[min(tt, len(sizes)-1)]
					if got := p.Size(v, tt); got != want {
						t.Fatalf("%s maxR=%d: |B_%d(%d)|=%d, BallSizes %d", name, maxR, tt, v, got, want)
					}
				}
			}
		}
	}
}

// eccUnknown is kernelEccentricities' mark for a search that maxR cut
// off, where the kernel writes no eccentricity.
const eccUnknown int64 = -1

// kernelEccentricities runs the hop kernel over every 64-node batch
// of g at radius maxR and returns the eccentricities it reports.
func kernelEccentricities(g *Graph, maxR int) []int64 {
	ecc := make([]int64, g.N())
	for v := range ecc {
		ecc[v] = eccUnknown
	}
	for lo := 0; lo < g.N(); lo += hopBatch {
		hi := min(lo+hopBatch, g.N())
		var src [hopBatch]int
		g.hopKernel(hopRange(&src, lo, hi), maxR, ecc[lo:hi], nil, nil)
	}
	return ecc
}

// TestProfilesEccentricities: the hop kernel reports exact
// eccentricities (Inf on disconnected graphs) and eccUnknown where
// maxR cuts a search off, and a profile reads from its rows' ends what
// it decides: every k ≤ K when each row stopped at K or is final, less
// when maxR cut a row off first, and every k once every row is final.
func TestProfilesEccentricities(t *testing.T) {
	g := Path(30)
	full := kernelEccentricities(g, g.N())
	for v := 0; v < g.N(); v++ {
		if want := g.Eccentricity(v); full[v] != want {
			t.Fatalf("ecc(%d)=%d, want %d", v, full[v], want)
		}
	}
	if trunc := kernelEccentricities(g, 3); trunc[0] != eccUnknown || trunc[15] != eccUnknown {
		t.Fatalf("radius-3 eccentricities %d, %d, want eccUnknown", trunc[0], trunc[15])
	}
	disc := NewBuilder(4)
	disc.mustAddEdge(0, 1, 1)
	disc.mustAddEdge(2, 3, 1)
	dg := disc.Build()
	for v, e := range kernelEccentricities(dg, 10) {
		if e != Inf {
			t.Fatalf("disconnected ecc(%d)=%d, want Inf", v, e)
		}
	}

	// A 30-path's K is 270: the endpoint rows stop at t = 16
	// (16·17 = 272), long before |B_t| = n.
	stop := g.ProfileStop()
	deep := g.BallProfiles(g.N())
	if deep.Complete() || !deep.Decides(stop) || deep.Decides(stop+1) {
		t.Fatalf("full-depth path profile: complete %v, decides K %v, K+1 %v; want false, true, false",
			deep.Complete(), deep.Decides(stop), deep.Decides(stop+1))
	}
	if deep.Len(0) != 17 {
		t.Fatalf("endpoint row has %d entries, want 17", deep.Len(0))
	}
	// At radius 3 the endpoint rows are cut at 3·|B_3| = 12.
	trunc := g.BallProfiles(3)
	if !trunc.Decides(12) || trunc.Decides(13) {
		t.Fatal("radius-3 profile does not decide exactly k ≤ 3·|B_3(0)| = 12")
	}
	for name, p := range map[string]*Profiles{"5-cycle": Cycle(5).BallProfiles(5), "disconnected": dg.BallProfiles(10)} {
		if !p.Complete() || !p.Decides(1<<40) {
			t.Fatalf("%s: rows all final, yet complete %v", name, p.Complete())
		}
	}
}

// TestAttachProfiles: attachment keeps the deepest artifact.
func TestAttachProfiles(t *testing.T) {
	g := Cycle(20)
	shallow := g.BallProfiles(2)
	deep := g.BallProfiles(5)
	if got := g.AttachProfiles(shallow); got != shallow || g.Profiles() != shallow {
		t.Fatal("first attach did not win")
	}
	if got := g.AttachProfiles(deep); got != deep || g.Profiles() != deep {
		t.Fatal("deeper artifact did not replace the shallow one")
	}
	if got := g.AttachProfiles(shallow); got != deep || g.Profiles() != deep {
		t.Fatal("shallow artifact displaced a deeper one")
	}
	full := g.BallProfiles(g.N())
	g.AttachProfiles(full)
	if got := g.AttachProfiles(deep); got != full {
		t.Fatal("truncated artifact displaced a complete one")
	}
}

// TestBallReach: the early-exit kernel must return exactly the radius
// a BallSizes scan resolves, across radii, needs, and stall regimes.
func TestBallReach(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	graphs := []*Graph{Path(25), Grid(5, 2), Star(12), RandomConnected(30, 0.1, rng)}
	for gi, g := range graphs {
		n := g.N()
		for v := 0; v < n; v++ {
			for _, need := range []int64{1, 2, 7, int64(n), 5 * int64(n)} {
				for _, maxT := range []int{1, 3, n} {
					sizes := g.BallSizes(v, maxT)
					wantT, wantOK := 0, false
					for tt := 1; tt <= maxT; tt++ {
						size := sizes[len(sizes)-1]
						if tt < len(sizes) {
							size = sizes[tt]
						}
						if int64(tt)*int64(size) >= need {
							wantT, wantOK = tt, true
							break
						}
					}
					gotT, gotSize, gotOK := g.BallReach(v, maxT, need)
					if gotOK != wantOK || gotT != wantT {
						t.Fatalf("graph %d v=%d need=%d maxT=%d: BallReach=(%d,%v), scan=(%d,%v)",
							gi, v, need, maxT, gotT, gotOK, wantT, wantOK)
					}
					if gotOK {
						wantSize := sizes[len(sizes)-1]
						if gotT < len(sizes) {
							wantSize = sizes[gotT]
						}
						if gotSize != wantSize {
							t.Fatalf("graph %d v=%d need=%d maxT=%d: size %d, want %d", gi, v, need, maxT, gotSize, wantSize)
						}
					}
				}
			}
		}
	}
	if _, _, ok := Path(5).BallReach(-1, 3, 1); ok {
		t.Fatal("out-of-range node reached")
	}
	if _, _, ok := Path(5).BallReach(0, 0, 1); ok {
		t.Fatal("maxT=0 reached")
	}
}

// TestProfileRadius pins the canonical truncation policy.
func TestProfileRadius(t *testing.T) {
	if r := ProfileRadius(100, 1000); r != 3*10+8 {
		t.Fatalf("ProfileRadius(100,1000)=%d", r)
	}
	if r := ProfileRadius(100, 5); r != 5 {
		t.Fatalf("diameter did not clamp: %d", r)
	}
	if r := ProfileRadius(100, 0); r != 1 {
		t.Fatalf("zero diameter: %d", r)
	}
	if r := ProfileRadius(100, Inf); r != 38 {
		t.Fatalf("disconnected graph: %d", r)
	}
	if r := ProfileRadius(0, -1); r != 8 {
		t.Fatalf("empty graph: %d", r)
	}
}

// TestProfilesCodecRoundTrip: encode∘decode is the identity on the
// kernel's output, bytes are deterministic, and a decoded artifact
// re-encodes to the same bytes.
func TestProfilesCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, g := range []*Graph{Path(30), Path(130), Grid(5, 2), RandomConnected(40, 0.1, rng), NewBuilder(0).Build()} {
		for _, maxR := range []int{0, 2, g.N()} {
			p := g.BallProfiles(maxR)
			blob := EncodeProfiles(p)
			if !bytes.Equal(blob, EncodeProfiles(p)) {
				t.Fatal("encoding not deterministic")
			}
			got, err := DecodeProfiles(blob)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got.N() != p.N() || got.maxR != p.maxR || got.stop != p.stop || got.decided != p.decided {
				t.Fatalf("decoded shape (%d,%d,%d,%d), want (%d,%d,%d,%d)",
					got.N(), got.maxR, got.stop, got.decided, p.N(), p.maxR, p.stop, p.decided)
			}
			for v := 0; v < p.N(); v++ {
				if got.Len(v) != p.Len(v) {
					t.Fatalf("node %d: decoded len %d, want %d", v, got.Len(v), p.Len(v))
				}
				for tt := 0; tt <= maxR; tt++ {
					if got.Size(v, tt) != p.Size(v, tt) {
						t.Fatalf("node %d t=%d: decoded size %d, want %d", v, tt, got.Size(v, tt), p.Size(v, tt))
					}
				}
			}
			if !bytes.Equal(EncodeProfiles(got), blob) {
				t.Fatal("re-encoding differs from the original bytes")
			}
		}
	}
}

// profileRows returns copies of p's rows in node order.
func profileRows(p *Profiles) [][]int32 {
	rows := make([][]int32, p.n)
	for v := range rows {
		rows[v] = slices.Clone(p.row(v))
	}
	return rows
}

// profileBlob encodes rows by hand in the current layout, so a test
// can store rows the kernel would never write.
func profileBlob(n, maxR int, stop int64, rows [][]int32) []byte {
	entries := 0
	for _, row := range rows {
		entries += len(row)
	}
	b := binary.LittleEndian.AppendUint32(append([]byte(nil), profMagic[:]...), ProfilesCodecVersion)
	for _, v := range []uint64{uint64(n), uint64(maxR), uint64(stop), uint64(entries)} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	off := uint32(0)
	b = binary.LittleEndian.AppendUint32(b, off)
	for _, row := range rows {
		off += uint32(len(row))
		b = binary.LittleEndian.AppendUint32(b, off)
	}
	for _, row := range rows {
		for _, size := range row {
			b = binary.LittleEndian.AppendUint32(b, uint32(size))
		}
	}
	return b
}

// v1ProfileBlob encodes p in the version-1 layout: no stop in the
// header, and an eccentricity array after the sizes (here each row's
// length minus one, which is what version 1 stored for a final row).
func v1ProfileBlob(p *Profiles) []byte {
	rows := profileRows(p)
	entries := int(p.rowStart[p.n])
	b := binary.LittleEndian.AppendUint32(append([]byte(nil), profMagic[:]...), 1)
	for _, v := range []uint64{uint64(p.n), uint64(p.maxR), uint64(entries)} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	for _, off := range p.rowStart {
		b = binary.LittleEndian.AppendUint32(b, uint32(off))
	}
	for _, row := range rows {
		for _, size := range row {
			b = binary.LittleEndian.AppendUint32(b, uint32(size))
		}
	}
	for _, row := range rows {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(row)-1))
	}
	return b
}

// TestProfilesCodecRejectsCorruption: structural damage, rows that do
// not end exactly where the kernel ends them, and blobs of another
// version must fail decoding rather than produce an invalid artifact.
func TestProfilesCodecRejectsCorruption(t *testing.T) {
	p := Grid(4, 2).BallProfiles(6)
	blob := EncodeProfiles(p)
	// A 40-path's rows stop at K = 360 (the endpoints' at t = 19, with
	// 19·20 = 380), short of every other end.
	path := Path(40)
	stopped := path.BallProfiles(path.N())
	stop := int64(path.ProfileStop())
	if stopped.Len(0) != 20 {
		t.Fatalf("endpoint row of the 40-path has %d entries, want 20", stopped.Len(0))
	}
	withRow0 := func(row []int32) []byte {
		rows := profileRows(stopped)
		rows[0] = row
		return profileBlob(path.N(), path.N(), stop, rows)
	}
	row0 := profileRows(stopped)[0]
	cases := map[string][]byte{
		"truncated header": blob[:10],
		"bad magic":        append([]byte{'X'}, blob[1:]...),
		"bad version":      append(append(slices.Clone(blob[:4]), 99, 0, 0, 0), blob[8:]...),
		"short payload":    blob[:len(blob)-3],
		"huge n":           append(append(slices.Clone(blob[:8]), 0xff, 0xff, 0xff, 0xff), blob[12:]...),
		"zero first size": func() []byte {
			b := slices.Clone(blob)
			b[profHeaderLen+4*(p.n+1)] = 0
			return b
		}(),
		"exhausted row not ended": func() []byte {
			// Node 5 (a grid center) reaches all 16 nodes before maxR;
			// a row that runs on past |B_t| = n is not the kernel's.
			rows := profileRows(p)
			rows[5] = append(rows[5], 16)
			return profileBlob(p.n, p.maxR, p.stop, rows)
		}(),
		"row past its stop":     withRow0(append(slices.Clone(row0), 21)),
		"row short of its stop": withRow0(row0[:len(row0)-1]),
		"stop raised":           profileBlob(path.N(), path.N(), stop+100, profileRows(stopped)),
		"stop below 9n":         profileBlob(path.N(), path.N(), int64(9*path.N()-1), profileRows(stopped)),
		"version 1":             v1ProfileBlob(stopped),
	}
	for name, mutated := range cases {
		if _, err := DecodeProfiles(mutated); err == nil {
			t.Fatalf("%s: corrupt blob decoded", name)
		}
	}
	for _, pristine := range [][]byte{blob, EncodeProfiles(stopped), profileBlob(path.N(), path.N(), stop, profileRows(stopped))} {
		if _, err := DecodeProfiles(pristine); err != nil {
			t.Fatalf("pristine blob rejected: %v", err)
		}
	}
}

// shortcutBlobs are profile blobs that each of rowValid's shortcuts
// rejects alone, with one row off the kernel's whose last entry is an
// end: a plateau before the last entry (ended by t = maxR = 3 on a
// 4-path), a size equal to n before it, t·|B_t| ≥ K at entry last−1
// (the 40-path's endpoint row, whose stop is at t = 19, run one entry
// on), and a two-entry row on n = 1.
func shortcutBlobs() map[string][]byte {
	withRow0 := func(p *Profiles, row ...int32) []byte {
		rows := profileRows(p)
		rows[0] = row
		return profileBlob(p.n, p.maxR, p.stop, rows)
	}
	short, long := Path(4).BallProfiles(3), Path(40).BallProfiles(40)
	return map[string][]byte{
		"plateau before the last entry": withRow0(short, 1, 2, 2, 3),
		"size n before the last entry":  withRow0(long, 1, 5, 40, 40),
		"t·|B_t| ≥ K at entry last−1":   withRow0(long, append(slices.Clone(long.row(0)), 21)...),
		"two-entry row on n = 1":        profileBlob(1, 1, 9, [][]int32{{1, 1}}),
	}
}

// TestProfileRowShortcutsKeepMessages: each row that only an O(1) end
// check of rowValid rejects fails with refDecodeProfiles's message.
func TestProfileRowShortcutsKeepMessages(t *testing.T) {
	for name, blob := range shortcutBlobs() {
		_, err := DecodeProfiles(blob)
		want := refDecodeProfiles(blob)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("%s: DecodeProfiles error %v, reference %v", name, err, want)
		}
	}
}

// TestDecodeProfilesMatchesReference decodes random small blobs whose
// rows are mostly strictly increasing, with plateaus, shrinks, sizes
// past n and rows ended early or late mixed in, and requires
// refDecodeProfiles's verdict and error text for each.
func TestDecodeProfilesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var accepted int
	const iters = 50000
	for iter := 0; iter < iters; iter++ {
		n, maxR := 1+rng.Intn(16), rng.Intn(18)
		stop := int64(9*n + rng.Intn(12))
		rows := make([][]int32, n)
		for v := range rows {
			row := []int32{1}
			for t := 1; t <= maxR && rng.Intn(8) > 0; t++ {
				switch next := row[t-1]; rng.Intn(10) {
				case 0:
					row = append(row, next)
				case 1:
					row = append(row, next-1)
				default:
					row = append(row, min(next+int32(1+rng.Intn(4)/3), int32(n)+int32(rng.Intn(2))))
				}
				if ended := rowEnds(row, t, n, maxR, stop); ended && rng.Intn(4) > 0 {
					break
				}
			}
			if rng.Intn(40) == 0 {
				row[0] = int32(rng.Intn(3))
			}
			rows[v] = row
		}
		blob := profileBlob(n, maxR, stop, rows)
		_, err := DecodeProfiles(blob)
		if want := refDecodeProfiles(blob); errText(err) != errText(want) {
			t.Fatalf("rows %v (n=%d maxR=%d stop=%d): DecodeProfiles error %v, reference %v", rows, n, maxR, stop, err, want)
		}
		if err == nil {
			accepted++
		}
	}
	if accepted < iters/20 || accepted > iters*19/20 {
		t.Fatalf("%d of %d random blobs accepted: the rows no longer exercise both outcomes", accepted, iters)
	}
}

// offsetPastEntriesBlob is a profile blob whose first row offset pair
// (0,5) looks sane but runs past the two stored sizes: n=2, maxR=10,
// stop=18, entries=2, rowStart=[0,5,2], sizes=[1,1].
func offsetPastEntriesBlob() []byte {
	b := make([]byte, 0, profHeaderLen+4*3+4*2)
	b = append(b, profMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, ProfilesCodecVersion)
	for _, v := range []uint64{2, 10, 18, 2} { // n, maxR, stop, entries
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	for _, v := range []uint32{0, 5, 2, 1, 1} { // rowStart, then sizes
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// TestDecodeProfilesRejectsOffsetPastEntries: every row offset must be
// checked against the sizes array before any row is read, so a blob
// whose offsets are monotone only pair by pair returns an error
// instead of indexing past the sizes.
func TestDecodeProfilesRejectsOffsetPastEntries(t *testing.T) {
	if _, err := DecodeProfiles(offsetPastEntriesBlob()); err == nil {
		t.Fatal("blob with a row offset past the entry count decoded")
	}
}
