package repro_test

// BenchmarkRestoreDecode measures the two decoders a restore from the
// disk tier runs (DESIGN.md §9–10) on the eight topologies of the
// restore-bump workload (nqscaling-large at n = 256: path, cycle,
// grid2d and grid3d at 1024 and 4096 nodes):
//
//   - csr: graph.DecodeCSR, its structural checks, the double-transpose
//     symmetry check and the ecc(0) BFS that brackets the diameter.
//   - profiles: graph.DecodeProfiles on each topology's canonical ball
//     profile, the one-pass row checks and the row-batch index.
//
// Every blob is 8-byte aligned, as the disk tier places it, so both
// decoders view it in place. BENCH_restore.txt records one -count 5
// run with the machine it ran on (README names the command).

import (
	"testing"

	"repro/internal/graph"
)

func BenchmarkRestoreDecode(b *testing.B) {
	var csrs, profiles [][]byte
	for _, fam := range []graph.Family{graph.FamilyPath, graph.FamilyCycle, graph.FamilyGrid2D, graph.FamilyGrid3D} {
		for _, n := range []int{1024, 4096} {
			g, err := graph.Build(fam, n, nil)
			if err != nil {
				b.Fatal(err)
			}
			blob, err := graph.EncodeCSR(g)
			if err != nil {
				b.Fatal(err)
			}
			csrs = append(csrs, blob)
			profiles = append(profiles, graph.EncodeProfiles(g.BallProfiles(graph.ProfileRadius(g.N(), g.Diameter()))))
		}
	}
	b.Run("csr", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for _, blob := range csrs {
				if _, err := graph.DecodeCSR(blob); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("profiles", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for _, blob := range profiles {
				if _, err := graph.DecodeProfiles(blob); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
