package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
)

// reportGolden576 holds the sha256 of the default report — every Table
// 1–4, Figure 1 and NQ-scaling row at N = 576, Seed = 1, on one worker —
// in each served format. The JSONL hash dates from before the per-ε
// quantizer table, the one-reduction Mersenne hash and the reused
// overlay schedules replaced the per-call formulas; the markdown and CSV
// hashes were taken from the same code when the test-only table
// renderers were deleted. Any change to a rendered byte, including the
// quantized and routed columns, a header or a title, moves them.
var reportGolden576 = map[string]string{
	"md":    "0360333f2f72ff0b0d5666040770074453601ef53ea0c165049dc1da260095ef",
	"csv":   "dc84669e2cc0569953e2f20fc29ac34be191f5c3924e3518bf62aa144529fcdc",
	"jsonl": "4f42908ca51dcbba52f175691bb5329d9347c9f74baaf5ed4c5ff5d631d1ac78",
}

func TestReportGolden(t *testing.T) {
	for _, format := range Formats() {
		t.Run(format, func(t *testing.T) {
			h := sha256.New()
			if err := WriteReport(h, ReportConfig{N: 576, Seed: 1, Workers: 1, Format: format}); err != nil {
				t.Fatal(err)
			}
			if got, want := hex.EncodeToString(h.Sum(nil)), reportGolden576[format]; got != want {
				t.Fatalf("default report (N=576, seed 1, %s) hashes to %s, want %s", format, got, want)
			}
		})
	}
}

// BenchmarkWriteReport times the default report of TestReportGolden
// (N = 576, seed 1, JSONL, one worker) written to io.Discard, each
// iteration from fresh topology and profile caches, as cmd/experiments
// runs it. Profile it with
//
//	go test -run '^$' -bench WriteReport -benchtime 12x -cpuprofile cpu.out ./internal/experiments
func BenchmarkWriteReport(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteReport(io.Discard, ReportConfig{N: 576, Seed: 1, Workers: 1, Format: "jsonl"}); err != nil {
			b.Fatal(err)
		}
	}
}
