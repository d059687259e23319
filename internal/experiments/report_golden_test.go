package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
)

// reportGolden576 is the sha256 of the default report — every Table
// 1–4, Figure 1 and NQ-scaling row at N = 576, Seed = 1, rendered as
// JSONL on one worker — as the code produced it before the per-ε
// quantizer table, the one-reduction Mersenne hash and the reused
// overlay schedules replaced the per-call formulas. Any change to a
// rendered byte, including the quantized and routed columns, moves it.
const reportGolden576 = "4f42908ca51dcbba52f175691bb5329d9347c9f74baaf5ed4c5ff5d631d1ac78"

func TestReportGolden(t *testing.T) {
	h := sha256.New()
	if err := WriteReport(h, ReportConfig{N: 576, Seed: 1, Workers: 1, Format: "jsonl"}); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != reportGolden576 {
		t.Fatalf("default report (N=576, seed 1, jsonl) hashes to %s, want %s", got, reportGolden576)
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
