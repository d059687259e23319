package sssp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// referenceQuantizeUp is QuantizeUp as it was before the Quantizer
// table, kept as the differential reference: a Log, a Ceil and an Exp
// per distance, then the two clamps.
func referenceQuantizeUp(d int64, eps float64) int64 {
	if d <= 0 || d >= graph.Inf || eps <= 0 {
		return d
	}
	step := math.Log1p(eps)
	i := math.Ceil(math.Log(float64(d)) / step)
	q := int64(math.Floor(math.Exp(float64(i) * step)))
	if q < d {
		q = d
	}
	if lim := int64(float64(d) * (1 + eps)); q > lim && lim >= d {
		q = lim
	}
	return q
}

var quantizerEpsilons = []float64{0.01, 0.1, 0.25, 0.5, 1, 2}

// TestQuantizerMatchesReference: Quantizer.Up and QuantizeUp equal the
// reference bit for bit on every distance in [−2, 2^21), on 10^6 random
// distances below Inf (the large ones reach exponents above the table
// cap), and on the pass-through inputs d ≥ Inf and eps ≤ 0. Each
// distance in [−2, 2^21) is queried twice, in shuffled order, so the
// per-distance memo is both filled and read back in between queries at
// or above its cap.
func TestQuantizerMatchesReference(t *testing.T) {
	const lo, hi = -2, 1 << 21
	ds := make([]int32, 0, 2*(hi-lo))
	for d := int32(lo); d < hi; d++ {
		ds = append(ds, d, d)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
	for _, eps := range quantizerEpsilons {
		q := NewQuantizer(eps)
		for _, d := range ds {
			if got, want := q.Up(int64(d)), referenceQuantizeUp(int64(d), eps); got != want {
				t.Fatalf("eps=%v: Up(%d) = %d, reference %d", eps, d, got, want)
			}
		}
		rng := rand.New(rand.NewSource(int64(eps * 1000)))
		for range 1_000_000 {
			// Log-uniform magnitudes, so every exponent range is hit.
			d := rng.Int63n(graph.Inf) >> rng.Intn(62)
			want := referenceQuantizeUp(d, eps)
			if got := q.Up(d); got != want {
				t.Fatalf("eps=%v: Up(%d) = %d, reference %d", eps, d, got, want)
			}
			if got := QuantizeUp(d, eps); got != want {
				t.Fatalf("eps=%v: QuantizeUp(%d) = %d, reference %d", eps, d, got, want)
			}
		}
		for _, d := range []int64{graph.Inf - 1, graph.Inf, graph.Inf + 1, math.MaxInt64} {
			if got, want := q.Up(d), referenceQuantizeUp(d, eps); got != want {
				t.Fatalf("eps=%v: Up(%d) = %d, reference %d", eps, d, got, want)
			}
		}
	}
	for _, eps := range []float64{0, math.Copysign(0, -1), -0.5, -1, -3} {
		q := NewQuantizer(eps)
		for _, d := range []int64{-1, 0, 1, 2, 1000, graph.Inf - 1, graph.Inf} {
			if got := q.Up(d); got != d || QuantizeUp(d, eps) != d {
				t.Fatalf("eps=%v: Up(%d) = %d, want it unchanged", eps, d, got)
			}
		}
	}
}
