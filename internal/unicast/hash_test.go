package unicast

import (
	"math/bits"
	"math/rand"
	"testing"
)

// eval returns h(i, j) ∈ [0, n) for identifiers i, j ≥ 0: one point of
// a padded eval4 block, the scalar form of the relay's hashing.
func (h *Hash) eval(i, j int64) int {
	x := [4]uint64{pairPoint(i, j)}
	return h.eval4(&x)[0]
}

// referenceEval is the scalar hash as it was before the Mersenne reduction,
// kept as the differential reference: the same pair encoding and a
// Horner step of one int64 multiply and two % per coefficient.
func referenceEval(h *Hash, i, j int64) int {
	const p int64 = hashPrime
	x := (i%p*65537 + j%p) % p
	var acc int64
	for _, c := range h.coeff {
		acc = (acc*x%p + int64(c)) % p
	}
	return int(acc % int64(h.n))
}

// evalBlocks evaluates h on xs the way relayPairs does: blocks of four
// points through eval4, a short last block padded with the stale points
// of the block before.
func evalBlocks(h *Hash, xs []uint64) []int {
	out := make([]int, 0, len(xs))
	var x [4]uint64
	for b := 0; b < len(xs); b += 4 {
		block := xs[b:min(b+4, len(xs))]
		copy(x[:], block)
		got := h.eval4(&x)
		out = append(out, got[:len(block)]...)
	}
	return out
}

// TestHashEvalMatchesReference: eval and the four-point kernel equal the
// %-based Horner for κ ∈ {1, 2, 37, 400} on identifiers drawn from
// [0, n²), as HYBRID₀ assigns them, with n large enough that many exceed
// 2^31 − 1, and on batches whose last block holds one to four points.
func TestHashEvalMatchesReference(t *testing.T) {
	const n = 100_000 // n² ≈ 2^33
	rng := rand.New(rand.NewSource(7))
	above := 0
	for _, kappa := range []int{1, 2, 37, 400} {
		h, err := NewHash(n, kappa, rng)
		if err != nil {
			t.Fatal(err)
		}
		ids := []int64{0, 1, hashPrime - 1, hashPrime, hashPrime + 1, 2 * hashPrime, n*n - 1}
		for range 2000 {
			ids = append(ids, rng.Int63n(n*n))
		}
		for a, i := range ids {
			if i >= hashPrime {
				above++
			}
			js := ids[max(0, a-20):min(len(ids), a+20)]
			xs := make([]uint64, len(js))
			for b, j := range js {
				if got, want := h.eval(i, j), referenceEval(h, i, j); got != want {
					t.Fatalf("κ=%d: eval(%d, %d) = %d, reference %d", kappa, i, j, got, want)
				}
				xs[b] = pairPoint(i, j)
			}
			// Batches of every remainder mod 4 from the same row.
			for cut := len(js) - 3; cut <= len(js); cut++ {
				for b, got := range evalBlocks(h, xs[:cut]) {
					if want := referenceEval(h, i, js[b]); got != want {
						t.Fatalf("κ=%d, batch of %d: point %d (%d, %d) = %d, reference %d", kappa, cut, b, i, js[b], got, want)
					}
				}
			}
		}
	}
	if above == 0 {
		t.Fatal("no identifier at or above 2^31 − 1 was tested")
	}
	// h(x) = x + 1 at x = 2^31 − 2 folds to exactly the prime, so every
	// lane's final subtraction must run to give 0.
	h := &Hash{coeff: []uint64{1, 1}, n: n}
	x := pairPoint(0, hashPrime-1)
	for b, got := range evalBlocks(h, []uint64{x, x, x, x, x}) {
		if want := referenceEval(h, 0, hashPrime-1); got != want || got != 0 {
			t.Fatalf("point %d at x = 2^31 − 2 under h(x) = x + 1: got %d, reference %d", b, got, want)
		}
	}
}

// TestReduceMersenne31: fold2 followed by canonical equals y mod
// 2^31 − 1 at the boundaries the folds meet, including the residues that
// need the final subtraction (y ≡ 0 after the folds leave exactly the
// prime), and fold2 alone stays below 2^31 + 3.
func TestReduceMersenne31(t *testing.T) {
	const p = uint64(hashPrime)
	ys := []uint64{0, 1, p - 1, p, p + 1, p + 3, 2 * p, 2*p + 1, 1 << 31, 1<<32 - 1, 1 << 32,
		p * p, (p-1)*(p-1) + p - 1, 1<<62 - 1, 1 << 62, 1<<63 - 1}
	rng := rand.New(rand.NewSource(3))
	for range 100_000 {
		ys = append(ys, rng.Uint64()>>1, p*uint64(rng.Int63n(1<<31)))
	}
	for _, y := range ys {
		f := fold2(y)
		if f >= 1<<31+3 {
			t.Fatalf("fold2(%d) = %d, not below 2^31 + 3", y, f)
		}
		if got := canonical(f); got != y%p {
			t.Fatalf("canonical(fold2(%d)) = %d, want %d", y, got, y%p)
		}
	}
}

// TestLazyFoldBound pins the bound eval4 relies on to skip the
// subtraction inside the Horner loop: an accumulator below 2^31 + 3
// times a point below 2^31, plus a coefficient below 2^31, stays below
// 2^63, so fold2 receives a value it reduces exactly.
func TestLazyFoldBound(t *testing.T) {
	const acc, x, c = uint64(1<<31 + 2), uint64(1<<31 - 1), uint64(1<<31 - 1)
	hi, lo := bits.Mul64(acc, x)
	sum, carry := bits.Add64(lo, c, 0)
	if hi != 0 || carry != 0 || sum >= 1<<63 {
		t.Fatalf("(2^31+2)·(2^31−1) + 2^31−1 = %d·2^64 + %d, not below 2^63", hi+carry, sum)
	}
	if f := fold2(sum); f >= 1<<31+3 || canonical(f) != sum%hashPrime {
		t.Fatalf("fold2 of the largest step %d gave %d", sum, f)
	}
}
