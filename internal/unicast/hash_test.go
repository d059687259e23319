package unicast

import (
	"math/rand"
	"testing"
)

// referenceEval is Hash.Eval as it was before the Mersenne reduction,
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

// TestHashEvalMatchesReference: Eval equals the %-based Horner for
// κ ∈ {1, 2, 37, 400} on identifiers drawn from [0, n²), as HYBRID₀
// assigns them, with n large enough that many exceed 2^31 − 1.
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
			for _, j := range ids[max(0, a-20):min(len(ids), a+20)] {
				if got, want := h.Eval(i, j), referenceEval(h, i, j); got != want {
					t.Fatalf("κ=%d: Eval(%d, %d) = %d, reference %d", kappa, i, j, got, want)
				}
			}
		}
	}
	if above == 0 {
		t.Fatal("no identifier at or above 2^31 − 1 was tested")
	}
}

// TestReduceMersenne31: the reduction equals y mod 2^31 − 1 at the
// boundaries the folds meet, including the residues that need the final
// subtraction (y ≡ 0 after the folds leave exactly the prime).
func TestReduceMersenne31(t *testing.T) {
	const p = uint64(hashPrime)
	ys := []uint64{0, 1, p - 1, p, p + 1, p + 3, 2 * p, 2*p + 1, 1 << 31, 1<<32 - 1, 1 << 32,
		p * p, (p-1)*(p-1) + p - 1, 1<<62 - 1, 1 << 62, 1<<63 - 1}
	rng := rand.New(rand.NewSource(3))
	for range 100_000 {
		ys = append(ys, rng.Uint64()>>1, p*uint64(rng.Int63n(1<<31)))
	}
	for _, y := range ys {
		if got := reduceMersenne31(y); got != y%p {
			t.Fatalf("reduceMersenne31(%d) = %d, want %d", y, got, y%p)
		}
	}
}
