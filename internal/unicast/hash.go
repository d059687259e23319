package unicast

import (
	"fmt"
	"math/rand"
)

// hashPrime is the field modulus for the polynomial hash family
// (Lemma A.6): the Mersenne prime 2^31 − 1. It exceeds the identifier
// space [n²] of HYBRID₀ only for n ≤ 46340; beyond that, identifiers
// are reduced modulo it before they are encoded.
const hashPrime = 1<<31 - 1

// Hash is a κ-wise independent hash function h : [n]×[n] → [n]
// (Lemma 5.3 / Lemma A.6), realized as a random polynomial of degree κ−1
// over GF(hashPrime) evaluated at an encoding of the identifier pair.
// Its seed has κ field elements, i.e. eÕ(NQ_k) words for the paper's
// κ ∈ Θ(NQ_k·log n), which is what the seed broadcast charges.
type Hash struct {
	coeff []uint64
	n     uint64
}

// NewHash draws a κ-wise independent hash onto [n] from rng.
func NewHash(n, kappa int, rng *rand.Rand) (*Hash, error) {
	if n <= 0 {
		return nil, fmt.Errorf("unicast: hash range n=%d", n)
	}
	if kappa < 1 {
		kappa = 1
	}
	h := &Hash{coeff: make([]uint64, kappa), n: uint64(n)}
	for i := range h.coeff {
		h.coeff[i] = uint64(rng.Int63n(hashPrime))
	}
	return h, nil
}

// pairPoint encodes the identifier pair (i, j), i, j ≥ 0, as the field
// point i·65537 + j modulo the prime. The encoding is injective only
// while both identifiers are below 2^15; HYBRID₀ draws identifiers from
// [n²], so from n ≥ 182 distinct pairs can share a point and hence a
// hash value. The encoding stays as it is, since changing it would
// change every routed row.
func pairPoint(i, j int64) uint64 {
	return uint64((i%hashPrime*65537 + j%hashPrime) % hashPrime)
}

// eval4 returns h at the four field points x (each below the prime).
// Horner's rule advances four independent accumulators per coefficient,
// so their multiplies overlap instead of forming one latency-bound
// chain. Each step keeps only the two Mersenne folds (fold2): an
// accumulator below 2^31 + 3 times a point below 2^31, plus a
// coefficient below 2^31, stays below 2^63, so the folds keep every
// residue exactly, and the conditional subtraction that makes it
// canonical runs once per point at the end.
func (h *Hash) eval4(x *[4]uint64) [4]int {
	// The points are read through x on every step: copying them into
	// locals leaves too few registers on amd64, and the loop spills.
	var a0, a1, a2, a3 uint64
	for _, c := range h.coeff {
		a0 = fold2(a0*x[0] + c)
		a1 = fold2(a1*x[1] + c)
		a2 = fold2(a2*x[2] + c)
		a3 = fold2(a3*x[3] + c)
	}
	return [4]int{
		int(canonical(a0) % h.n),
		int(canonical(a1) % h.n),
		int(canonical(a2) % h.n),
		int(canonical(a3) % h.n),
	}
}

// fold2 returns a value below 2^31 + 3 congruent to y < 2^63 modulo
// 2^31 − 1. Each fold keeps y's residue, since 2^31 ≡ 1; the first
// leaves y < 2^32 + 2^31, the second y < 2^31 + 3.
func fold2(y uint64) uint64 {
	y = y&hashPrime + y>>31
	return y&hashPrime + y>>31
}

// canonical maps a fold2 result (below 2^31 + 3, so below twice the
// prime) to its residue in [0, 2^31 − 1).
func canonical(y uint64) uint64 {
	if y >= hashPrime {
		y -= hashPrime
	}
	return y
}
