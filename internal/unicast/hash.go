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

// SeedWords returns the seed size in O(log n)-bit words.
func (h *Hash) SeedWords() int { return len(h.coeff) }

// Eval returns h(i, j) ∈ [0, n) for identifiers i, j ≥ 0.
func (h *Hash) Eval(i, j int64) int {
	// Encode the pair as i·65537 + j modulo the prime. The encoding is
	// injective only while both identifiers are below 2^15; HYBRID₀
	// draws identifiers from [n²], so from n ≥ 182 distinct pairs can
	// share a point and hence a hash value. The encoding stays as it
	// is, since changing it would change every routed row.
	x := uint64((i%hashPrime*65537 + j%hashPrime) % hashPrime)
	// Horner evaluation. acc, x < 2^31 and c < 2^31, so acc·x + c < 2^63
	// and one Mersenne reduction per step gives the residue exactly.
	var acc uint64
	for _, c := range h.coeff {
		acc = reduceMersenne31(acc*x + c)
	}
	return int(acc % h.n)
}

// reduceMersenne31 returns y mod 2^31 − 1 for y < 2^63. Each fold keeps
// y's residue, since 2^31 ≡ 1; the first leaves y < 2^32 + 2^31, the
// second y < 2^31 + 3, and one subtraction finishes.
func reduceMersenne31(y uint64) uint64 {
	y = y&hashPrime + y>>31
	y = y&hashPrime + y>>31
	if y >= hashPrime {
		y -= hashPrime
	}
	return y
}
