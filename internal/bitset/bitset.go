// Package bitset provides a minimal fixed-size bitset used for per-node
// identifier-knowledge tracking in the HYBRID₀ engine: under the
// Section 1.3 identifier regime a node may address global messages only
// to identifiers it has learned, and internal/hybrid records that
// knowledge as one bitset per node (Config.TrackKnowledge).
package bitset

import "math/bits"

// Set is a fixed-capacity bitset. Create with New; the zero value is an
// empty set of capacity 0.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with capacity n bits.
func New(n int) Set {
	if n < 0 {
		n = 0
	}
	return Set{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity in bits.
func (s Set) Len() int { return s.n }

// Has reports whether bit i is set. Out-of-range indices report false.
func (s Set) Has(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Add sets bit i. Out-of-range indices are ignored.
func (s Set) Add(i int) {
	if i < 0 || i >= s.n {
		return
	}
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// Remove clears bit i.
func (s Set) Remove(i int) {
	if i < 0 || i >= s.n {
		return
	}
	s.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Count returns the number of set bits.
func (s Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// AndNotFrom overwrites s with a \ b (bits of a not in b) word by word.
// All three sets must have equal capacity; shorter operands simply bound
// the words written. s may alias a or b — each word is read before it
// is written. The bottom-up BFS step uses this to peel the newly visited
// frontier out of the unvisited set in O(n/64) word operations.
func (s Set) AndNotFrom(a, b Set) {
	m := len(s.words)
	if len(a.words) < m {
		m = len(a.words)
	}
	if len(b.words) < m {
		m = len(b.words)
	}
	for i := 0; i < m; i++ {
		s.words[i] = a.words[i] &^ b.words[i]
	}
}

// CountRange returns the number of set bits i with lo ≤ i < hi. Interior
// words go through popcount whole; only the two boundary words are
// masked, so a 64-bit-aligned range costs exactly (hi-lo)/64 popcounts.
func (s Set) CountRange(lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > s.n {
		hi = s.n
	}
	if lo >= hi {
		return 0
	}
	loWord, hiWord := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	if loWord == hiWord {
		return bits.OnesCount64(s.words[loWord] & loMask & hiMask)
	}
	c := bits.OnesCount64(s.words[loWord] & loMask)
	for i := loWord + 1; i < hiWord; i++ {
		c += bits.OnesCount64(s.words[i])
	}
	return c + bits.OnesCount64(s.words[hiWord]&hiMask)
}

// AppendIndicesRange appends the index of every set bit i with
// lo ≤ i < hi to dst in increasing order and returns the extended
// slice. Whole zero words are skipped and set words drain via
// trailing-zero counts, so the cost is O(words + popcount) rather than
// the O(n) of probing every bit with Has. The parallel kernels iterate
// 64-bit-aligned node chunks through this so each worker enumerates
// only its shard.
func (s Set) AppendIndicesRange(dst []int, lo, hi int) []int {
	if lo < 0 {
		lo = 0
	}
	if hi > s.n {
		hi = s.n
	}
	if lo >= hi {
		return dst
	}
	loWord, hiWord := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	for wi := loWord; wi <= hiWord; wi++ {
		w := s.words[wi]
		if wi == loWord {
			w &= loMask
		}
		if wi == hiWord {
			w &= hiMask
		}
		base := wi << 6
		for w != 0 {
			dst = append(dst, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// Clear resets every bit to zero in O(words) time (compiles to memclr).
func (s Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill sets every bit in O(words) time. Bits past the capacity stay
// zero, so Count after Fill equals Len.
func (s Set) Fill() {
	if s.n == 0 {
		return
	}
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if rem := uint(s.n) & 63; rem != 0 {
		s.words[len(s.words)-1] = ^uint64(0) >> (64 - rem)
	}
}

// UnionWith adds every bit of o to s. The sets must have equal capacity;
// extra bits in a larger o are ignored.
func (s Set) UnionWith(o Set) {
	m := len(s.words)
	if len(o.words) < m {
		m = len(o.words)
	}
	for i := 0; i < m; i++ {
		s.words[i] |= o.words[i]
	}
}

// Clone returns an independent copy.
func (s Set) Clone() Set {
	c := Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// Fingerprint folds the set's capacity and contents into 64 avalanche
// bits (a splitmix64-style running fold). Two sets with equal capacity
// and members always fingerprint identically; the async backend folds
// this instead of the full member list into its trace digest.
func (s Set) Fingerprint() uint64 {
	z := uint64(s.n) ^ 0x9E3779B97F4A7C15
	for _, w := range s.words {
		z ^= w + 0x9E3779B97F4A7C15 + (z << 6) + (z >> 2)
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
	}
	return z
}
