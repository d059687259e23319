package bitset

import (
	"math/rand"
	"slices"
	"testing"
)

func TestBasic(t *testing.T) {
	s := New(130)
	if s.Len() != 130 || s.Count() != 0 {
		t.Fatalf("fresh set: len=%d count=%d", s.Len(), s.Count())
	}
	s.Add(0)
	s.Add(64)
	s.Add(129)
	if s.Count() != 3 {
		t.Fatalf("count=%d, want 3", s.Count())
	}
	for _, i := range []int{0, 64, 129} {
		if !s.Has(i) {
			t.Fatalf("bit %d missing", i)
		}
	}
	if s.Has(1) || s.Has(128) {
		t.Fatal("unexpected bit set")
	}
	s.Remove(64)
	if s.Has(64) || s.Count() != 2 {
		t.Fatal("remove failed")
	}
}

func TestOutOfRange(t *testing.T) {
	s := New(10)
	s.Add(-1)
	s.Add(10)
	s.Remove(-1)
	if s.Count() != 0 {
		t.Fatal("out-of-range add mutated set")
	}
	if s.Has(-1) || s.Has(10) {
		t.Fatal("out-of-range has returned true")
	}
}

func TestUnionAndClone(t *testing.T) {
	a := New(100)
	b := New(100)
	a.Add(3)
	b.Add(77)
	c := a.Clone()
	c.UnionWith(b)
	if !c.Has(3) || !c.Has(77) || c.Count() != 2 {
		t.Fatal("union failed")
	}
	if a.Has(77) {
		t.Fatal("clone aliases original")
	}
}

func TestAppendIndices(t *testing.T) {
	s := New(200)
	want := []int{0, 1, 63, 64, 65, 127, 128, 199}
	for _, i := range want {
		s.Add(i)
	}
	got := s.AppendIndices(nil)
	if !slices.Equal(got, want) {
		t.Fatalf("AppendIndices = %v, want %v", got, want)
	}
	// Reuse semantics: appending onto a non-empty prefix keeps it.
	got = s.AppendIndices([]int{-7})
	if got[0] != -7 || !slices.Equal(got[1:], want) {
		t.Fatalf("AppendIndices with prefix = %v", got)
	}
	if out := New(100).AppendIndices(nil); len(out) != 0 {
		t.Fatalf("empty set enumerated %v", out)
	}
	var zero Set
	if out := zero.AppendIndices(nil); len(out) != 0 {
		t.Fatalf("zero set enumerated %v", out)
	}
}

// TestAppendIndicesMatchesHasScan pins the word-skipping enumeration
// against the naive per-bit Has scan it replaces.
func TestAppendIndicesMatchesHasScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		s := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				s.Add(i)
			}
		}
		var want []int
		for i := 0; i < n; i++ {
			if s.Has(i) {
				want = append(want, i)
			}
		}
		got := s.AppendIndices(nil)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: AppendIndices = %v, Has scan = %v", n, got, want)
		}
		if len(got) != s.Count() {
			t.Fatalf("n=%d: enumerated %d bits, Count says %d", n, len(got), s.Count())
		}
	}
}

func TestZeroValue(t *testing.T) {
	var s Set
	if s.Len() != 0 || s.Count() != 0 || s.Has(0) {
		t.Fatal("zero value not an empty set")
	}
	s.Add(0) // must not panic
}

// naiveCountRange is the per-bit reference for CountRange.
func naiveCountRange(s Set, lo, hi int) int {
	c := 0
	for i := lo; i < hi; i++ {
		if s.Has(i) {
			c++
		}
	}
	return c
}

func randomSet(rng *rand.Rand, n int, density float64) Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			s.Add(i)
		}
	}
	return s
}

func TestAndNotFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		a := randomSet(rng, n, 0.3)
		b := randomSet(rng, n, 0.3)

		d := New(n)
		d.AndNotFrom(a, b)
		for i := 0; i < n; i++ {
			if want := a.Has(i) && !b.Has(i); d.Has(i) != want {
				t.Fatalf("n=%d AndNotFrom bit %d = %v, want %v", n, i, d.Has(i), want)
			}
		}

		// Aliased form: s = s \ b must behave identically.
		sa := a.Clone()
		sa.AndNotFrom(sa, b)
		if sa.Fingerprint() != d.Fingerprint() {
			t.Fatalf("n=%d aliased AndNotFrom diverged", n)
		}
	}
}

func TestCountRange(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		s := randomSet(rng, n, 0.4)
		for probe := 0; probe < 20; probe++ {
			lo := rng.Intn(n + 1)
			hi := rng.Intn(n + 1)
			if got, want := s.CountRange(lo, hi), naiveCountRange(s, lo, hi); got != want {
				t.Fatalf("n=%d CountRange(%d,%d)=%d, want %d", n, lo, hi, got, want)
			}
		}
		// Clamping: out-of-range bounds behave like the clipped range.
		if got, want := s.CountRange(-5, n+100), s.Count(); got != want {
			t.Fatalf("n=%d clamped CountRange=%d, want %d", n, got, want)
		}
	}
}

func TestAppendIndicesRange(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		s := randomSet(rng, n, 0.4)
		for probe := 0; probe < 20; probe++ {
			lo := rng.Intn(n + 1)
			hi := rng.Intn(n + 1)
			var want []int
			for i := lo; i < hi; i++ {
				if s.Has(i) {
					want = append(want, i)
				}
			}
			got := s.AppendIndicesRange(nil, lo, hi)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d AppendIndicesRange(%d,%d)=%v, want %v", n, lo, hi, got, want)
			}
		}
		// The full range must agree with AppendIndices.
		if !slices.Equal(s.AppendIndicesRange(nil, 0, n), s.AppendIndices(nil)) {
			t.Fatalf("n=%d full-range enumeration diverged from AppendIndices", n)
		}
	}
}

func TestClear(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := randomSet(rng, 200, 0.5)
	s.Clear()
	if s.Count() != 0 || s.Len() != 200 {
		t.Fatalf("after Clear: count=%d len=%d", s.Count(), s.Len())
	}
}

func TestFill(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130, 256} {
		s := New(n)
		s.Fill()
		if s.Count() != n {
			t.Fatalf("n=%d: Count after Fill = %d", n, s.Count())
		}
		if s.Has(n) || s.Has(n+1) {
			t.Fatalf("n=%d: Fill leaked past capacity", n)
		}
	}
}
