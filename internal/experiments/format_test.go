package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestValueFormatsMatchFmt: the strconv helpers behind every table value
// write the bytes of the fmt verb each one names.
func TestValueFormatsMatchFmt(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 0.05, 0.15, 0.25, 0.005, 2.5, -0.004, 1.0 / 3, 123456.789,
		1e21, 1e-9, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	ints := []int{0, 7, -7, 99, 100, 576, -1 << 40, math.MaxInt, math.MinInt}
	rng := rand.New(rand.NewSource(1))
	for range 1000 {
		floats = append(floats, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(12))))
		ints = append(ints, int(rng.Int63())>>rng.Intn(63)-rng.Intn(1000))
	}
	check := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s: got %q, want %q", what, got, want)
		}
	}
	for _, x := range floats {
		for _, prec := range []int{1, 2, 3} {
			check(fmt.Sprintf("fixed(%v, %d)", x, prec), fixed(x, prec), fmt.Sprintf("%.*f", prec, x))
		}
		want := fmt.Sprintf("%.1f", x)
		if math.IsInf(x, 0) || math.IsNaN(x) {
			want = "-"
		}
		check(fmt.Sprintf("f1(%v)", x), f1(x), want)
		check(fmt.Sprintf("roundsWithStretch(%v)", x), roundsWithStretch(12, x), fmt.Sprintf("%d (%.1f)", 12, x))
	}
	for _, x := range ints {
		check(fmt.Sprintf("itoa(%d)", x), itoa(x), fmt.Sprintf("%d", x))
		check(fmt.Sprintf("itoa(int64(%d))", x), itoa(int64(x)), fmt.Sprintf("%d", int64(x)))
		check(fmt.Sprintf("roundsWithL(%d)", x), roundsWithL(x, -x), fmt.Sprintf("%d (ℓ=%d)", x, -x))
		check(fmt.Sprintf("capFactor(%d)", x), capFactor(x), fmt.Sprintf("%d×", x))
	}
}
