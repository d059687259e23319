package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// TestValueFormatsMatchFmt: the strconv helpers behind every table value
// write the bytes of the fmt verb each one names.
func TestValueFormatsMatchFmt(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 0.05, 0.15, 0.25, 0.005, 2.5, -0.004, 1.0 / 3, 123456.789,
		1e21, 1e-9, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	floats = append(floats, fixedBoundaries()...)
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
		for prec := range 7 {
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

// fixedBoundaries lists the values where fixed's scaled-integer path
// could round differently from strconv: decimal ties x.xx5 at
// precisions 1–3 (inexact in binary, so they round by their binary
// value) and binary ties that are exact, each with its math.Nextafter
// neighbours; powers of ten ± 1 ulp; and the values around
// 2^52/10^prec, where the path hands over to strconv.
func fixedBoundaries() []float64 {
	var out []float64
	around := func(x float64) {
		for _, v := range []float64{x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1))} {
			out = append(out, v, -v)
		}
	}
	for prec := 1; prec <= 3; prec++ {
		scale := math.Pow(10, float64(prec))
		for k := range 2000 {
			around((float64(k) + 0.5) / scale)
		}
		around((123456789 + 0.5) / scale)
	}
	for k := range 64 {
		around(float64(2*k+1) / 16) // exact ties at precisions 0–3
	}
	for e := -12; e <= 22; e++ {
		around(math.Pow(10, float64(e)))
	}
	for prec := range 7 {
		around(float64(1<<52) / math.Pow(10, float64(prec)))
		around(float64(1<<53) / math.Pow(10, float64(prec)))
	}
	return append(out, math.Copysign(0, -1), -0.004, -0.0049999, -0.5, -1.5, -2.5)
}

// FuzzFixed checks fixed against strconv.AppendFloat(x, 'f', prec, 64)
// at precisions 0–6.
func FuzzFixed(f *testing.F) {
	for prec := range 7 {
		edge := float64(1<<52) / math.Pow(10, float64(prec))
		f.Add(edge, uint8(prec))
		f.Add(math.Nextafter(edge, 0), uint8(prec))
		f.Add(-(0.5+float64(prec))/math.Pow(10, float64(prec)), uint8(prec))
	}
	f.Add(0.125, uint8(2))
	f.Add(math.Copysign(0, -1), uint8(1))
	f.Add(math.NaN(), uint8(0))
	f.Fuzz(func(t *testing.T, x float64, p uint8) {
		prec := int(p % 7)
		if got, want := fixed(x, prec), strconv.FormatFloat(x, 'f', prec, 64); got != want {
			t.Fatalf("fixed(%v, %d) = %q, want %q", x, prec, got, want)
		}
	})
}
