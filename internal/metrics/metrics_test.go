package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCounterAndGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Total requests.", L{"endpoint", "submit"})
	c.Inc()
	c.Add(2)
	r.GaugeFunc("pool_depth", "Queued tasks.", func() float64 { return 7 })

	out := render(t, r)
	for _, want := range []string{
		"# HELP requests_total Total requests.",
		"# TYPE requests_total counter",
		`requests_total{endpoint="submit"} 3`,
		"# TYPE pool_depth gauge",
		"pool_depth 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("responses_total", "Responses by code.", "endpoint", "code")
	v.With("submit", "200").Add(5)
	v.With("submit", "429").Inc()
	if v.With("submit", "200") != v.With("submit", "200") {
		t.Fatal("With is not stable for identical label values")
	}
	out := render(t, r)
	if !strings.Contains(out, `responses_total{endpoint="submit",code="200"} 5`) ||
		!strings.Contains(out, `responses_total{endpoint="submit",code="429"} 1`) {
		t.Errorf("vec series missing:\n%s", out)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "Request latency.", []float64{0.1, 1, 10}, L{"endpoint", "results"})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-56.05) > 1e-9 {
		t.Fatalf("sum = %v", got)
	}
	// Each value lands in the first bucket whose bound covers it; 50
	// lies beyond the last bound and counts only toward +Inf.
	for i, want := range []uint64{1, 2, 1} {
		if got := h.counts[i].Load(); got != want {
			t.Fatalf("bucket le=%v holds %d, want %d", h.bounds[i], got, want)
		}
	}
	out := render(t, r)
	for _, want := range []string{
		`latency_seconds_bucket{endpoint="results",le="0.1"} 1`,
		`latency_seconds_bucket{endpoint="results",le="1"} 3`,
		`latency_seconds_bucket{endpoint="results",le="10"} 4`,
		`latency_seconds_bucket{endpoint="results",le="+Inf"} 5`,
		`latency_seconds_sum{endpoint="results"} 56.05`,
		`latency_seconds_count{endpoint="results"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x_seconds", "x", nil)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("empty histogram count = %d, sum = %v", h.Count(), h.Sum())
	}
	out := render(t, r)
	for _, want := range []string{`x_seconds_bucket{le="+Inf"} 0`, "x_seconds_count 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestConcurrentUse drives every type from several goroutines; run
// under -race this certifies the atomics.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	v := r.CounterVec("v_total", "v", "k")
	h := r.Histogram("h_seconds", "h", nil)
	r.GaugeFunc("g", "g", func() float64 { return float64(c.Value()) })
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				v.With("a").Inc()
				h.Observe(float64(j) / 1000)
			}
		}(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b strings.Builder
			r.WriteText(&b)
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || v.With("a").Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: c=%d v=%d h=%d", c.Value(), v.With("a").Value(), h.Count())
	}
}

// TestRenderLabelsMatchFmt: label blocks, merged "le" pairs and
// CounterVec keys render byte for byte as fmt's "%s=%q" pairs did, on
// values with quotes, backslashes, control bytes, non-ASCII text and
// invalid UTF-8.
func TestRenderLabelsMatchFmt(t *testing.T) {
	fmtLabels := func(labels []L) string {
		if len(labels) == 0 {
			return ""
		}
		parts := make([]string, len(labels))
		for i, l := range labels {
			parts[i] = fmt.Sprintf("%s=%q", l.Name, l.Value)
		}
		return "{" + strings.Join(parts, ",") + "}"
	}
	pieces := []string{`"`, `\`, "\x00", "\n", "\t", "\x7f", "\x1b", "é", "☃", "\U0001F600", "\xff", "\xc3", "\xed\xa0\x80", "a", "le", "0.25", " "}
	rng := rand.New(rand.NewSource(1))
	value := func() string {
		var b strings.Builder
		for j := rng.Intn(8); j > 0; j-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	for iter := 0; iter < 2000; iter++ {
		labels := make([]L, rng.Intn(4))
		names := make([]string, len(labels))
		values := make([]string, len(labels))
		for i := range labels {
			names[i] = fmt.Sprintf("l%d", i)
			values[i] = value()
			labels[i] = L{names[i], values[i]}
		}
		want := fmtLabels(labels)
		if got := renderLabels(labels); got != want {
			t.Fatalf("renderLabels(%q) = %q, fmt renders %q", labels, got, want)
		}
		le := value()
		if got, want := mergeLabel(want, "le", le), fmtLabels(append(labels, L{"le", le})); got != want {
			t.Fatalf("mergeLabel(%q, le, %q) = %q, fmt renders %q", fmtLabels(labels), le, got, want)
		}
		vec := NewRegistry().CounterVec("x_total", "x", names...)
		vec.With(values...).Inc()
		if got := vec.fam.series[0].labels; got != want {
			t.Fatalf("CounterVec key for %q = %q, fmt renders %q", values, got, want)
		}
	}
}

// TestCounterVecWithHitAllocs: looking up an existing series renders
// its key on the stack, so a hit allocates nothing.
func TestCounterVecWithHitAllocs(t *testing.T) {
	vec := NewRegistry().CounterVec("x_total", "x", "endpoint", "code")
	vec.With("/v1/sweeps", "200").Inc()
	if allocs := testing.AllocsPerRun(100, func() { vec.With("/v1/sweeps", "200").Inc() }); allocs != 0 {
		t.Fatalf("CounterVec.With allocates %.1f times per hit, want 0", allocs)
	}
}
