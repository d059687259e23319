// Package metrics is the stdlib-only observability layer of the sweep
// service (DESIGN.md §11): a small Prometheus-text-exposition registry
// of counters, callback gauges, and fixed-bucket latency histograms.
// The sweep service treats per-round capacity as the first-class
// constraint the way the paper treats per-graph bounds — shedding and
// cache effectiveness are only real if they are measured — so hybridd
// exports admission decisions, cache hit ratios, pool depth, and
// per-endpoint latency through this package on GET /metrics.
//
// The registry deliberately implements only what the service needs:
// monotonic counters (optionally label-split via Vec), gauges computed
// at scrape time from a callback, and histograms with fixed bucket
// bounds. Rendering follows the Prometheus text exposition format
// version 0.0.4 (# HELP / # TYPE, one series per line, histograms as
// cumulative _bucket{le=...} plus _sum and _count), so any Prometheus
// scraper can consume it; no third-party client library is required.
// All types are safe for concurrent use.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// L is one label pair attached to a series at registration time.
type L struct {
	Name, Value string
}

// DefBuckets is the default latency bucket layout (seconds): roughly
// exponential from 1 ms to 16 s, matching the service's request-time
// spread from a memory cache hit to a cold million-node sweep.
var DefBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 16}

// Counter is a monotonically increasing series.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// CounterVec is a family of counters split by one or more label values
// fixed at With time (e.g. HTTP status code classes).
type CounterVec struct {
	fam        *family
	labelNames []string

	mu    sync.Mutex
	cells map[string]*Counter
}

// With returns (creating on first use) the counter for the given label
// values, which must match the Vec's label names positionally.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labelNames) {
		panic(fmt.Sprintf("metrics: %s needs %d label values, got %d", v.fam.name, len(v.labelNames), len(values)))
	}
	// The key is the series' rendered label block; only a new series
	// converts it to a string.
	var buf [96]byte
	key := buf[:0]
	for i, val := range values {
		key = appendLabel(key, i, v.labelNames[i], val)
	}
	if len(values) > 0 {
		key = append(key, '}')
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.cells[string(key)]
	if !ok {
		c = &Counter{}
		labels := string(key)
		v.cells[labels] = c
		v.fam.add(&series{labels: labels, counter: c})
	}
	return c
}

// Histogram is a fixed-bucket distribution with a sum and a count,
// rendered as cumulative Prometheus buckets.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // one per bound, non-cumulative; +Inf implicit via total
	count  atomic.Uint64
	sum    atomic.Uint64 // IEEE-754 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// series is one rendered line (or histogram line group).
type series struct {
	labels  string // rendered {k="v",...} or ""
	counter *Counter
	gauge   func() float64
	hist    *Histogram
}

// family groups the series sharing one metric name.
type family struct {
	name, help, typ string

	mu     sync.Mutex
	series []*series
}

func (f *family) add(s *series) {
	f.mu.Lock()
	f.series = append(f.series, s)
	f.mu.Unlock()
}

// Registry holds metric families in registration order.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) family(name, help, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.families = append(r.families, f)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s and %s", name, f.typ, typ))
	}
	return f
}

// Counter registers (or extends) a counter family and returns the
// series for the given labels.
func (r *Registry) Counter(name, help string, labels ...L) *Counter {
	c := &Counter{}
	r.family(name, help, "counter").add(&series{labels: renderLabels(labels), counter: c})
	return c
}

// CounterVec registers a counter family whose series are created on
// demand by With.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{
		fam:        r.family(name, help, "counter"),
		labelNames: labelNames,
		cells:      make(map[string]*Counter),
	}
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — the natural shape for values owned elsewhere (cache counters,
// pool depth, sweep states).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...L) {
	r.family(name, help, "gauge").add(&series{labels: renderLabels(labels), gauge: fn})
}

// Histogram registers a histogram series with the given bucket bounds
// (nil means DefBuckets; bounds must be sorted ascending).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...L) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds))}
	r.family(name, help, "histogram").add(&series{labels: renderLabels(labels), hist: h})
	return h
}

// WriteText renders every family in the Prometheus text exposition
// format: families in registration order, series within a family
// sorted by label string so output is deterministic for a fixed state.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	families := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range families {
		f.mu.Lock()
		all := append([]*series(nil), f.series...)
		f.mu.Unlock()
		sort.Slice(all, func(i, j int) bool { return all[i].labels < all[j].labels })
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, s := range all {
			if err := s.write(w, f.name); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *series) write(w io.Writer, name string) error {
	switch {
	case s.counter != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, s.labels, s.counter.Value())
		return err
	case s.gauge != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, s.labels, formatFloat(s.gauge()))
		return err
	case s.hist != nil:
		var cum uint64
		for i, b := range s.hist.bounds {
			cum += s.hist.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(s.labels, "le", formatFloat(b)), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(s.labels, "le", "+Inf"), s.hist.Count()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, s.labels, formatFloat(s.hist.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, s.hist.Count())
		return err
	}
	return nil
}

// renderLabels renders a canonical {k="v",...} block ("" when empty).
// Label order is as given — callers register with a fixed order.
func renderLabels(labels []L) string {
	if len(labels) == 0 {
		return ""
	}
	var b []byte
	for i, l := range labels {
		b = appendLabel(b, i, l.Name, l.Value)
	}
	return string(append(b, '}'))
}

// mergeLabel appends one extra label pair (the histogram "le") to an
// already-rendered label block.
func mergeLabel(rendered, name, value string) string {
	if rendered == "" {
		return renderLabels([]L{{name, value}})
	}
	b := append([]byte(nil), rendered[:len(rendered)-1]...)
	return string(append(appendLabel(b, 1, name, value), '}'))
}

// appendLabel appends the i-th pair of a label block, name="value",
// after the block's opening brace or a comma. The value is quoted as
// fmt's %q quotes a string.
func appendLabel(b []byte, i int, name, value string) []byte {
	if i == 0 {
		b = append(b, '{')
	} else {
		b = append(b, ',')
	}
	b = append(append(b, name...), '=')
	return strconv.AppendQuote(b, value)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
