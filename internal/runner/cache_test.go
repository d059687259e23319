package runner

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/hybrid"
)

// mapCache is a minimal CellCache for tests.
type mapCache struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMapCache() *mapCache { return &mapCache{m: make(map[string][]byte)} }

func (c *mapCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

func (c *mapCache) Put(key string, value []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = value
}

// floatRow exercises exact round-tripping of awkward values through the
// cache codec.
type floatRow struct {
	Label string
	V     float64
	N     int64
}

func floatScenario(runs *atomic.Int64) *Scenario[floatRow] {
	return &Scenario[floatRow]{
		Name:     "floats",
		Families: []graph.Family{graph.FamilyPath},
		Ns:       []int{8, 16},
		Points:   PointsEps([]float64{0.25, 0.5}),
		Run: func(c *Cell) ([]floatRow, error) {
			runs.Add(1)
			return []floatRow{
				{Label: c.String(), V: c.Point.Eps * float64(c.N) / 3, N: c.Seed()},
				{Label: "inf", V: math.Inf(1), N: int64(c.N)},
			}, nil
		},
	}
}

// TestCollectCacheRoundTrip: a second Collect with a warm cache must
// run zero cells and return identical rows.
func TestCollectCacheRoundTrip(t *testing.T) {
	var runs atomic.Int64
	cache := newMapCache()
	r := &Runner{Workers: 2, Cache: cache}

	cold, _, err := Collect(r, floatScenario(&runs))
	if err != nil {
		t.Fatal(err)
	}
	coldRuns := runs.Load()
	if coldRuns != 4 {
		t.Fatalf("cold sweep ran %d cells, want 4", coldRuns)
	}

	var events, cached int
	r2 := &Runner{Workers: 2, Cache: cache, Observer: func(ev CellEvent) {
		events++
		if ev.Cached {
			cached++
		}
		if ev.Key == "" {
			t.Errorf("cell %s: empty cache key in event", ev.Cell)
		}
	}}
	// Workers: 1 keeps the observer single-threaded here.
	r2.Workers = 1
	warm, _, err := Collect(r2, floatScenario(&runs))
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != coldRuns {
		t.Fatalf("warm sweep ran %d fresh cells, want 0", runs.Load()-coldRuns)
	}
	if events != 4 || cached != 4 {
		t.Fatalf("observer saw %d events (%d cached), want 4/4", events, cached)
	}
	if len(warm) != len(cold) {
		t.Fatalf("warm sweep returned %d rows, want %d", len(warm), len(cold))
	}
	for i := range warm {
		if warm[i] != cold[i] {
			t.Fatalf("row %d differs: cold %+v, warm %+v", i, cold[i], warm[i])
		}
	}
}

// TestCollectCacheCorruptEntryFallsBack: an undecodable cache entry is
// a miss, not an error.
func TestCollectCacheCorruptEntryFallsBack(t *testing.T) {
	var runs atomic.Int64
	cache := newMapCache()
	if _, _, err := Collect(&Runner{Workers: 1, Cache: cache}, floatScenario(&runs)); err != nil {
		t.Fatal(err)
	}
	for k := range cache.m {
		cache.m[k] = []byte("not a row blob")
	}
	before := runs.Load()
	rows, _, err := Collect(&Runner{Workers: 1, Cache: cache}, floatScenario(&runs))
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load()-before != 4 {
		t.Fatalf("corrupt entries re-ran %d cells, want 4", runs.Load()-before)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(rows))
	}
}

// TestCacheKeySensitivity: the content address must change with every
// coordinate, the model config, and the code version — and must not
// change with anything else.
func TestCacheKeySensitivity(t *testing.T) {
	base := Cell{Scenario: "s", Family: graph.FamilyPath, N: 32, BaseSeed: 1, Point: PointK(4)}
	key := func(c Cell, version string) string { return c.CacheKey(version) }
	k0 := key(base, "v1")
	if k0 != key(base, "v1") {
		t.Fatal("CacheKey is not deterministic")
	}
	mutations := map[string]string{}
	{
		c := base
		c.Scenario = "other"
		mutations["scenario"] = key(c, "v1")
	}
	{
		c := base
		c.Family = graph.FamilyCycle
		mutations["family"] = key(c, "v1")
	}
	{
		c := base
		c.N = 64
		mutations["n"] = key(c, "v1")
	}
	{
		c := base
		c.BaseSeed = 2
		mutations["seed"] = key(c, "v1")
	}
	{
		c := base
		c.Point = PointK(8)
		mutations["point"] = key(c, "v1")
	}
	{
		c := base
		c.model = hybrid.Config{Variant: hybrid.VariantHybrid0}
		mutations["config"] = key(c, "v1")
	}
	mutations["version"] = key(base, "v2")
	for what, k := range mutations {
		if k == k0 {
			t.Errorf("changing %s did not change the cache key", what)
		}
	}
	// Index is scheduling metadata, not a coordinate.
	c := base
	c.Index = 99
	if key(c, "v1") != k0 {
		t.Error("changing Index changed the cache key")
	}
}

// TestCacheKeyPlans: both structs a cache key serializes have a valid
// row plan, so CacheKey never panics on them.
func TestCacheKeyPlans(t *testing.T) {
	for name, p := range map[string]*rowPlan{"Point": pointPlan, "hybrid.Config": configPlan} {
		if p.err != nil {
			t.Errorf("%s: %v", name, p.err)
		}
	}
}

// TestCacheKeyCoversEveryField: changing any exported field of Point
// or of the resolved hybrid.Config changes the key, including fields
// added after this test was written.
func TestCacheKeyCoversEveryField(t *testing.T) {
	base := Cell{Scenario: "s", Family: graph.FamilyPath, N: 32, BaseSeed: 1, Point: PointK(4)}
	cfg := base.Config()
	k0 := base.key("v1", cfg)
	if k0 != base.CacheKey("v1") {
		t.Fatal("CacheKey is not key under the resolved config")
	}
	check := func(what string, v reflect.Value, key func() string) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			old := reflect.ValueOf(f.Interface())
			switch f.Kind() {
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.Int, reflect.Int64:
				f.SetInt(f.Int() + 1)
			case reflect.Float64:
				f.SetFloat(f.Float() + 0.5)
			case reflect.String:
				f.SetString(f.String() + "x")
			default:
				t.Fatalf("%s.%s: kind %v", what, v.Type().Field(i).Name, f.Kind())
			}
			if key() == k0 {
				t.Errorf("changing %s.%s did not change the cache key", what, v.Type().Field(i).Name)
			}
			f.Set(old)
		}
		if key() != k0 {
			t.Fatalf("restoring %s did not restore the key", what)
		}
	}
	check("Point", reflect.ValueOf(&base.Point).Elem(), func() string { return base.key("v1", cfg) })
	check("hybrid.Config", reflect.ValueOf(&cfg).Elem(), func() string { return base.key("v1", cfg) })
}

// TestSweepID pins the sweep-level content address: stable for equal
// requests, sensitive to each component.
func TestSweepID(t *testing.T) {
	fams := []graph.Family{graph.FamilyPath, graph.FamilyGrid2D}
	id := SweepID("v1", "table1", fams, 576, 1)
	if id != SweepID("v1", "table1", []graph.Family{graph.FamilyPath, graph.FamilyGrid2D}, 576, 1) {
		t.Fatal("SweepID is not deterministic")
	}
	if !strings.HasPrefix(id, "sw-") || len(id) != 3+16 {
		t.Fatalf("SweepID format %q", id)
	}
	for what, other := range map[string]string{
		"version":  SweepID("v2", "table1", fams, 576, 1),
		"scenario": SweepID("v1", "table2", fams, 576, 1),
		"families": SweepID("v1", "table1", fams[:1], 576, 1),
		"n":        SweepID("v1", "table1", fams, 128, 1),
		"seed":     SweepID("v1", "table1", fams, 576, 2),
	} {
		if other == id {
			t.Errorf("changing %s did not change the sweep id", what)
		}
	}
}

// TestRowCodecEmpty: cells contributing zero rows round-trip too. A nil
// and an empty slice encode alike, to the header and a zero count.
func TestRowCodecEmpty(t *testing.T) {
	blob, err := encodeRows[floatRow](nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) != rowsHeader+1 || blob[rowsHeader] != 0 {
		t.Fatalf("zero rows encode to % x, want the header and a zero count", blob)
	}
	if empty, err := encodeRows([]floatRow{}); err != nil || !bytes.Equal(empty, blob) {
		t.Fatalf("an empty slice encodes to % x (%v), want % x", empty, err, blob)
	}
	rows, err := decodeRows[floatRow](blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("decoded %d rows, want 0", len(rows))
	}
}

// TestRowPlanRejectsUnsupportedTypes: a row type the codec cannot
// carry exactly — not a struct, no fields, an unexported field, or a
// field of a kind other than bool, int, int64, float64 and string —
// fails to encode and to decode, so Collect never caches its rows.
func TestRowPlanRejectsUnsupportedTypes(t *testing.T) {
	blob, err := encodeRows([]floatRow{{Label: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	type unexported struct {
		V float64
		n int
	}
	for name, ok := range map[string]bool{
		"int rows":         planFails[int](blob),
		"unexported field": planFails[unexported](blob),
		"no fields":        planFails[struct{}](blob),
		"slice field":      planFails[struct{ V []int }](blob),
		"pointer field":    planFails[struct{ V *int }](blob),
		"float32 field":    planFails[struct{ V float32 }](blob),
		"uint field":       planFails[struct{ V uint }](blob),
		"struct field":     planFails[struct{ F floatRow }](blob),
	} {
		if !ok {
			t.Errorf("%s: the codec accepted the row type", name)
		}
	}
}

// planFails reports whether encoding a T row and decoding blob as T
// rows both fail.
func planFails[T any](blob []byte) bool {
	_, encErr := encodeRows(make([]T, 1))
	_, decErr := decodeRows[T](blob)
	return encErr != nil && decErr != nil
}

// TestCollectCacheMarkdownByteIdentical is the differential contract of
// DESIGN.md §7: rendering a cache-hit sweep must produce bytes equal to
// the cold-cache run.
func TestCollectCacheMarkdownByteIdentical(t *testing.T) {
	render := func(rows []floatRow) []byte {
		table := &Table{Name: "floats", Title: "Floats", Header: []string{"label", "v", "n"}}
		for _, r := range rows {
			table.Rows = append(table.Rows, []string{r.Label, fmt.Sprintf("%v", r.V), fmt.Sprintf("%d", r.N)})
		}
		var buf bytes.Buffer
		if err := WriteTable(&MarkdownSink{W: &buf}, table); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var runs atomic.Int64
	cache := newMapCache()
	cold, _, err := Collect(&Runner{Workers: 4, Cache: cache}, floatScenario(&runs))
	if err != nil {
		t.Fatal(err)
	}
	warm, _, err := Collect(&Runner{Workers: 4, Cache: cache}, floatScenario(&runs))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(render(cold), render(warm)) {
		t.Fatalf("cache-hit markdown differs from cold run:\ncold:\n%s\nwarm:\n%s", render(cold), render(warm))
	}
}
