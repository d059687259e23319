package main

// Spans recorded by the benchmark around its calls into each layer's
// public functions (no span lives inside the program). A span carries
// its name ("<layer>.<operation>"), start, end, parent and request id;
// spans are kept in memory, written as JSON lines at exit, and summed
// into per-layer self time: a span's duration minus the part its
// children cover.
//
// Every method is a no-op on a nil *tracer, so traced and untraced
// runs execute the same composition code.

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	stack []int // open spans, innermost last

	// Observer-bounded cells: a cell span runs from the previous cell
	// event (or its Generate span's start) to its own event, and
	// adopts the leaf spans recorded in between.
	gen      int
	lastMark int64
	markIdx  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) top() (int, string) {
	if len(t.stack) == 0 {
		return 0, ""
	}
	id := t.stack[len(t.stack)-1]
	return id, t.spans[id-1].Req
}

// begin opens a span under the innermost open one; an empty req
// inherits the parent's request id.
func (t *tracer) begin(name, req string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, preq := t.top()
	if req == "" {
		req = preq
	}
	id := len(t.spans) + 1
	now := t.now()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now})
	t.stack = append(t.stack, id)
	if name == "experiments.generate" {
		t.gen, t.lastMark, t.markIdx = id, now, len(t.spans)
	}
	return id
}

// end closes span id (which must be the innermost open span).
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
	if id == t.gen {
		t.gen = 0
	}
}

// leaf records a completed span [start, now] under the innermost open
// span — the shape of the timing wrappers around store calls.
func (t *tracer) leaf(name string, start time.Time) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, req := t.top()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(t.epoch)), End: end})
}

// cell closes one observer-bounded cell interval of the open Generate
// span: "experiments.cell" for a simulated cell, "runner.cell_cache"
// for one served from the result cache.
func (t *tracer) cell(cached bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.gen == 0 {
		return
	}
	name := "experiments.cell"
	if cached {
		name = "runner.cell_cache"
	}
	now := t.now()
	id := len(t.spans) + 1
	for i := t.markIdx; i < len(t.spans); i++ {
		if t.spans[i].Parent == t.gen {
			t.spans[i].Parent = id
		}
	}
	t.spans = append(t.spans, span{ID: id, Parent: t.gen, Name: name, Req: t.spans[t.gen-1].Req,
		Start: t.lastMark, End: now})
	t.lastMark, t.markIdx = now, len(t.spans)
}

// layerTimes is the per-span-name view of one subtree.
type layerTimes struct {
	wall  float64              // root span duration, ns
	self  map[string]float64   // summed self time per name, ns
	durs  map[string][]float64 // each span's duration per name, ns
	count map[string]int
}

// times sums self time per span name over the subtree of root.
func (t *tracer) times(root int) layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s.ID)
	}
	lt := layerTimes{self: map[string]float64{}, durs: map[string][]float64{}, count: map[string]int{}}
	lt.wall = t.spans[root-1].dur()
	var walk func(id int)
	walk = func(id int) {
		s := t.spans[id-1]
		covered := 0.0
		for _, c := range children[id] {
			covered += t.spans[c-1].dur()
			walk(c)
		}
		lt.self[s.Name] += s.dur() - covered
		lt.durs[s.Name] = append(lt.durs[s.Name], s.dur())
		lt.count[s.Name]++
	}
	walk(root)
	return lt
}

// coverage is the share of the root's wall time that its descendants'
// self times account for (everything but the root's own gaps).
func (lt layerTimes) coverage(rootName string) float64 {
	if lt.wall <= 0 {
		return 0
	}
	return 1 - lt.self[rootName]/lt.wall
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if t == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
