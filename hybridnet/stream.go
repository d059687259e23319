package hybridnet

// Streaming delivery of in-progress sweep results (DESIGN.md §12):
// every sweep owns a broadcaster that records each resolved cell's
// rendered rows (in canonical-index order per cell, resolution order
// across cells) and fans them out to any number of subscribers. A
// subscriber attaching mid-run first replays the already-resolved
// cells, then follows live — each cell delivered exactly once, because
// the replay snapshot and the live registration happen under one lock.
// Subscribers are buffered and never block the sweep: one that falls a
// full buffer behind is disconnected with a terminal "dropped" event.
//
// Determinism contract: a cell's rows are rendered once, through the
// scenario's RenderRow hook, as the cell resolves; the finished tables
// share those strings. A chunk keeps the rendered rows and encodes them
// with runner.EncodeJSONL — the same sink the static ?format=jsonl
// document goes through — only when it is sent to a subscriber, so a
// sweep nobody streams encodes nothing. The streamed rows, re-ordered
// by canonical cell index, are byte-identical to the finished
// document. The chunked-JSONL framing
// enforces that order on the wire (holding back out-of-order cells),
// making the streamed body itself byte-identical; the SSE framing
// delivers cells in resolution order and carries the canonical index
// in the event id for client-side reassembly.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/sse"
)

// DefaultStreamBuffer is each stream subscriber's buffered-cell
// capacity when ServerConfig.StreamBuffer is unset. A subscriber that
// falls this many cells behind the sweep is disconnected rather than
// allowed to block or buffer unboundedly.
const DefaultStreamBuffer = 256

// streamStatusInterval paces the SSE keep-alive status events.
const streamStatusInterval = time.Second

// ErrStreamLagged reports that a stream subscriber was disconnected
// because it fell a full buffer behind the sweep (DESIGN.md §12). The
// subscriber saw a terminal "dropped" event first.
var ErrStreamLagged = errors.New("hybridnet: stream subscriber lagged behind sweep")

// Stream event kinds (StreamEvent.Kind, and the SSE event names).
const (
	// StreamCell carries one resolved cell's rendered rows.
	StreamCell = "cell"
	// StreamStatus is a periodic progress report (SSE framing only).
	StreamStatus = "status"
	// StreamDone terminates a stream whose sweep finished.
	StreamDone = "done"
	// StreamFailed terminates a stream whose sweep failed.
	StreamFailed = "failed"
	// StreamDropped terminates a stream that fell too far behind.
	StreamDropped = "dropped"
)

// StreamEvent is one event delivered to a streaming subscriber, in
// order: zero or more StreamCell (interleaved with StreamStatus when a
// status cadence is configured), then exactly one terminal StreamDone,
// StreamFailed, or StreamDropped event.
type StreamEvent struct {
	// Kind is one of the Stream* constants.
	Kind string
	// Index is the cell's canonical index within the sweep's grid
	// expansion and Total the grid size (StreamCell only).
	Index int
	Total int
	// Cached reports that the cell was served from the result cache.
	Cached bool
	// Rows is the number of rows the cell contributed (possibly zero).
	Rows int
	// JSONL holds the cell's rows exactly as the static ?format=jsonl
	// document renders them — newline-terminated JSON objects, nil when
	// the cell contributed no rows (StreamCell only).
	JSONL []byte
	// Status is the sweep's progress snapshot (all kinds but StreamCell).
	Status SweepStatus
}

// cellChunk is the broadcaster's record of one resolved cell. It keeps
// the cell's rendered rows, whose strings the finished tables share;
// the JSONL bytes are encoded per delivery (streamLoop).
type cellChunk struct {
	index    int
	total    int
	cached   bool
	rows     int
	rendered []runner.RenderedRow
}

// streamSub is one subscriber's buffered channel. dropped is guarded
// by the owning broadcaster's mutex.
type streamSub struct {
	ch      chan cellChunk
	dropped bool
}

// broadcaster fans one sweep's resolved cells out to its subscribers
// and retains every chunk for late-subscriber replay. The chunk log is
// bounded by the sweep's own grid size, which the admission layer
// already bounds.
type broadcaster struct {
	buffer int

	mu       sync.Mutex
	chunks   []cellChunk
	subs     map[*streamSub]struct{}
	terminal string // "" while running, else SweepDone / SweepFailed
}

func newBroadcaster(buffer int) *broadcaster {
	if buffer <= 0 {
		buffer = DefaultStreamBuffer
	}
	return &broadcaster{buffer: buffer, subs: make(map[*streamSub]struct{})}
}

// publish appends one resolved cell to the replay log and fans it out.
// The send never blocks the sweep: a subscriber whose buffer is full
// is marked dropped and disconnected on the spot (its channel close is
// the signal; buffered chunks stay readable).
func (b *broadcaster) publish(c cellChunk) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.chunks = append(b.chunks, c)
	for sub := range b.subs {
		select {
		case sub.ch <- c:
		default:
			sub.dropped = true
			delete(b.subs, sub)
			close(sub.ch)
		}
	}
}

// finish records the sweep's terminal state and closes every live
// subscriber. Called exactly once, after the sweep's state flipped, so
// a woken subscriber reading sweep.status() sees the final state.
func (b *broadcaster) finish(state string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.terminal = state
	for sub := range b.subs {
		delete(b.subs, sub)
		close(sub.ch)
	}
}

// subscribe snapshots the already-resolved cells and, if the sweep is
// still running, registers a live channel — atomically, under one
// lock, which is what makes delivery exactly-once: every cell is
// either in the snapshot or published to the channel, never both or
// neither. For a finished sweep it returns the full replay and the
// terminal state with a nil sub.
func (b *broadcaster) subscribe() (replay []cellChunk, sub *streamSub, terminal string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	replay = b.chunks[:len(b.chunks):len(b.chunks)]
	if b.terminal != "" {
		return replay, nil, b.terminal
	}
	sub = &streamSub{ch: make(chan cellChunk, b.buffer)}
	b.subs[sub] = struct{}{}
	return replay, sub, ""
}

// unsubscribe detaches a live subscriber; safe to call after the
// broadcaster already closed it (membership-checked).
func (b *broadcaster) unsubscribe(sub *streamSub) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.subs[sub]; ok {
		delete(b.subs, sub)
		close(sub.ch)
	}
}

func (b *broadcaster) wasDropped(sub *streamSub) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return sub.dropped
}

func (b *broadcaster) terminalState() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.terminal
}

// chunkFromEvent records one observer event in its broadcast form.
func chunkFromEvent(ev runner.CellEvent) cellChunk {
	return cellChunk{
		index:    ev.Cell.Index,
		total:    ev.Total,
		cached:   ev.Cached,
		rows:     ev.Rows,
		rendered: ev.Rendered,
	}
}

// streamSource returns the sweep's broadcaster. A sweep rehydrated
// from its persisted record has none (there is no live run to
// observe), so regenerate builds an already-finished one.
func (s *Server) streamSource(sw *sweep) (*broadcaster, error) {
	sw.mu.Lock()
	b := sw.bcast
	sw.mu.Unlock()
	if b != nil {
		return b, nil
	}
	_, b, err := s.regenerate(sw)
	return b, err
}

// regenerate rebuilds a rehydrated sweep's tables and its finished
// broadcaster in one run, at most once per sweep: the generator re-runs
// through the result cache with a chunk-collecting observer — cells
// resolve as cache hits, byte-identical to the original run
// (DESIGN.md §7); a cold cell is re-simulated deterministically to the
// same rows — and the chunks, sorted into canonical order, become an
// already-finished broadcaster. A failed run leaves the sweep as it
// was, so the next request retries.
func (s *Server) regenerate(sw *sweep) ([]*runner.Table, *broadcaster, error) {
	sw.regenMu.Lock()
	defer sw.regenMu.Unlock()
	sw.mu.Lock()
	tables, b := sw.tables, sw.bcast
	sw.mu.Unlock()
	if tables != nil && b != nil {
		return tables, b, nil
	}
	req := sw.req
	fams, err := s.normalize(&req)
	if err != nil {
		return nil, nil, fmt.Errorf("hybridnet: rehydrating sweep %s: %w", sw.id, err)
	}
	var cmu sync.Mutex
	var chunks []cellChunk
	cfg := experiments.ReportConfig{N: req.N, Seed: req.Seed, Families: fams}
	tables, err = experiments.Generate(req.Scenario, cfg, s.newRunner(func(ev runner.CellEvent) {
		if ev.Err != nil {
			return
		}
		c := chunkFromEvent(ev)
		cmu.Lock()
		chunks = append(chunks, c)
		cmu.Unlock()
	}))
	if err != nil {
		return nil, nil, fmt.Errorf("hybridnet: rehydrating sweep %s: %w", sw.id, err)
	}
	sort.Slice(chunks, func(i, j int) bool { return chunks[i].index < chunks[j].index })
	b = newBroadcaster(s.streamBuffer)
	b.chunks = chunks
	b.terminal = SweepDone
	sw.mu.Lock()
	sw.tables, sw.bcast = tables, b
	sw.mu.Unlock()
	return tables, b, nil
}

// terminalEvent maps a broadcaster terminal state to its stream event.
func terminalEvent(state string, st SweepStatus) StreamEvent {
	kind := StreamDone
	if state == SweepFailed {
		kind = StreamFailed
	}
	return StreamEvent{Kind: kind, Status: st}
}

// StreamCells streams a sweep's resolved cells to fn as they land:
// already-resolved cells replay first (a finished or rehydrated sweep
// replays entirely from its record), then live cells follow, and the
// stream ends with exactly one terminal event — StreamDone,
// StreamFailed, or StreamDropped. Cells arrive in resolution order;
// re-ordering the JSONL payloads by Index reproduces the static
// ?format=jsonl document byte for byte. fn runs on the subscriber's
// goroutine and its error aborts the stream. When statusEvery in the
// HTTP layer is wanted in-process, wrap fn; StreamCells itself emits
// no StreamStatus events. Returns ErrStreamLagged after a dropped
// event, ctx.Err() on cancellation, fn's error if it aborted, and nil
// after StreamDone/StreamFailed.
func (s *Server) StreamCells(ctx context.Context, id string, fn func(StreamEvent) error) error {
	sw, ok := s.lookup(id)
	if !ok {
		return ErrUnknownSweep
	}
	if _, err := s.streamSource(sw); err != nil {
		return err
	}
	return s.streamLoop(ctx, sw, 0, fn)
}

// streamLoop is the shared subscriber loop behind StreamCells and the
// HTTP stream framings: replay, then live delivery with an optional
// status cadence, then the terminal event. The subscription is bound
// to ctx — a cancelled context (client disconnect) detaches promptly.
func (s *Server) streamLoop(ctx context.Context, sw *sweep, statusEvery time.Duration, fn func(StreamEvent) error) error {
	b, err := s.streamSource(sw)
	if err != nil {
		return err
	}
	replay, sub, terminal := b.subscribe()
	s.streamSubs.Add(1)
	defer s.streamSubs.Add(-1)
	if sub != nil {
		defer b.unsubscribe(sub)
	}
	emit := func(c cellChunk) error {
		s.m.streamEvents.Inc()
		return fn(StreamEvent{Kind: StreamCell, Index: c.index, Total: c.total, Cached: c.cached, Rows: c.rows,
			JSONL: runner.EncodeJSONL(c.rendered)})
	}
	for _, c := range replay {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := emit(c); err != nil {
			return err
		}
	}
	if sub == nil {
		return fn(terminalEvent(terminal, sw.status()))
	}
	var tick <-chan time.Time
	if statusEvery > 0 {
		t := time.NewTicker(statusEvery)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case c, ok := <-sub.ch:
			if !ok {
				// Closed by the broadcaster: either the sweep finished
				// or this subscriber overflowed its buffer. Buffered
				// chunks were drained before ok turned false.
				if b.wasDropped(sub) {
					s.m.streamDropped.Inc()
					fn(StreamEvent{Kind: StreamDropped, Status: sw.status()})
					return ErrStreamLagged
				}
				return fn(terminalEvent(b.terminalState(), sw.status()))
			}
			if err := emit(c); err != nil {
				return err
			}
		case <-tick:
			if err := fn(StreamEvent{Kind: StreamStatus, Status: sw.status()}); err != nil {
				return err
			}
		}
	}
}

// handleStream is GET /v1/sweeps/{id}/stream: live delivery of cell
// rows as they resolve, in one of two framings. ?format=sse (the
// default, also chosen by Accept: text/event-stream) frames each cell
// as an SSE "cell" event — id: the canonical cell index, data: the
// cell's JSONL rows — interleaved with periodic "status" events and
// terminated by a single "done", "failed", or "dropped" event.
// ?format=jsonl (also chosen by Accept: application/jsonl) streams the
// rows themselves, flushed per resolved cell and held back into
// canonical order, so the complete body is byte-identical to the
// static ?format=jsonl results document; a failure or drop after the
// first byte aborts the connection mid-body, making the truncation
// evident. Errors detected before the first byte (unknown sweep,
// rehydration failure, early sweep failure) are ordinary JSON errors.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	format := r.URL.Query().Get("format")
	if format == "" {
		accept := r.Header.Get("Accept")
		if strings.Contains(accept, "application/jsonl") && !strings.Contains(accept, "text/event-stream") {
			format = "jsonl"
		} else {
			format = "sse"
		}
	}
	if format != "sse" && format != "jsonl" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown stream format %q (want sse, jsonl)", format))
		return
	}
	sw, ok := s.lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, ErrUnknownSweep)
		return
	}
	// Build the source before the first byte, so a rehydration failure
	// still answers with a proper JSON status.
	if _, err := s.streamSource(sw); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if format == "sse" {
		s.streamSSE(w, r, sw)
	} else {
		s.streamJSONL(w, r, sw)
	}
}

// streamSSE frames the stream as text/event-stream, flushed per event.
// The flush path runs through http.NewResponseController, which
// unwraps the instrumentation's statusRecorder to reach the server's
// Flusher (the bug the recorder's Unwrap method exists to fix).
func (s *Server) streamSSE(w http.ResponseWriter, r *http.Request, sw *sweep) {
	rc := http.NewResponseController(w)
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	// The frame rendering is shared with the consumer side through
	// internal/sse, so hybridload's parser and this writer cannot
	// drift apart.
	writeEvent := func(event string, id int, data []byte) error {
		ev := sse.Event{Name: event, ID: id}
		if len(data) > 0 {
			for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
				ev.Data = append(ev.Data, string(line))
			}
		}
		if _, err := w.Write(ev.Frame()); err != nil {
			return err
		}
		return rc.Flush()
	}
	// Errors here are client disconnects, write failures, or the lag
	// disconnect — all already delivered in-band (the terminal event)
	// or undeliverable; the stream just ends.
	_ = s.streamLoop(r.Context(), sw, streamStatusInterval, func(ev StreamEvent) error {
		if ev.Kind == StreamCell {
			return writeEvent(StreamCell, ev.Index, ev.JSONL)
		}
		data, err := json.Marshal(ev.Status)
		if err != nil {
			return err
		}
		return writeEvent(ev.Kind, -1, data)
	})
}

// streamJSONL frames the stream as chunked application/jsonl: cells
// arrive in resolution order but are released in canonical index
// order (out-of-order cells held back), so the body equals the static
// document byte for byte. In-band error signalling would corrupt the
// row stream, so a post-first-byte failure or lag aborts the
// connection (http.ErrAbortHandler) instead of ending it cleanly.
func (s *Server) streamJSONL(w http.ResponseWriter, r *http.Request, sw *sweep) {
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "application/jsonl")
	pending := make(map[int][]byte)
	next := 0
	wrote := false
	var terminal StreamEvent
	err := s.streamLoop(r.Context(), sw, 0, func(ev StreamEvent) error {
		if ev.Kind != StreamCell {
			terminal = ev
			return nil
		}
		pending[ev.Index] = ev.JSONL
		flushed := false
		for {
			data, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if len(data) == 0 {
				continue
			}
			if _, err := w.Write(data); err != nil {
				return err
			}
			wrote = true
			flushed = true
		}
		if flushed {
			return rc.Flush()
		}
		return nil
	})
	switch {
	case errors.Is(err, ErrStreamLagged):
		if !wrote {
			writeError(w, http.StatusServiceUnavailable, ErrStreamLagged)
			return
		}
		panic(http.ErrAbortHandler)
	case err != nil:
		return // client disconnect or write failure; nothing left to say
	case terminal.Kind == StreamFailed:
		if !wrote {
			writeError(w, http.StatusInternalServerError,
				fmt.Errorf("hybridnet: sweep failed: %s", terminal.Status.Error))
			return
		}
		panic(http.ErrAbortHandler)
	case len(pending) > 0:
		// Defensive: the terminal arrived with cells still held back —
		// the document cannot be completed, so don't pretend it was.
		panic(http.ErrAbortHandler)
	}
}
