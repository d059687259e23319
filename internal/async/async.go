// Package async is the asynchronous message-passing execution backend
// of the reproduction (DESIGN.md §13) — the counterpart to the
// round-synchronous engine of internal/hybrid. The paper analyzes the
// HYBRID model (Section 1.3) in synchronized rounds; real hybrid
// deployments are asynchronous and lossy, so this backend executes the
// same algorithms as a discrete-event simulation in which every
// simulated node has a local inbox (messages over edges of G, the LOCAL
// mode) and a global inbox (node-to-node messages over the global
// network, the NCC mode).
//
// Execution is driven by a seeded logical clock: every message is an
// event on a deterministic priority queue ordered by (tick, sequence),
// all events of one tick are handed to their destination nodes in one
// loop, and the tick's emissions are merged back in node-index order
// before new events are scheduled. Every random choice — latency,
// jitter, loss, churn — is a pure hash of the seed and the choice's own
// coordinates, never of execution order, so a run is byte-identically
// replayable (the Report.Digest trace hash is the replay certificate;
// see DESIGN.md §13 for the determinism argument).
//
// Faults are layered on top by the transport (faults.go): per-edge
// latency distributions with per-message jitter, i.i.d. and bursty
// (Gilbert–Elliott) message loss with retry/timeout/backoff, and node
// churn — crash/restart with state recovery from neighbors, the
// robustness axis the paper's round analysis does not touch. The
// differential harness certifies converged outputs against
// internal/hybrid and internal/oracle on every graph family.
package async

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// Mode selects which inbox a message is delivered through.
type Mode uint8

// The two communication modes of the HYBRID model (Section 1.3).
const (
	// ModeLocal delivers over an edge of G (the LOCAL mode); sender and
	// receiver must be adjacent.
	ModeLocal Mode = iota
	// ModeGlobal delivers over the global network (the NCC mode); any
	// node may address any other.
	ModeGlobal
)

func (m Mode) String() string {
	if m == ModeLocal {
		return "local"
	}
	return "global"
}

// Message is one asynchronous message. Kind, A and B are
// algorithm-defined; Set optionally carries a token bitset (the payload
// of the dissemination port). A sent Set must not be mutated afterwards
// — clone before sending when the sender keeps writing to it.
type Message struct {
	From, To int
	Mode     Mode
	Kind     uint8
	A, B     int64
	Set      bitset.Set
}

// Node is one simulated process. Implementations hold all mutable
// algorithm state; the engine calls one method at a time, so no
// internal locking is needed.
type Node interface {
	// Start runs when the node boots at tick 0, and again after every
	// churn restart with restart=true. On restart all learned state is
	// gone — implementations must rebuild from durable inputs only
	// (their constructor arguments) and recover the rest from
	// neighbors (DESIGN.md §13, "crash/recovery semantics").
	Start(ctx *Context, restart bool)
	// Deliver handles one tick's batch of messages: local holds the
	// local-inbox arrivals and global the global-inbox arrivals, each
	// sorted by scheduling sequence (deterministic). Both slices are
	// valid only for the call: the engine reuses them for later ticks,
	// so copy any message that must outlive it.
	Deliver(ctx *Context, local, global []Message)
}

// Context is a node's handle onto the simulation during one of its own
// handler invocations. It must not be retained or used outside the
// invocation it was passed to.
type Context struct {
	sim *Sim
	v   int
	out []Message
	err error
}

// ID returns the node's index.
func (c *Context) ID() int { return c.v }

// N returns the network size.
func (c *Context) N() int { return c.sim.n }

// Now returns the current logical tick.
func (c *Context) Now() int64 { return c.sim.now }

// Graph returns the local communication graph (read-only).
func (c *Context) Graph() *graph.Graph { return c.sim.g }

// Send enqueues m into the transport. From is overwritten with the
// sending node. A ModeLocal message must address a neighbor in G; a
// violation is recorded and fails the run (it is a programming error in
// the algorithm, not a simulated fault).
func (c *Context) Send(m Message) {
	m.From = c.v
	if m.To < 0 || m.To >= c.sim.n {
		c.fail(fmt.Errorf("async: node %d sent to out-of-range node %d", c.v, m.To))
		return
	}
	if m.Mode == ModeLocal && !c.sim.g.HasEdge(m.From, m.To) {
		c.fail(fmt.Errorf("async: node %d sent a local message to non-adjacent node %d", c.v, m.To))
		return
	}
	c.out = append(c.out, m)
}

func (c *Context) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Report summarizes one run to quiescence.
type Report struct {
	// ConvergedAt is the logical tick of the last processed event —
	// the run's convergence time under the configured fault model.
	ConvergedAt int64
	// Delivered counts messages handed to Deliver.
	Delivered int64
	// Transmissions counts transport attempts, including retries.
	Transmissions int64
	// DroppedAttempts counts attempts lost to the fault layer (loss,
	// burst loss, or the destination being down at arrival).
	DroppedAttempts int64
	// Retries = Transmissions − messages sent (every attempt after the
	// first of a message).
	Retries int64
	// Crashes and Restarts count churn events applied.
	Crashes, Restarts int
	// Digest is the sha256 trace hash over every processed event in
	// order — two runs with equal seeds are byte-identical executions
	// iff their digests match (the replay certificate of DESIGN.md §13).
	Digest [32]byte
}

// Config parameterizes a simulation.
type Config struct {
	// Seed drives every randomized choice of the transport; 0 means 1.
	Seed int64
	// Faults configures the fault layer; the zero value is the
	// fault-free profile (unit latencies, no jitter, no loss, no churn).
	Faults Faults
	// MaxEvents caps processed delivery events (quiescence guard);
	// ≤ 0 means DefaultMaxEvents.
	MaxEvents int64
}

// DefaultMaxEvents is the default quiescence guard.
const DefaultMaxEvents = 1 << 24

// ErrNoQuiescence is returned when a run exceeds its event budget —
// the algorithm under simulation is not event-quiescent.
var ErrNoQuiescence = errors.New("async: event budget exceeded without quiescence")

// event kinds, in intra-tick processing order: churn control first
// (a message arriving on a node's crash tick is retried, one arriving
// on its restart tick is delivered).
const (
	evCrash = iota
	evRestart
	evDeliver
)

type event struct {
	at   int64
	prio uint8
	seq  int64
	node int // destination (deliver) or subject (crash/restart)
	msg  Message
}

// eventHeap is a binary min-heap over (at, prio, seq).
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	a, b := &h[i], &h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < last && h.less(l, s) {
			s = l
		}
		if r < last && h.less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		(*h)[i], (*h)[s] = (*h)[s], (*h)[i]
		i = s
	}
	return top
}

// Sim is one simulation instance: a set of nodes over a read-only
// graph, a deterministic event queue, and a fault-injecting transport.
// Construct with New; not safe for concurrent use.
type Sim struct {
	g     *graph.Graph
	n     int
	cfg   Config
	nodes []Node
	ctxs  []*Context
	tr    *transport

	heap eventHeap
	seq  int64
	now  int64
	down []bool

	report Report
	trace  hashWriter
	ran    bool
}

// hashWriter folds fixed-width integers into a streaming sha256. fold
// packs its values into one buffer and issues a single Write, keeping
// the digest off the hot path's critical cost.
type hashWriter struct {
	st  hash.Hash
	rec [9 * 8]byte
}

// New builds a simulation over g (which must be non-empty and
// connected, the paper's standing assumption) with one node per vertex
// built by mk. g is only read, so simulations may share one graph.
func New(g *graph.Graph, cfg Config, mk func(v int) Node) (*Sim, error) {
	n := g.N()
	if n == 0 {
		return nil, errors.New("async: empty graph")
	}
	if !g.Connected() {
		return nil, graph.ErrDisconnected
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = DefaultMaxEvents
	}
	cfg.Faults.defaults()
	s := &Sim{
		g:     g,
		n:     n,
		cfg:   cfg,
		nodes: make([]Node, n),
		ctxs:  make([]*Context, n),
		down:  make([]bool, n),
	}
	s.tr = newTransport(g, cfg.Seed, cfg.Faults)
	for v := 0; v < n; v++ {
		s.nodes[v] = mk(v)
		s.ctxs[v] = &Context{sim: s, v: v}
	}
	s.trace.st = sha256.New()
	return s, nil
}

// Run executes the simulation to quiescence (an empty event queue) and
// returns the run report. Node state is inspected afterwards through
// whatever handles mk retained. A second Run on the same Sim is an
// error — build a fresh Sim to replay.
func (s *Sim) Run() (*Report, error) {
	if s.ran {
		return nil, errors.New("async: Sim already ran")
	}
	s.ran = true

	// Schedule churn from the transport's precomputed schedule.
	for v := 0; v < s.n; v++ {
		if c, r, ok := s.tr.churnOf(v); ok {
			s.heap.push(event{at: c, prio: evCrash, seq: s.nextSeq(), node: v})
			s.heap.push(event{at: r, prio: evRestart, seq: s.nextSeq(), node: v})
		}
	}

	// Boot all nodes at tick 0 in index order.
	for v := 0; v < s.n; v++ {
		s.nodes[v].Start(s.ctxs[v], false)
	}
	if err := s.drainEmissions(); err != nil {
		return nil, err
	}

	var processed int64
	// per-tick buffers reused across ticks
	active := make([]int, 0, s.n)
	locals := make([][]Message, s.n)
	globals := make([][]Message, s.n)

	for len(s.heap) > 0 {
		t := s.heap[0].at
		s.now = t
		active = active[:0]
		restarted := false
		// Handlers only buffer their sends, so nothing enters the heap
		// until the tick's events are all popped.
		for len(s.heap) > 0 && s.heap[0].at == t {
			e := s.heap.pop()
			switch e.prio {
			case evCrash:
				s.down[e.node] = true
				s.report.Crashes++
				s.foldControl(t, evCrash, e.node)
			case evRestart:
				s.down[e.node] = false
				s.report.Restarts++
				s.foldControl(t, evRestart, e.node)
				// Rebuild from durable inputs; recovery traffic is the
				// node's own business (Start emissions drain below).
				s.nodes[e.node].Start(s.ctxs[e.node], true)
				restarted = true
			case evDeliver:
				processed++
				s.foldDeliver(&e)
				m := e.msg
				if len(locals[m.To]) == 0 && len(globals[m.To]) == 0 {
					active = append(active, m.To)
				}
				if m.Mode == ModeLocal {
					locals[m.To] = append(locals[m.To], m)
				} else {
					globals[m.To] = append(globals[m.To], m)
				}
				s.report.Delivered++
			}
		}
		if processed > s.cfg.MaxEvents {
			return nil, fmt.Errorf("%w (%d events, tick %d)", ErrNoQuiescence, processed, t)
		}
		// Hand this tick's deliveries to their nodes. active holds
		// distinct destinations in first-arrival order; the order does
		// not matter, since each node buffers its sends in its own
		// context and drainEmissions merges them in node-index order.
		for _, v := range active {
			s.nodes[v].Deliver(s.ctxs[v], locals[v], globals[v])
			locals[v] = locals[v][:0]
			globals[v] = globals[v][:0]
		}
		if restarted || len(active) > 0 {
			if err := s.drainEmissions(); err != nil {
				return nil, err
			}
		}
	}
	s.report.ConvergedAt = s.now
	s.report.Retries = s.report.Transmissions - s.tr.sent
	copy(s.report.Digest[:], s.trace.st.Sum(nil))
	return &s.report, nil
}

func (s *Sim) nextSeq() int64 {
	s.seq++
	return s.seq
}

// drainEmissions feeds every node's buffered sends through the
// transport in node-index order — the deterministic merge that fixes
// the sequence numbers of one tick's sends, whichever node (a restart's
// Start or a delivery) emitted them first.
func (s *Sim) drainEmissions() error {
	for v := 0; v < s.n; v++ {
		ctx := s.ctxs[v]
		if ctx.err != nil {
			return ctx.err
		}
		if len(ctx.out) == 0 {
			continue
		}
		for _, m := range ctx.out {
			at, attempts, ok := s.tr.deliverAt(m.From, m.To, m.Mode, s.now)
			s.report.Transmissions += int64(attempts)
			if !ok {
				s.report.DroppedAttempts += int64(attempts)
				return fmt.Errorf("async: message %d→%d (%s) undeliverable after %d attempts — raise Faults.MaxAttempts or lower the fault rates",
					m.From, m.To, m.Mode, attempts)
			}
			s.report.DroppedAttempts += int64(attempts - 1)
			s.heap.push(event{at: at, prio: evDeliver, seq: s.nextSeq(), node: m.To, msg: m})
		}
		ctx.out = ctx.out[:0]
	}
	return nil
}

// foldControl folds a churn event into the trace digest.
func (s *Sim) foldControl(at int64, kind int, node int) {
	s.trace.fold(at, int64(kind), int64(node))
}

// foldDeliver folds a delivery into the trace digest: tick, endpoints,
// mode, kind, payload words, and a 64-bit fingerprint of the Set
// payload (capacity + members) — one bulk Write per delivery.
func (s *Sim) foldDeliver(e *event) {
	var fp uint64
	if e.msg.Set.Len() > 0 {
		fp = e.msg.Set.Fingerprint()
	}
	s.trace.fold(
		e.at,
		int64(evDeliver),
		int64(e.msg.From),
		int64(e.msg.To),
		int64(e.msg.Mode),
		int64(e.msg.Kind),
		e.msg.A,
		e.msg.B,
		int64(fp),
	)
}

func (w *hashWriter) fold(vals ...int64) {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(w.rec[8*i:], uint64(v))
	}
	w.st.Write(w.rec[:8*len(vals)])
}
