// Package hybrid implements the HYBRID and HYBRID₀ models of distributed
// computing (Augustine, Hinnenthal, Kuhn, Scheideler, Schneider, SODA 2020)
// as a synchronous round engine, following Section 1.3 of the reproduced
// paper.
//
// The engine provides the two communication modes:
//
//   - Local mode: the LOCAL model — adjacent nodes in the input graph G may
//     exchange messages of unbounded size each round. A t-hop flood costs
//     t rounds (TickLocal).
//   - Global mode: the node-capacitated clique (NCC) — every node may send
//     and receive at most γ = CapFactor·⌈log₂ n⌉ messages of O(log n) bits
//     per round. SendGlobal schedules an explicit message multiset under
//     these caps and charges the rounds the schedule needs; LoadRounds
//     does the same from per-node send/receive load vectors when
//     materializing every message would be wasteful.
//
// In HYBRID₀ a node may address a global message only to identifiers it has
// learned (initially: itself and its neighbors in G). With
// Config.TrackKnowledge enabled the engine maintains per-node known-ID
// bitsets and rejects sends to unknown identifiers.
//
// Every round consumed is recorded in an audit trail, with each entry
// marked either Simulated (the engine scheduled real communication) or
// Charged (the round cost of a cited black-box subroutine; DESIGN.md §2
// explains the substitution rule). Benchmarks report both totals.
package hybrid

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// Variant selects between the two identifier regimes of Section 1.3.
type Variant int

// Supported model variants.
const (
	// VariantHybrid: identifiers are exactly [n] and globally known.
	VariantHybrid Variant = iota + 1
	// VariantHybrid0: identifiers come from a polynomial range [n^c] and a
	// node initially knows only its own identifier and its neighbors'.
	VariantHybrid0
)

func (v Variant) String() string {
	switch v {
	case VariantHybrid:
		return "HYBRID"
	case VariantHybrid0:
		return "HYBRID0"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Config parameterizes a network. The zero value is usable: it defaults to
// VariantHybrid with CapFactor 1 and no knowledge tracking.
//
// The paper's two-parameter family HYBRID(λ, γ) (Section 1.3) is spanned
// by LocalWordCap (λ) and GlobalWordCap/CapFactor (γ); the marginal
// models LOCAL, CONGEST, NCC, NCC₀, and the Congested Clique are exposed
// as constructors in models.go.
type Config struct {
	// Variant selects HYBRID or HYBRID₀ (default HYBRID).
	Variant Variant
	// CapFactor scales the global capacity: γ = CapFactor·⌈log₂ n⌉
	// messages per node per round (default 1). The paper's
	// HYBRID(∞, γ) parameterization is obtained by varying this.
	CapFactor int
	// GlobalWordCap overrides γ exactly when > 0; LocalOnly disables the
	// global mode entirely (λ-only marginal models).
	GlobalWordCap int
	// LocalWordCap is λ, the per-edge local bandwidth in O(log n)-bit
	// words per round: 0 means unlimited (the HYBRID default), a
	// positive value bounds SendLocal (e.g. 1 for CONGEST).
	LocalWordCap int
	// LocalOnly disables the global mode (LOCAL/CONGEST marginals).
	LocalOnly bool
	// GlobalOnly disables the local mode (NCC/Congested Clique
	// marginals): TickLocal and SendLocal return errors.
	GlobalOnly bool
	// TrackKnowledge enables per-node known-identifier bitsets and
	// HYBRID₀ addressing enforcement. Costs O(n²) bits of memory; meant
	// for tests and moderate n.
	TrackKnowledge bool
	// Seed drives the HYBRID₀ identifier assignment (default 1).
	Seed int64
}

// Kind distinguishes audit entries.
type Kind int

// Audit entry kinds.
const (
	// Simulated rounds were scheduled message-by-message by the engine.
	Simulated Kind = iota + 1
	// Charged rounds are the published cost of a cited subroutine that is
	// computed functionally (see DESIGN.md §2, "Charged subroutines").
	Charged
)

func (k Kind) String() string {
	if k == Simulated {
		return "simulated"
	}
	return "charged"
}

// AuditEntry records the rounds consumed by one phase of an algorithm.
type AuditEntry struct {
	Phase  string
	Rounds int
	Kind   Kind
}

// Stats aggregates communication volume over a network's lifetime.
type Stats struct {
	GlobalMessages int64 // messages accepted by SendGlobal
	LoadMessages   int64 // messages accounted via LoadRounds
	LocalRounds    int64 // rounds spent in local mode
	GlobalRounds   int64 // rounds spent in global mode
}

// Net is one instance of a HYBRID network over a local graph G.
// It is not safe for concurrent use.
type Net struct {
	g     *graph.Graph
	cfg   Config
	n     int
	gcap  int
	plog  int
	ids   []int64       // external identifier of each node
	idOf  map[int64]int // inverse of ids
	know  []bitset.Set  // know[v].Has(u): v has learned ID(u); nil unless tracking
	audit []AuditEntry
	stats Stats
	memo  map[string]any
	// violations counts uses of a disabled communication mode.
	violations int

	// Pooled per-node scratch for the round schedulers. Invariant: both
	// vectors are all-zero between calls — SendGlobal and DeliverOneRound
	// zero exactly the entries they touched before returning, so the
	// steady-state round loop never reallocates (see DESIGN.md §5).
	scratchOut []int
	scratchIn  []int
	// localLoad is the pooled per-edge load map of SendLocal (λ > 0 only),
	// cleared — not reallocated — every call.
	localLoad map[edgeKey]int
}

type edgeKey struct{ u, v int }

// loadScratch returns the two pooled all-zero per-node scratch vectors.
// Callers must re-zero every entry they touch before returning.
func (net *Net) loadScratch() (out, in []int) {
	if net.scratchOut == nil {
		net.scratchOut = make([]int, net.n)
		net.scratchIn = make([]int, net.n)
	}
	return net.scratchOut, net.scratchIn
}

// Memo returns a value cached on this network under key. Algorithms use
// it for network-wide state that, once established (and paid for), stays
// available for the rest of the execution — e.g. the Lemma 4.3 overlay
// tree or a Lemma 3.5 clustering.
func (net *Net) Memo(key string) (any, bool) {
	v, ok := net.memo[key]
	return v, ok
}

// SetMemo caches a value on this network under key.
func (net *Net) SetMemo(key string, v any) {
	if net.memo == nil {
		net.memo = make(map[string]any)
	}
	net.memo[key] = v
}

// ErrEmptyGraph is returned when constructing a network over no nodes.
var ErrEmptyGraph = errors.New("hybrid: empty graph")

// New builds a network over g. The graph must be non-empty and connected
// (the paper's standing assumption).
func New(g *graph.Graph, cfg Config) (*Net, error) {
	n := g.N()
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	if !g.Connected() {
		return nil, graph.ErrDisconnected
	}
	if cfg.Variant == 0 {
		cfg.Variant = VariantHybrid
	}
	if cfg.CapFactor <= 0 {
		cfg.CapFactor = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	net := &Net{
		g:    g,
		cfg:  cfg,
		n:    n,
		plog: ceilLog2(n),
		idOf: make(map[int64]int, n),
	}
	net.gcap = cfg.CapFactor * net.plog
	if cfg.GlobalWordCap > 0 {
		net.gcap = cfg.GlobalWordCap
	}
	if net.gcap < 1 {
		net.gcap = 1
	}
	net.ids = make([]int64, n)
	switch cfg.Variant {
	case VariantHybrid:
		for v := 0; v < n; v++ {
			net.ids[v] = int64(v)
		}
	case VariantHybrid0:
		// Distinct identifiers from [n^2] (c = 2), randomly assigned.
		rng := rand.New(rand.NewSource(cfg.Seed))
		space := int64(n) * int64(n)
		used := make(map[int64]bool, n)
		for v := 0; v < n; v++ {
			for {
				id := rng.Int63n(space)
				if !used[id] {
					used[id] = true
					net.ids[v] = id
					break
				}
			}
		}
	default:
		return nil, fmt.Errorf("hybrid: unknown variant %d", cfg.Variant)
	}
	for v, id := range net.ids {
		net.idOf[id] = v
	}
	if cfg.TrackKnowledge {
		net.know = make([]bitset.Set, n)
		for v := 0; v < n; v++ {
			net.know[v] = bitset.New(n)
			net.know[v].Add(v)
			g.ForEachNeighbor(v, func(u int, _ int64) {
				net.know[v].Add(u)
			})
		}
	}
	return net, nil
}

// Graph returns the local communication graph.
func (net *Net) Graph() *graph.Graph { return net.g }

// N returns the number of nodes.
func (net *Net) N() int { return net.n }

// Variant returns the model variant.
func (net *Net) Variant() Variant { return net.cfg.Variant }

// Cap returns γ, the per-node global messages per round.
func (net *Net) Cap() int { return net.gcap }

// PLog returns ⌈log₂ n⌉, the polylog unit used by all charged formulas.
func (net *Net) PLog() int { return net.plog }

// ID returns the external identifier of node v.
func (net *Net) ID(v int) int64 { return net.ids[v] }

// NodeOf returns the node holding identifier id, or -1.
func (net *Net) NodeOf(id int64) int {
	if v, ok := net.idOf[id]; ok {
		return v
	}
	return -1
}

// Rounds returns the total rounds consumed so far.
func (net *Net) Rounds() int {
	t := 0
	for _, e := range net.audit {
		t += e.Rounds
	}
	return t
}

// RoundsByKind returns (simulated, charged) round totals.
func (net *Net) RoundsByKind() (simulated, charged int) {
	for _, e := range net.audit {
		if e.Kind == Simulated {
			simulated += e.Rounds
		} else {
			charged += e.Rounds
		}
	}
	return simulated, charged
}

// Audit returns a copy of the audit trail. Consecutive engine calls
// that share a phase label and kind are recorded as one merged entry
// (the steady-state round loop does not grow the trail).
func (net *Net) Audit() []AuditEntry {
	return append([]AuditEntry(nil), net.audit...)
}

// Stats returns a copy of the communication statistics.
func (net *Net) Stats() Stats { return net.stats }

// ResetRounds clears the audit trail and statistics (knowledge state is
// kept). Useful for measuring phases of a longer computation separately.
func (net *Net) ResetRounds() {
	net.audit = nil
	net.stats = Stats{}
}

func (net *Net) record(phase string, rounds int, kind Kind) {
	if rounds <= 0 {
		return
	}
	// Coalesce with the previous entry when phase and kind repeat: the
	// steady-state round loop then never grows the audit slice, and
	// FormatAudit (which merges by phase and kind anyway) is unchanged.
	if k := len(net.audit); k > 0 {
		if last := &net.audit[k-1]; last.Phase == phase && last.Kind == kind {
			last.Rounds += rounds
			return
		}
	}
	net.audit = append(net.audit, AuditEntry{Phase: phase, Rounds: rounds, Kind: kind})
}

// Charge records rounds of a cited black-box subroutine (Kind Charged).
func (net *Net) Charge(phase string, rounds int) {
	net.record(phase, rounds, Charged)
	net.stats.GlobalRounds += int64(rounds)
}

// TickLocal charges t rounds of local (LOCAL-mode) communication,
// e.g. a t-hop flood. In a GlobalOnly network the call is recorded as a
// model violation instead (see Violations); algorithms written for the
// full HYBRID model are not expected to run on the marginal models.
func (net *Net) TickLocal(phase string, t int) {
	if net.cfg.GlobalOnly {
		net.violations++
		return
	}
	net.record(phase, t, Simulated)
	net.stats.LocalRounds += int64(t)
}

// Violations counts uses of a disabled communication mode.
func (net *Net) Violations() int { return net.violations }

// ErrModeDisabled is returned when a communication mode is disabled by
// the marginal-model configuration.
type ErrModeDisabled struct {
	Mode  string
	Phase string
}

func (e *ErrModeDisabled) Error() string {
	return fmt.Sprintf("hybrid: phase %q: %s mode disabled in this model", e.Phase, e.Mode)
}

// SendLocal delivers msgs along edges of G under the per-edge bandwidth
// λ = Config.LocalWordCap words per round (unlimited when 0), returning
// the scheduled rounds. Every message must connect adjacent nodes. This
// is the CONGEST-mode primitive of the HYBRID(λ, γ) parameterization.
func (net *Net) SendLocal(phase string, msgs []Msg) (int, error) {
	if net.cfg.GlobalOnly {
		return 0, &ErrModeDisabled{Mode: "local", Phase: phase}
	}
	if len(msgs) == 0 {
		return 0, nil
	}
	for i := range msgs {
		m := &msgs[i]
		if m.From < 0 || m.From >= net.n || m.To < 0 || m.To >= net.n {
			return 0, fmt.Errorf("hybrid: phase %q: local message endpoint out of range (%d→%d)", phase, m.From, m.To)
		}
		if !net.g.HasEdge(m.From, m.To) {
			return 0, fmt.Errorf("hybrid: phase %q: local message between non-adjacent nodes %d and %d", phase, m.From, m.To)
		}
	}
	rounds := 1
	if lam := net.cfg.LocalWordCap; lam > 0 {
		// Per-edge loads matter only under a finite λ; the pooled map is
		// cleared, not reallocated, between calls.
		if net.localLoad == nil {
			net.localLoad = make(map[edgeKey]int, 64)
		} else {
			clear(net.localLoad)
		}
		maxLoad := 0
		for i := range msgs {
			m := &msgs[i]
			size := m.Size
			if size <= 0 {
				size = 1
			}
			size += len(m.TeachIDs)
			k := edgeKey{m.From, m.To}
			if k.u > k.v {
				k.u, k.v = k.v, k.u
			}
			l := net.localLoad[k] + size
			net.localLoad[k] = l
			if l > maxLoad {
				maxLoad = l
			}
		}
		rounds = (maxLoad + lam - 1) / lam
	}
	net.record(phase, rounds, Simulated)
	net.stats.LocalRounds += int64(rounds)
	if net.know != nil {
		for i := range msgs {
			m := &msgs[i]
			net.know[m.To].Add(m.From)
			for _, u := range m.TeachIDs {
				net.know[m.To].Add(u)
			}
		}
	}
	return rounds, nil
}

// Knows reports whether node v has learned the identifier of node u.
// Without knowledge tracking (or in plain HYBRID) it always reports true.
func (net *Net) Knows(v, u int) bool {
	if net.cfg.Variant == VariantHybrid || net.know == nil {
		return true
	}
	return net.know[v].Has(u)
}

// Learn records that node v has learned node u's identifier (e.g. it was
// carried in a message payload). No-op without knowledge tracking.
func (net *Net) Learn(v, u int) {
	if net.know != nil {
		net.know[v].Add(u)
	}
}

// LearnAll records that every node learned every identifier (the state
// after broadcasting all IDs, cf. the remark after Theorem 1).
func (net *Net) LearnAll() {
	if net.know == nil {
		return
	}
	for v := 0; v < net.n; v++ {
		for u := 0; u < net.n; u++ {
			net.know[v].Add(u)
		}
	}
}

// LearnBall makes every node learn all identifiers within t hops, the
// knowledge state after a t-round local flood of IDs. It does not charge
// rounds; pair it with TickLocal.
func (net *Net) LearnBall(t int) {
	if net.know == nil {
		return
	}
	for v := 0; v < net.n; v++ {
		for _, u := range net.g.Ball(v, t) {
			net.know[v].Add(u)
		}
	}
}

// Msg is one O(log n)-bit global-mode message. Size is the number of
// O(log n)-bit words it occupies (0 means 1); a message of Size s counts
// as s messages against both endpoint capacities. TeachIDs lists nodes
// whose identifiers ride along in the payload: on delivery the receiver
// learns them (and always learns the sender's).
type Msg struct {
	From, To int
	Size     int
	TeachIDs []int
}

// ErrUnknownTarget is returned in HYBRID₀ when a sender addresses a node
// whose identifier it has not learned.
type ErrUnknownTarget struct {
	From, To int
	Phase    string
}

func (e *ErrUnknownTarget) Error() string {
	return fmt.Sprintf("hybrid: phase %q: node %d does not know the identifier of node %d",
		e.Phase, e.From, e.To)
}

// SendGlobal delivers msgs through the global network, scheduling them in
// as few rounds as the per-node capacity γ permits, and returns the number
// of rounds consumed.
//
// By König's edge-coloring theorem the bipartite (sender, receiver)
// multigraph can be partitioned into Δ perfect schedules where Δ is the
// maximum per-node load; with capacity γ per round the optimum is
// ⌈Δ/γ⌉ rounds, which the engine charges as Simulated rounds. In HYBRID₀
// with knowledge tracking the sender of each message must know the
// receiver's identifier or an *ErrUnknownTarget is returned (and nothing
// is charged). Knowledge side effects (sender ID + TeachIDs) are applied
// on success.
//
// The schedule builder runs in O(len(msgs)) time on pooled scratch: in
// steady state it performs no allocations at all. It only reads msgs:
// overlay trees hand it their persistent per-level schedules.
func (net *Net) SendGlobal(phase string, msgs []Msg) (int, error) {
	if net.cfg.LocalOnly {
		return 0, &ErrModeDisabled{Mode: "global", Phase: phase}
	}
	if len(msgs) == 0 {
		return 0, nil
	}
	for i := range msgs {
		m := &msgs[i]
		if m.From < 0 || m.From >= net.n || m.To < 0 || m.To >= net.n {
			return 0, fmt.Errorf("hybrid: phase %q: message endpoint out of range (%d→%d)", phase, m.From, m.To)
		}
		if net.cfg.Variant == VariantHybrid0 && net.know != nil && !net.know[m.From].Has(m.To) {
			return 0, &ErrUnknownTarget{From: m.From, To: m.To, Phase: phase}
		}
	}
	out, in := net.loadScratch()
	maxLoad := 0
	for i := range msgs {
		m := &msgs[i]
		size := m.Size
		if size <= 0 {
			size = 1
		}
		size += len(m.TeachIDs) // each taught ID occupies one word
		out[m.From] += size
		if out[m.From] > maxLoad {
			maxLoad = out[m.From]
		}
		in[m.To] += size
		if in[m.To] > maxLoad {
			maxLoad = in[m.To]
		}
	}
	// Restore the all-zero scratch invariant: only touched entries reset.
	for i := range msgs {
		out[msgs[i].From] = 0
		in[msgs[i].To] = 0
	}
	rounds := (maxLoad + net.gcap - 1) / net.gcap
	net.record(phase, rounds, Simulated)
	net.stats.GlobalMessages += int64(len(msgs))
	net.stats.GlobalRounds += int64(rounds)
	if net.know != nil {
		for i := range msgs {
			m := &msgs[i]
			net.know[m.To].Add(m.From)
			for _, u := range m.TeachIDs {
				net.know[m.To].Add(u)
			}
		}
	}
	return rounds, nil
}

// DeliverOneRound models the Section 1.3 subtlety verbatim: msgs are all
// offered in a single round, and an adversary drops everything beyond
// the receiver's γ budget (excess sends are suppressed at the sender
// likewise). It returns the indices of delivered messages; exactly one
// round is charged. The library's algorithms never need this — their
// schedules keep within γ deterministically — but tests use it to check
// that over-capacity traffic really is lossy in this model.
func (net *Net) DeliverOneRound(phase string, msgs []Msg) (delivered []int, err error) {
	if net.cfg.LocalOnly {
		return nil, &ErrModeDisabled{Mode: "global", Phase: phase}
	}
	for i := range msgs {
		m := &msgs[i]
		if m.From < 0 || m.From >= net.n || m.To < 0 || m.To >= net.n {
			return nil, fmt.Errorf("hybrid: phase %q: message endpoint out of range (%d→%d)", phase, m.From, m.To)
		}
	}
	// Pooled used-word counters against the γ budget (all-zero invariant).
	sendUsed, recvUsed := net.loadScratch()
	for i := range msgs {
		m := &msgs[i]
		if net.cfg.Variant == VariantHybrid0 && net.know != nil && !net.know[m.From].Has(m.To) {
			continue // unaddressable: silently undeliverable
		}
		size := m.Size
		if size <= 0 {
			size = 1
		}
		size += len(m.TeachIDs)
		if sendUsed[m.From]+size > net.gcap || recvUsed[m.To]+size > net.gcap {
			continue // adversary drops the overflow (Section 1.3)
		}
		sendUsed[m.From] += size
		recvUsed[m.To] += size
		delivered = append(delivered, i)
		if net.know != nil {
			net.know[m.To].Add(m.From)
			for _, u := range m.TeachIDs {
				net.know[m.To].Add(u)
			}
		}
	}
	for i := range msgs {
		sendUsed[msgs[i].From] = 0
		recvUsed[msgs[i].To] = 0
	}
	net.record(phase, 1, Simulated)
	net.stats.GlobalMessages += int64(len(delivered))
	net.stats.GlobalRounds++
	return delivered, nil
}

// LoadRounds charges the rounds needed to deliver a message multiset given
// only per-node send and receive word counts. It is the large-k companion
// of SendGlobal: the optimal schedule length is ⌈max load/γ⌉ rounds as
// above. Knowledge side effects are the caller's responsibility.
func (net *Net) LoadRounds(phase string, out, in []int) int {
	rounds := loadToRounds(out, in, net.gcap)
	net.record(phase, rounds, Simulated)
	var total int64
	for _, o := range out {
		total += int64(o)
	}
	net.stats.LoadMessages += total
	net.stats.GlobalRounds += int64(rounds)
	return rounds
}

func loadToRounds(out, in []int, gcap int) int {
	maxLoad := 0
	for _, o := range out {
		if o > maxLoad {
			maxLoad = o
		}
	}
	for _, i := range in {
		if i > maxLoad {
			maxLoad = i
		}
	}
	return (maxLoad + gcap - 1) / gcap
}

// FormatAudit renders the audit trail as an aligned text table, merging
// all entries that share a phase label and kind (first-seen order).
func (net *Net) FormatAudit() string {
	type key struct {
		phase string
		kind  Kind
	}
	type row struct {
		phase string
		r     int
		kind  Kind
	}
	var rows []row
	at := make(map[key]int)
	for _, e := range net.audit {
		k := key{e.Phase, e.Kind}
		if i, ok := at[k]; ok {
			rows[i].r += e.Rounds
			continue
		}
		at[k] = len(rows)
		rows = append(rows, row{e.Phase, e.Rounds, e.Kind})
	}
	width := 0
	for _, r := range rows {
		if len(r.phase) > width {
			width = len(r.phase)
		}
	}
	s := ""
	for _, r := range rows {
		s += fmt.Sprintf("  %-*s %7d rounds (%s)\n", width, r.phase, r.r, r.kind)
	}
	sim, ch := net.RoundsByKind()
	s += fmt.Sprintf("  %-*s %7d rounds (simulated %d + charged %d)\n", width, "TOTAL", sim+ch, sim, ch)
	return s
}

// SortedIDs returns the node indices ordered by external identifier —
// the canonical order used by deterministic overlay constructions.
func (net *Net) SortedIDs() []int {
	order := make([]int, net.n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return net.ids[order[a]] < net.ids[order[b]] })
	return order
}

func ceilLog2(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	if l == 0 {
		l = 1
	}
	return l
}

// PLog returns ⌈log₂ n⌉ (at least 1) — exported for cost formulas that
// need the polylog unit without a network instance.
func PLog(n int) int { return ceilLog2(n) }
