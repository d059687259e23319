package hybrid

import "repro/internal/graph"

// Phase names a deterministic phase for Once and Each (DESIGN.md §1).
// Name and K identify it on one network; Label, the audit label a caller
// chose for it, also keys its transcript.
type Phase struct {
	Name, Label string
	K           int
}

// Transcript is what one run of a deterministic phase did to its
// network: the audit entries it recorded, in order, and its Stats delta.
type Transcript struct {
	Entries []AuditEntry
	Stats   Stats
}

// transcriptKey is a phase plus everything else its rounds depend on.
type transcriptKey struct {
	Phase
	g          *graph.Graph
	variant    Variant
	seed       int64 // HYBRID₀ only: the seed draws the identifiers
	gcap, plog int
}

// recording is a transcript with the phase's output, which every network
// that replays it shares read-only.
type recording struct {
	Transcript
	out     any
	replays int
}

// Transcripts is the table of phase transcripts the networks of one
// sweep cell share, together with the index order their SortedIDs
// return under HYBRID. Like a Net it is not safe for concurrent use; the
// zero value is an empty table.
type Transcripts struct {
	byKey map[transcriptKey]*recording
	order []int // 0, 1, …, for the largest network that asked
}

// indexOrder returns 0..n-1, shared read-only by the table's networks.
func (tab *Transcripts) indexOrder(n int) []int {
	if len(tab.order) < n {
		tab.order = indexOrder(n)
	}
	return tab.order[:n:n]
}

// Runs reports how many transcripts of the named phase tab recorded and
// how many times networks replayed one.
func (tab *Transcripts) Runs(name string) (recorded, replayed int) {
	for k, rec := range tab.byKey {
		if k.Name == name {
			recorded, replayed = recorded+1, replayed+rec.replays
		}
	}
	return recorded, replayed
}

// NewWith is New with a transcript table, which knowledge tracking and
// the marginal models ignore: their side effects are not in a transcript.
func NewWith(g *graph.Graph, cfg Config, tab *Transcripts) (*Net, error) {
	net, err := New(g, cfg)
	if err == nil && !cfg.TrackKnowledge && !cfg.LocalOnly && !cfg.GlobalOnly {
		net.tab = tab
	}
	return net, err
}

// Replay appends a transcript's audit entries through the path a run
// takes, so they coalesce exactly as the run's did, and adds its Stats.
func (net *Net) Replay(t *Transcript) {
	for _, e := range t.Entries {
		net.record(e.Phase, e.Rounds, e.Kind)
	}
	net.stats = net.stats.add(t.Stats, 1)
}

// add returns s + sign·o.
func (s Stats) add(o Stats, sign int64) Stats {
	return Stats{s.GlobalMessages + sign*o.GlobalMessages, s.LoadMessages + sign*o.LoadMessages,
		s.LocalRounds + sign*o.LocalRounds, s.GlobalRounds + sign*o.GlobalRounds}
}

// Once is Each for a phase whose result persists on the network (an
// overlay tree, NQ_k, a clustering): a repeat of its Name and K returns
// the first output and charges nothing.
func Once[T any](net *Net, p Phase, run func() (T, error)) (T, error) {
	id := Phase{Name: p.Name, K: p.K}
	if out, ok := net.played[id]; ok {
		return out.(T), nil
	}
	out, err := Each(net, p, run)
	if err == nil {
		if net.played == nil {
			net.played = make(map[Phase]any)
		}
		net.played[id] = out
	}
	return out, err
}

// Each runs the phase p on net, or replays its transcript when net's
// table holds one. run must be deterministic in (graph, identifiers,
// Config) and draw from no rng; a phase it builds on runs before it, as
// a phase of its own. A run that fails records nothing.
func Each[T any](net *Net, p Phase, run func() (T, error)) (T, error) {
	tab := net.tab
	if tab == nil {
		return run()
	}
	key := transcriptKey{Phase: p, g: net.g, variant: net.cfg.Variant, gcap: net.gcap, plog: net.plog}
	if key.variant == VariantHybrid0 {
		key.seed = net.cfg.Seed
	}
	if rec, ok := tab.byKey[key]; ok {
		rec.replays++
		net.Replay(&rec.Transcript)
		return rec.out.(T), nil
	}
	rec, before := &recording{}, net.stats
	net.capture = &rec.Transcript
	out, err := run()
	net.capture = nil
	if err != nil {
		return out, err
	}
	rec.out, rec.Stats = out, net.stats.add(before, -1)
	if tab.byKey == nil {
		tab.byKey = make(map[transcriptKey]*recording)
	}
	tab.byKey[key] = rec
	return out, nil
}
