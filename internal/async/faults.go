// The fault layer of the async backend (DESIGN.md §13): a transport
// that assigns every message a delivery time under per-edge latency
// distributions, per-transmission jitter, i.i.d. and bursty
// (Gilbert–Elliott) loss with retry/timeout/backoff, and node churn.
// Every decision is a pure hash of (seed, coordinates, attempt
// counter), so the injected faults are a deterministic function of the
// seed — replayable byte-identically.

package async

import (
	"repro/internal/graph"
)

// Faults configures the fault model. The zero value (after defaults)
// is the fault-free profile: unit latency on both modes, no jitter, no
// loss, no churn — under it the async engine is a reliable
// asynchronous network with uniform delays.
type Faults struct {
	// LatencyMin/LatencyMax bound the base latency of a local edge in
	// ticks; each directed edge draws one base latency uniformly from
	// [min, max] (defaults 1, 1).
	LatencyMin, LatencyMax int64
	// GlobalLatencyMin/GlobalLatencyMax bound the base latency of a
	// global sender→receiver pair likewise (defaults 1, 1).
	GlobalLatencyMin, GlobalLatencyMax int64
	// Jitter adds a per-transmission uniform extra in [0, Jitter]
	// ticks (default 0).
	Jitter int64
	// Loss is the i.i.d. per-transmission loss probability (default 0).
	Loss float64
	// Burst models bursty loss as a per-directed-pair Gilbert–Elliott
	// chain advanced once per transmission attempt: BurstEnter is the
	// good→bad transition probability, BurstExit the bad→good one, and
	// BurstLoss the loss probability while the pair is in the bad
	// state (Loss applies in the good state). All default 0.
	BurstEnter, BurstExit, BurstLoss float64
	// RetryTimeout is the transport's base retransmission timeout in
	// ticks (default 8); it doubles per attempt up to RetryCap
	// (default 512).
	RetryTimeout, RetryCap int64
	// MaxAttempts caps transmissions per message (default 128); a
	// message still undelivered after that many attempts fails the run.
	MaxAttempts int
	// ChurnRate is the probability that a node crashes once during the
	// run (default 0). A crashed node drops all learned state and
	// restarts after its downtime, recovering from neighbors.
	ChurnRate float64
	// CrashMin/CrashMax bound the crash tick (defaults 1, 64);
	// DownMin/DownMax bound the downtime in ticks (defaults 8, 32).
	CrashMin, CrashMax int64
	DownMin, DownMax   int64
}

func (f *Faults) defaults() {
	if f.LatencyMin <= 0 {
		f.LatencyMin = 1
	}
	if f.LatencyMax < f.LatencyMin {
		f.LatencyMax = f.LatencyMin
	}
	if f.GlobalLatencyMin <= 0 {
		f.GlobalLatencyMin = 1
	}
	if f.GlobalLatencyMax < f.GlobalLatencyMin {
		f.GlobalLatencyMax = f.GlobalLatencyMin
	}
	if f.RetryTimeout <= 0 {
		f.RetryTimeout = 8
	}
	if f.RetryCap < f.RetryTimeout {
		f.RetryCap = 512
		if f.RetryCap < f.RetryTimeout {
			f.RetryCap = f.RetryTimeout
		}
	}
	if f.MaxAttempts <= 0 {
		f.MaxAttempts = 128
	}
	if f.CrashMin <= 0 {
		f.CrashMin = 1
	}
	if f.CrashMax < f.CrashMin {
		f.CrashMax = 64
		if f.CrashMax < f.CrashMin {
			f.CrashMax = f.CrashMin
		}
	}
	if f.DownMin <= 0 {
		f.DownMin = 8
	}
	if f.DownMax < f.DownMin {
		f.DownMax = 32
		if f.DownMax < f.DownMin {
			f.DownMax = f.DownMin
		}
	}
	return
}

// LossProfile returns the i.i.d.-loss fault profile at rate p.
func LossProfile(p float64) Faults { return Faults{Loss: p} }

// BurstLossProfile returns a bursty-loss profile: pairs enter a bad
// state with probability enter per attempt, leave it with exit, and
// lose transmissions with probability lossBad while bad.
func BurstLossProfile(enter, exit, lossBad float64) Faults {
	return Faults{BurstEnter: enter, BurstExit: exit, BurstLoss: lossBad}
}

// ChurnProfile returns the churn fault profile: each node crashes once
// with probability rate and recovers from its neighbors on restart.
func ChurnProfile(rate float64) Faults { return Faults{ChurnRate: rate} }

// pairKey identifies a directed sender→receiver pair per mode.
type pairKey struct {
	from, to int
	mode     Mode
}

// pairState is the transport's per-pair mutable state: the attempt
// counter indexing the pair's hash streams and the Gilbert–Elliott
// burst state.
type pairState struct {
	attempts uint64
	bad      bool
}

// transport computes delivery times under the fault model. All state
// mutations happen in the scheduler's deterministic merge order
// (drainEmissions), never from a node handler.
type transport struct {
	seed  int64
	f     Faults
	pairs map[pairKey]*pairState
	sent  int64 // messages accepted (first attempts)

	// churn schedule: node v is down during [downAt[v], upAt[v]);
	// downAt 0 means v never crashes.
	downAt, upAt []int64
}

func newTransport(g *graph.Graph, seed int64, f Faults) *transport {
	n := g.N()
	tr := &transport{
		seed:   seed,
		f:      f,
		pairs:  make(map[pairKey]*pairState),
		downAt: make([]int64, n),
		upAt:   make([]int64, n),
	}
	if f.ChurnRate > 0 {
		for v := 0; v < n; v++ {
			if prob(mix(seed, 0xC4A5, int64(v))) >= f.ChurnRate {
				continue
			}
			crash := f.CrashMin + int64(mix(seed, 0xC4A6, int64(v))%uint64(f.CrashMax-f.CrashMin+1))
			down := f.DownMin + int64(mix(seed, 0xC4A7, int64(v))%uint64(f.DownMax-f.DownMin+1))
			tr.downAt[v] = crash
			tr.upAt[v] = crash + down
		}
	}
	return tr
}

// churnOf returns node v's scheduled (crash, restart) ticks.
func (tr *transport) churnOf(v int) (crash, restart int64, ok bool) {
	if tr.downAt[v] == 0 {
		return 0, 0, false
	}
	return tr.downAt[v], tr.upAt[v], true
}

// isDown reports whether v is down at tick t under the churn schedule.
func (tr *transport) isDown(v int, t int64) bool {
	return tr.downAt[v] != 0 && t >= tr.downAt[v] && t < tr.upAt[v]
}

// baseLatency is the pair's fixed base latency, hashed from the seed.
func (tr *transport) baseLatency(from, to int, mode Mode) int64 {
	lo, hi := tr.f.LatencyMin, tr.f.LatencyMax
	if mode == ModeGlobal {
		lo, hi = tr.f.GlobalLatencyMin, tr.f.GlobalLatencyMax
	}
	if lo == hi {
		return lo
	}
	return lo + int64(mix(tr.seed, 0x1A7, int64(mode), int64(from), int64(to))%uint64(hi-lo+1))
}

// deliverAt schedules one message sent at tick now and returns its
// arrival tick and the attempts consumed; ok is false when MaxAttempts
// ran out. With no loss, burst chain or jitter configured there is no
// per-attempt state to advance, so the first attempt lands at the
// pair's base latency unless the destination is down; only then, or
// under faults, does it take the retry walk.
func (tr *transport) deliverAt(from, to int, mode Mode, now int64) (at int64, attempts int, ok bool) {
	tr.sent++
	if tr.f.Loss == 0 && tr.f.BurstEnter == 0 && tr.f.BurstExit == 0 && tr.f.Jitter == 0 {
		arrive := now + tr.baseLatency(from, to, mode)
		if !tr.isDown(to, arrive) {
			return arrive, 1, true
		}
	}
	return tr.walk(from, to, mode, now)
}

// walk is the retry/timeout/backoff loop: it draws each attempt's
// jitter, loss and burst-state decisions from the pair's hash stream
// until an attempt both survives loss and arrives while the
// destination is up.
func (tr *transport) walk(from, to int, mode Mode, now int64) (at int64, attempts int, ok bool) {
	key := pairKey{from, to, mode}
	ps := tr.pairs[key]
	if ps == nil {
		ps = &pairState{}
		tr.pairs[key] = ps
	}
	base := tr.baseLatency(from, to, mode)
	attemptAt := now
	timeout := tr.f.RetryTimeout
	for i := 0; i < tr.f.MaxAttempts; i++ {
		cnt := ps.attempts
		ps.attempts++
		// Advance the burst chain one step for this attempt.
		if tr.f.BurstEnter > 0 || tr.f.BurstExit > 0 {
			p := prob(mix(tr.seed, 0xB0B, int64(mode), int64(from), int64(to), int64(cnt)))
			if ps.bad {
				if p < tr.f.BurstExit {
					ps.bad = false
				}
			} else if p < tr.f.BurstEnter {
				ps.bad = true
			}
		}
		lat := base
		if tr.f.Jitter > 0 {
			lat += int64(mix(tr.seed, 0x717, int64(mode), int64(from), int64(to), int64(cnt)) % uint64(tr.f.Jitter+1))
		}
		arrive := attemptAt + lat
		lossP := tr.f.Loss
		if ps.bad {
			lossP = tr.f.BurstLoss
		}
		lost := lossP > 0 && prob(mix(tr.seed, 0x105, int64(mode), int64(from), int64(to), int64(cnt))) < lossP
		if !lost && !tr.isDown(to, arrive) {
			return arrive, i + 1, true
		}
		attemptAt += timeout
		timeout *= 2
		if timeout > tr.f.RetryCap {
			timeout = tr.f.RetryCap
		}
	}
	return 0, tr.f.MaxAttempts, false
}

// mix hashes the seed and coordinates into 64 avalanche bits
// (splitmix64 over a running fold) — the engine's only randomness
// source, a pure function of its arguments.
func mix(seed int64, vals ...int64) uint64 {
	z := uint64(seed) ^ 0x9E3779B97F4A7C15
	for _, v := range vals {
		z ^= uint64(v) + 0x9E3779B97F4A7C15 + (z << 6) + (z >> 2)
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
	}
	return z
}

// prob maps 64 hash bits to a uniform float in [0, 1).
func prob(h uint64) float64 { return float64(h>>11) / (1 << 53) }
