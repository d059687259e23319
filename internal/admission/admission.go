// Package admission implements the load-shedding primitives of the
// sweep service (DESIGN.md §11): a per-client token-bucket rate
// limiter with a bounded client table. The HYBRID model's defining
// move is a hard per-round capacity on the global channel — Definition
// 1's O(n log n)-bit budget — and the serving layer mirrors it:
// instead of letting an overloaded hybridd queue unboundedly, each
// client draws submit tokens from a bucket that refills at a fixed
// rate, and requests beyond the budget are shed immediately with a
// retry hint rather than degrading every tenant.
//
// The limiter is deliberately self-contained (stdlib only, injectable
// clock for tests) and memory-bounded: client buckets live in an LRU
// table of fixed capacity, so an open service scanning random source
// addresses cannot grow the table without bound. Evicting a stale
// bucket re-admits that client at full burst — the cost of the bound
// is a little extra generosity toward clients idle long enough to be
// evicted, never extra strictness.
package admission

import (
	"container/list"
	"math"
	"sync"
	"time"
)

// DefaultMaxClients bounds the bucket table when NewLimiter is given a
// non-positive capacity.
const DefaultMaxClients = 4096

// Limiter is a per-key token-bucket rate limiter. The zero value is
// not usable; construct with NewLimiter. Safe for concurrent use.
type Limiter struct {
	rate       float64 // tokens per second
	burst      float64 // bucket capacity
	maxClients int

	// Now is the clock (defaults to time.Now); tests may replace it
	// before first use.
	Now func() time.Time

	mu      sync.Mutex
	buckets map[string]*list.Element
	lru     *list.List // front = most recently used
}

// bucket is one client's token state.
type bucket struct {
	key    string
	tokens float64
	last   time.Time
}

// NewLimiter returns a limiter granting each client rate tokens per
// second with the given burst capacity (values < 1 are raised to 1 so
// a configured limiter always admits something), tracking at most
// maxClients distinct clients (≤ 0 means DefaultMaxClients).
func NewLimiter(rate float64, burst int, maxClients int) *Limiter {
	if burst < 1 {
		burst = 1
	}
	if maxClients <= 0 {
		maxClients = DefaultMaxClients
	}
	return &Limiter{
		rate:       rate,
		burst:      float64(burst),
		maxClients: maxClients,
		Now:        time.Now,
		buckets:    make(map[string]*list.Element),
		lru:        list.New(),
	}
}

// Allow spends one token from key's bucket if available. When the
// bucket is empty it reports false together with the duration after
// which a retry is guaranteed a token (assuming no competing spender
// on the same key).
func (l *Limiter) Allow(key string) (ok bool, retryAfter time.Duration) {
	now := l.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	var b *bucket
	if el, found := l.buckets[key]; found {
		l.lru.MoveToFront(el)
		b = el.Value.(*bucket)
		b.tokens = math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
		b.last = now
	} else {
		b = &bucket{key: key, tokens: l.burst, last: now}
		l.buckets[key] = l.lru.PushFront(b)
		for len(l.buckets) > l.maxClients {
			back := l.lru.Back()
			l.lru.Remove(back)
			delete(l.buckets, back.Value.(*bucket).key)
		}
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	if l.rate <= 0 {
		return false, time.Hour // effectively never; a zero-rate limiter only serves its initial burst
	}
	// The extra nanosecond absorbs float rounding in the refill
	// arithmetic: waiting exactly the hint must leave the bucket at a
	// full token, not a hair under one.
	return false, time.Duration(math.Ceil((1-b.tokens)/l.rate*float64(time.Second))) + 1
}
