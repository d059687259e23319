package admission

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// clock is a manually advanced time source.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *clock { return &clock{t: time.Unix(1000, 0)} }

func (c *clock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestBurstThenShed(t *testing.T) {
	ck := newClock()
	l := NewLimiter(1, 3, 0)
	l.Now = ck.now

	for i := 0; i < 3; i++ {
		if ok, _ := l.Allow("c"); !ok {
			t.Fatalf("burst request %d shed", i)
		}
	}
	ok, retry := l.Allow("c")
	if ok {
		t.Fatal("over-burst request admitted")
	}
	if retry <= 0 || retry > time.Second+time.Millisecond {
		t.Fatalf("retry hint %v, want ≈1s at 1 token/s", retry)
	}

	// After the hinted wait a retry succeeds.
	ck.advance(retry)
	if ok, _ := l.Allow("c"); !ok {
		t.Fatal("retry after hinted duration still shed")
	}
}

func TestRefillCapsAtBurst(t *testing.T) {
	ck := newClock()
	l := NewLimiter(10, 2, 0)
	l.Now = ck.now
	for i := 0; i < 2; i++ {
		l.Allow("c")
	}
	ck.advance(time.Hour) // refills far beyond burst
	for i := 0; i < 2; i++ {
		if ok, _ := l.Allow("c"); !ok {
			t.Fatalf("request %d after long idle shed", i)
		}
	}
	if ok, _ := l.Allow("c"); ok {
		t.Fatal("idle time granted more than burst")
	}
}

func TestClientsIndependent(t *testing.T) {
	l := NewLimiter(1, 1, 0)
	l.Now = newClock().now
	if ok, _ := l.Allow("a"); !ok {
		t.Fatal("a shed")
	}
	if ok, _ := l.Allow("b"); !ok {
		t.Fatal("b shed after a spent its token")
	}
	if ok, _ := l.Allow("a"); ok {
		t.Fatal("a admitted twice within one refill")
	}
}

func TestClientTableBounded(t *testing.T) {
	ck := newClock()
	l := NewLimiter(1, 1, 8)
	l.Now = ck.now
	for i := 0; i < 100; i++ {
		l.Allow(fmt.Sprintf("client-%d", i))
	}
	if got := len(l.buckets); got != 8 {
		t.Fatalf("tracked %d clients, want bound 8", got)
	}
	// Eviction re-admits at full burst (generous, never stricter).
	if ok, _ := l.Allow("client-0"); !ok {
		t.Fatal("evicted client not re-admitted at full burst")
	}
}

func TestZeroRateServesOnlyBurst(t *testing.T) {
	ck := newClock()
	l := NewLimiter(0, 2, 0)
	l.Now = ck.now
	l.Allow("c")
	l.Allow("c")
	ok, retry := l.Allow("c")
	if ok {
		t.Fatal("zero-rate limiter refilled")
	}
	if retry < time.Hour {
		t.Fatalf("zero-rate retry hint %v, want effectively-never", retry)
	}
}

func TestConcurrentAllow(t *testing.T) {
	l := NewLimiter(1000, 100, 16)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("c%d", i%4)
			for j := 0; j < 500; j++ {
				l.Allow(key)
			}
		}(i)
	}
	wg.Wait()
	if len(l.buckets) != 4 {
		t.Fatalf("clients = %d", len(l.buckets))
	}
}
