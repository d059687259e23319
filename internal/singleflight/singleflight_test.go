package singleflight

import (
	"errors"
	"sync"
	"testing"
)

// TestDoLoadsOnce drives Do the way its callers do: each load first
// looks in a cache the leader fills. However the callers interleave,
// whether they join the in-flight load or arrive after it retired, the
// expensive work runs exactly once and every caller gets its value.
func TestDoLoadsOnce(t *testing.T) {
	var g Group[int]
	var mu sync.Mutex
	cached, loads := 0, 0
	release := make(chan struct{})
	load := func() (int, error) {
		mu.Lock()
		if cached != 0 {
			mu.Unlock()
			return cached, nil
		}
		loads++
		mu.Unlock()
		<-release // hold the leader so other callers pile onto it
		mu.Lock()
		cached = 42
		mu.Unlock()
		return 42, nil
	}

	const callers = 16
	var started, done sync.WaitGroup
	started.Add(callers)
	done.Add(callers)
	for i := 0; i < callers; i++ {
		go func() {
			defer done.Done()
			started.Done()
			if v, err, _ := g.Do("k", load); err != nil || v != 42 {
				t.Errorf("Do = %d, %v; want 42", v, err)
			}
		}()
	}
	started.Wait()
	close(release)
	done.Wait()
	if loads != 1 {
		t.Fatalf("%d callers ran %d loads, want 1", callers, loads)
	}
	if len(g.calls) != 0 {
		t.Fatalf("%d calls left in flight", len(g.calls))
	}
}

// TestDoRetiresKey: a Group caches nothing, so a later Do for the same
// key runs a fresh load, and an error reaches its caller uncached.
func TestDoRetiresKey(t *testing.T) {
	var g Group[string]
	boom := errors.New("boom")
	if _, err, joined := g.Do("k", func() (string, error) { return "", boom }); !errors.Is(err, boom) || joined {
		t.Fatalf("Do = %v, joined %v; want boom from its own load", err, joined)
	}
	if v, err, joined := g.Do("k", func() (string, error) { return "fresh", nil }); err != nil || v != "fresh" || joined {
		t.Fatalf("Do after a retired load = %q, %v, joined %v; want a fresh load", v, err, joined)
	}
}

// TestDoPanicReleasesWaiters: a load that panics still retires its
// call, and a caller waiting on it gets an error, not a zero value.
func TestDoPanicReleasesWaiters(t *testing.T) {
	var g Group[*int]
	started, release := make(chan struct{}), make(chan struct{})
	go func() {
		defer func() { recover() }()
		g.Do("k", func() (*int, error) {
			close(started)
			<-release
			panic("load failed")
		})
	}()
	<-started
	waiter := make(chan error)
	go func() {
		v, err, joined := g.Do("k", func() (*int, error) { return new(int), nil })
		if joined && v != nil {
			err = errors.New("joined a panicked load and got a value")
		}
		waiter <- err
	}()
	close(release)
	// The waiter either joined the panicked load and sees errPanicked,
	// or arrived after it retired and ran its own load.
	if err := <-waiter; err != nil && !errors.Is(err, errPanicked) {
		t.Fatalf("waiter: %v", err)
	}
	if v, err, _ := g.Do("k", func() (*int, error) { return new(int), nil }); err != nil || v == nil {
		t.Fatalf("Do after a panicked load = %v, %v; want a fresh load", v, err)
	}
}
