// Package singleflight runs at most one load per key at a time: the
// first caller of Do for a key becomes the leader and runs its load,
// and every caller that arrives while the load runs waits for it and
// shares its result. It is the one singleflight of the repository. The
// derived-artifact caches use it to build each topology and ball
// profile at most once per process (DESIGN.md §9–§10), and the
// artifact store uses it to fetch a key from its owning peer at most
// once at a time.
//
// A Group forgets a key as soon as its load returns; it caches
// nothing. A caller that missed its own cache before Do may therefore
// become a new leader just after a previous leader filled that cache
// and retired. Each load must look in the cache once more before it
// does the expensive work.
package singleflight

import (
	"errors"
	"sync"
)

// errPanicked is what waiters receive when the leader's load panicked.
var errPanicked = errors.New("singleflight: load panicked")

// Group deduplicates concurrent loads per key. The zero value is
// ready to use; a Group must not be copied after first use.
type Group[V any] struct {
	mu    sync.Mutex
	calls map[string]*call[V]
}

// call is one in-flight load all concurrent askers share.
type call[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// Do runs load for key unless a load for key is already in flight, in
// which case it waits for that load instead. It returns the value and
// error of the load that ran; joined reports whether this caller
// waited on another caller's load rather than running its own.
func (g *Group[V]) Do(key string, load func() (V, error)) (v V, err error, joined bool) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.v, c.err, true
	}
	if g.calls == nil {
		g.calls = make(map[string]*call[V])
	}
	c := &call[V]{done: make(chan struct{}), err: errPanicked}
	g.calls[key] = c
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.v, c.err = load()
	return c.v, c.err, false
}
