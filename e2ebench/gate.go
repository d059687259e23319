package main

// The correctness gate: every operation the benchmark performs (a
// sweep, an HTTP request, a cache-invariant check) is counted as
// attempted, and any wrong byte, broken invariant or non-2xx response
// counts it as failed. A run with a failed operation prints
// "correct": false.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"sort"
	"sync"
)

type gate struct {
	log io.Writer

	mu        sync.Mutex
	attempted int
	failed    int
	logged    int
}

// op records one operation; it fails when any of errs is non-nil.
func (g *gate) op(what string, errs ...error) bool {
	err := errors.Join(errs...)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	if err == nil {
		return true
	}
	g.failed++
	if g.logged < 20 {
		g.logged++
		fmt.Fprintf(g.log, "FAILED %s: %v\n", what, err)
	}
	return false
}

// check returns an error describing a violated invariant.
func check(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// digest is the sha256 of one rendered document.
type digest [sha256.Size]byte

func (d digest) String() string { return fmt.Sprintf("%x", d[:6]) }

// digests maps "scenario/format" to the document's digest.
type digests map[string]digest

func docKey(scenario, format string) string { return scenario + "/" + format }

// match compares one document against the reference.
func (ref digests) match(scenario, format string, got digest) error {
	want, ok := ref[docKey(scenario, format)]
	if !ok {
		return fmt.Errorf("%s/%s: no reference digest", scenario, format)
	}
	if got != want {
		return fmt.Errorf("%s/%s: digest %s, reference %s", scenario, format, got, want)
	}
	return nil
}

// hasher is an io.Writer that digests what it is given.
type hasher struct{ h hash.Hash }

func newHasher() *hasher { return &hasher{h: sha256.New()} }

func (h *hasher) Write(p []byte) (int, error) { return h.h.Write(p) }

func (h *hasher) digest() digest {
	var d digest
	copy(d[:], h.h.Sum(nil))
	return d
}

// reassemble digests SSE cell events in canonical cell order, which
// must reproduce the static jsonl document byte for byte.
func reassemble(rows map[int][]string) digest {
	idx := make([]int, 0, len(rows))
	for i := range rows {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	h := newHasher()
	for _, i := range idx {
		for _, line := range rows[i] {
			io.WriteString(h, line)
			io.WriteString(h, "\n")
		}
	}
	return h.digest()
}
