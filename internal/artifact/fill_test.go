package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestFillSingleflight(t *testing.T) {
	blob := []byte("remote blob")
	var calls atomic.Int32
	release := make(chan struct{})
	ns := NewStore(1 << 20).Namespace("results")
	ns.SetFill(func(key string) ([]byte, string, error) {
		calls.Add(1)
		<-release // hold the leader so every follower piles onto the flight
		return blob, digestOf(blob), nil
	})

	const goroutines = 16
	var started, done sync.WaitGroup
	started.Add(goroutines)
	done.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			defer done.Done()
			started.Done()
			v, ok := ns.Get("v=1/abc")
			if !ok || string(v) != string(blob) {
				t.Errorf("Get = %q, %v; want the filled blob", v, ok)
			}
		}()
	}
	started.Wait()
	close(release)
	done.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("concurrent misses performed %d remote fetches, want exactly 1 (singleflight)", n)
	}
	st := ns.Stats()
	if st.Fills != 1 || st.Hits != goroutines || st.Misses != 0 {
		t.Fatalf("stats = %+v; want 1 fill, %d hits, 0 misses", st, goroutines)
	}
	// The write-through means the next Get is a plain local hit.
	ns.SetFill(func(string) ([]byte, string, error) {
		t.Error("fill called again after write-through")
		return nil, "", ErrFillUnavailable
	})
	if _, ok := ns.Get("v=1/abc"); !ok {
		t.Fatal("filled blob not served locally afterwards")
	}
}

// TestFillLateMissReadsWriteThrough pins the interleaving behind the
// intermittent TestFillSingleflight failure: a Get misses locally,
// then a leader fills, writes through and retires its flight before
// that Get reaches the flight lookup. The late Get must be served from
// the local tiers, not fetch the key from the peer a second time.
func TestFillLateMissReadsWriteThrough(t *testing.T) {
	blob := []byte("remote blob")
	var calls atomic.Int32
	ns := NewStore(1 << 20).Namespace("results")
	ns.SetFill(func(key string) ([]byte, string, error) {
		calls.Add(1)
		return blob, digestOf(blob), nil
	})
	var hooked atomic.Bool
	missed, resume := make(chan struct{}), make(chan struct{})
	ns.testHookMissed = func(string) {
		if hooked.CompareAndSwap(false, true) {
			close(missed)
			<-resume
		}
	}

	late := make(chan []byte)
	go func() {
		v, _ := ns.Get("v=1/abc")
		late <- v
	}()
	<-missed // the late Get has missed locally and waits before the flight lookup
	if v, ok := ns.Get("v=1/abc"); !ok || string(v) != string(blob) {
		t.Fatalf("leader Get = %q, %v; want the filled blob", v, ok)
	}
	close(resume)
	if v := <-late; string(v) != string(blob) {
		t.Fatalf("late Get = %q; want the filled blob", v)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("a late miss performed %d remote fetches in all, want exactly 1", n)
	}
	if st := ns.Stats(); st.Fills != 1 || st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("stats = %+v; want 1 fill, 2 hits, 0 misses", st)
	}
}

func TestFillHashMismatchRejected(t *testing.T) {
	ns := NewStore(1 << 20).Namespace("results")
	corrupt := []byte("bit-flipped on the wire")
	ns.SetFill(func(key string) ([]byte, string, error) {
		return corrupt, digestOf([]byte("what the owner promised")), nil
	})
	if _, ok := ns.Get("k"); ok {
		t.Fatal("hash-mismatched remote blob was accepted")
	}
	if st := ns.Stats(); st.FillRejects != 1 || st.Fills != 0 {
		t.Fatalf("stats = %+v; want the blob counted as rejected", st)
	}
	// The rejected bytes must not have been written through.
	if _, ok := ns.GetLocal("k"); ok {
		t.Fatal("rejected blob leaked into the local store")
	}
	// The caller's fallback is local compute: a subsequent Put of the
	// real bytes wins and is served from then on.
	real := []byte("locally recomputed")
	ns.Put("k", real)
	if v, ok := ns.Get("k"); !ok || string(v) != string(real) {
		t.Fatalf("after local recompute: Get = %q, %v", v, ok)
	}
}

func TestFillEmptyDigestRejected(t *testing.T) {
	ns := NewStore(1 << 20).Namespace("results")
	ns.SetFill(func(key string) ([]byte, string, error) {
		return []byte("no digest advertised"), "", nil
	})
	if _, ok := ns.Get("k"); ok {
		t.Fatal("blob without a content digest was accepted")
	}
	if st := ns.Stats(); st.FillRejects != 1 {
		t.Fatalf("stats = %+v; want a reject", st)
	}
}

func TestFillUnavailableIsCleanMiss(t *testing.T) {
	ns := NewStore(1 << 20).Namespace("results")
	ns.SetFill(func(key string) ([]byte, string, error) {
		return nil, "", ErrFillUnavailable
	})
	if _, ok := ns.Get("k"); ok {
		t.Fatal("unexpected hit")
	}
	st := ns.Stats()
	if st.FillErrors != 0 || st.FillRejects != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v; ErrFillUnavailable must be a plain miss", st)
	}
	ns.SetFill(func(key string) ([]byte, string, error) {
		return nil, "", fmt.Errorf("peer exploded")
	})
	if _, ok := ns.Get("k"); ok {
		t.Fatal("unexpected hit")
	}
	if st := ns.Stats(); st.FillErrors != 1 {
		t.Fatalf("stats = %+v; a real fill failure must count", st)
	}
}

func TestFillWritesThroughToDiskTier(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStoreWithDisk(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte("fetched from the owner")
	ns := store.Namespace("results")
	ns.SetFill(func(key string) ([]byte, string, error) {
		return blob, digestOf(blob), nil
	})
	if v, ok := ns.Get("v=1/k"); !ok || string(v) != string(blob) {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if st := ns.Stats(); st.DiskPuts != 1 {
		t.Fatalf("stats = %+v; fetched blob must persist to the disk tier", st)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	// A fresh process over the same directory serves the fetched blob
	// without any peer: ownership migration is self-healing.
	store2, err := NewStoreWithDisk(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	ns2 := store2.Namespace("results")
	if v, ok := ns2.GetLocal("v=1/k"); !ok || string(v) != string(blob) {
		t.Fatalf("reopened store: GetLocal = %q, %v", v, ok)
	}
}

func TestReplicateHookFiresOnPutOnly(t *testing.T) {
	ns := NewStore(1 << 20).Namespace("results")
	var replicated []string
	ns.SetReplicate(func(key string, value []byte) {
		replicated = append(replicated, key)
	})
	ns.Put("computed", []byte("x"))
	ns.PutLocal("fetched", []byte("y"))
	if len(replicated) != 1 || replicated[0] != "computed" {
		t.Fatalf("replicated = %v; want only the Put key (PutLocal must not echo)", replicated)
	}
	// Fill write-throughs go through PutLocal too.
	blob := []byte("fill blob")
	ns.SetFill(func(key string) ([]byte, string, error) { return blob, digestOf(blob), nil })
	if _, ok := ns.Get("filled"); !ok {
		t.Fatal("fill failed")
	}
	if len(replicated) != 1 {
		t.Fatalf("replicated = %v; a filled blob must not be re-replicated", replicated)
	}
}
