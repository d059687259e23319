package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPoolRunsEverything checks that a batch larger than the pool
// completes exactly once per task.
func TestPoolRunsEverything(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var n atomic.Int64
	tasks := make([]func(), 100)
	for i := range tasks {
		tasks[i] = func() { n.Add(1) }
	}
	if err := p.Run(tasks); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := n.Load(); got != 100 {
		t.Fatalf("ran %d tasks, want 100", got)
	}
}

// TestPoolFairScheduling submits a long batch to a single-worker pool,
// then a short batch while the first is mid-flight; round-robin
// dispatch must let the short batch finish before the long one.
func TestPoolFairScheduling(t *testing.T) {
	p := NewPool(1)
	defer p.Close()

	started := make(chan struct{})     // first long task is running
	shortQueued := make(chan struct{}) // short batch is attached
	var order []string
	var mu sync.Mutex
	record := func(name string) {
		mu.Lock()
		order = append(order, name)
		mu.Unlock()
	}

	long := make([]func(), 4)
	long[0] = func() {
		close(started)
		<-shortQueued
		record("long")
	}
	for i := 1; i < len(long); i++ {
		long[i] = func() { record("long") }
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := p.Run(long); err != nil {
			t.Errorf("long Run: %v", err)
		}
	}()
	go func() {
		defer wg.Done()
		<-started
		short := []func(){func() { record("short") }}
		// The long batch still has 3 undispatched tasks; attach the
		// short batch and only then release the long task blocking the
		// single worker.
		go func() {
			// Run blocks until done, so release the worker from here,
			// once the pool reports both batches attached: the long one
			// (3 undispatched tasks) and the short one. The worker's
			// next dispatch then sees the short batch.
			for p.Stats().Batches < 2 {
				runtime.Gosched()
			}
			close(shortQueued)
		}()
		if err := p.Run(short); err != nil {
			t.Errorf("short Run: %v", err)
		}
	}()
	wg.Wait()

	if len(order) != 5 {
		t.Fatalf("recorded %d tasks, want 5: %v", len(order), order)
	}
	// With round-robin dispatch the short task runs at position 1 or 2,
	// never last.
	for i, name := range order {
		if name == "short" && i == len(order)-1 {
			t.Fatalf("short batch starved behind the long one: %v", order)
		}
	}
}

// TestPoolCloseDrains checks that Close waits for every accepted task
// (queued or in flight) and that Run afterwards is rejected.
func TestPoolCloseDrains(t *testing.T) {
	p := NewPool(2)
	var n atomic.Int64
	started := make(chan struct{})
	tasks := make([]func(), 50)
	tasks[0] = func() { close(started); n.Add(1) }
	for i := 1; i < len(tasks); i++ {
		tasks[i] = func() { n.Add(1) }
	}
	done := make(chan error)
	go func() { done <- p.Run(tasks) }()
	<-started // the batch is attached and in flight
	p.Close() // must drain the batch, not abandon it
	if err := <-done; err != nil {
		t.Fatalf("Run during Close: %v", err)
	}
	if got := n.Load(); got != 50 {
		t.Fatalf("Close drained %d tasks, want 50", got)
	}
	if err := p.Run([]func(){func() {}}); err != ErrPoolClosed {
		t.Fatalf("Run after Close = %v, want ErrPoolClosed", err)
	}
	if err := p.Run(nil); err != nil {
		t.Fatalf("empty Run after Close = %v, want nil", err)
	}
	p.Close() // idempotent
}

// TestPoolConcurrentBatches hammers one pool from many goroutines; run
// under -race this doubles as the data-race check.
func TestPoolConcurrentBatches(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var n atomic.Int64
	var wg sync.WaitGroup
	for b := 0; b < 16; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tasks := make([]func(), 25)
			for i := range tasks {
				tasks[i] = func() { n.Add(1) }
			}
			if err := p.Run(tasks); err != nil {
				t.Errorf("Run: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := n.Load(); got != 16*25 {
		t.Fatalf("ran %d tasks, want %d", got, 16*25)
	}
}

// TestCollectOnPool checks that Collect on a shared pool produces the
// same bytes as Collect on its own workers.
func TestCollectOnPool(t *testing.T) {
	sc := syntheticScenario()
	want, err := Collect(Serial(), sc)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(3)
	defer p.Close()
	got, err := Collect(&Runner{Pool: p}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("pool Collect returned %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: pool %v != serial %v", i, got[i], want[i])
		}
	}
}

// TestPoolStats: the depth snapshot tracks queued and active tasks —
// the signal the sweep service's admission layer exports on /metrics.
func TestPoolStats(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	if st := p.Stats(); st.Workers != 2 || st.Queued != 0 || st.Active != 0 || st.Batches != 0 {
		t.Fatalf("idle pool stats %+v", st)
	}

	started := make(chan struct{}, 8)
	release := make(chan struct{})
	tasks := make([]func(), 8)
	for i := range tasks {
		tasks[i] = func() {
			started <- struct{}{}
			<-release
		}
	}
	done := make(chan error, 1)
	go func() { done <- p.Run(tasks) }()
	<-started
	<-started // both workers busy, six tasks queued
	st := p.Stats()
	if st.Active != 2 || st.Queued != 6 || st.Batches != 1 {
		t.Fatalf("busy pool stats %+v, want active=2 queued=6 batches=1", st)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Active != 0 || st.Queued != 0 || st.Batches != 0 {
		t.Fatalf("drained pool stats %+v", st)
	}
}
