package hybridnet

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

// TestServerCapacityShed: the bounded running-sweep count sheds the
// submission that exceeds it with *CapacityError and a retry hint,
// instead of queueing it. A blocking task holds the one-worker pool
// until the shed is seen, so the first sweep is still running when the
// second submission arrives, however fast its cells would run.
func TestServerCapacityShed(t *testing.T) {
	srv, err := NewServer(ServerConfig{Workers: 1, MaxActive: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	held, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	free := func() { releaseOnce.Do(func() { close(release) }) }
	defer free() // before Close, which waits for the held task
	blocker := make(chan error, 1)
	go func() { blocker <- srv.pool.Run([]func(){func() { close(held); <-release }}) }()
	<-held

	pathReq := SweepRequest{Scenario: "nq", Families: []string{"path"}, N: 512}
	cycleReq := SweepRequest{Scenario: "nq", Families: []string{"cycle"}, N: 512}
	first, err := srv.Submit(pathReq)
	if err != nil {
		t.Fatal(err)
	}
	// The first sweep's cells wait behind the held worker.
	for srv.pool.Stats().Queued == 0 {
		runtime.Gosched()
	}
	_, err = srv.Submit(cycleReq)
	var capErr *CapacityError
	if !errors.As(err, &capErr) {
		t.Fatalf("second concurrent submit = %v, want CapacityError", err)
	}
	if capErr.RetryAfter <= 0 {
		t.Fatalf("CapacityError without a retry hint: %+v", capErr)
	}
	// Resubmitting the running sweep joins it rather than being shed.
	st, err := srv.Submit(pathReq)
	if err != nil || !st.Reused {
		t.Fatalf("join of running sweep = %+v, %v", st, err)
	}

	free()
	if err := <-blocker; err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Wait(first.ID); err != nil {
		t.Fatal(err)
	}
	// Capacity freed: the shed sweep is admitted now.
	if _, err := srv.Submit(cycleReq); err != nil {
		t.Fatalf("submit after capacity freed: %v", err)
	}
}
