package async

import (
	"math/rand"
	"testing"
)

// TestFastPathMatchesWalk: on fault-free profiles (no loss, burst chain
// or jitter), with and without churn and with spread base latencies,
// deliverAt's analytic fast path must schedule every message exactly as
// the retry walk does — same arrival tick, attempts and outcome — over
// random (from, to, mode, now), including sends into a crash window.
func TestFastPathMatchesWalk(t *testing.T) {
	g := testGraph(t, 64, 5)
	spread := Faults{LatencyMin: 1, LatencyMax: 4, GlobalLatencyMin: 2, GlobalLatencyMax: 7}
	churnSpread := spread
	churnSpread.ChurnRate = 0.5
	profiles := map[string]Faults{
		"none":         {},
		"spread":       spread,
		"churn":        ChurnProfile(0.5),
		"churn+spread": churnSpread,
	}
	for name, f := range profiles {
		t.Run(name, func(t *testing.T) {
			f.defaults()
			fast := newTransport(g, 3, f)
			ref := newTransport(g, 3, f)
			rng := rand.New(rand.NewSource(9))
			intoDown := 0
			for i := 0; i < 20000; i++ {
				from, to := rng.Intn(g.N()), rng.Intn(g.N())
				mode := Mode(rng.Intn(2))
				now := rng.Int63n(128)
				at, attempts, ok := fast.deliverAt(from, to, mode, now)
				wantAt, wantAttempts, wantOK := ref.walk(from, to, mode, now)
				if at != wantAt || attempts != wantAttempts || ok != wantOK {
					t.Fatalf("%d→%d %s at %d: fast path (%d, %d, %v), walk (%d, %d, %v)",
						from, to, mode, now, at, attempts, ok, wantAt, wantAttempts, wantOK)
				}
				if attempts > 1 {
					intoDown++
				}
			}
			if f.ChurnRate > 0 && intoDown == 0 {
				t.Fatal("no send landed in a crash window; the churn case went unexercised")
			}
		})
	}
}
