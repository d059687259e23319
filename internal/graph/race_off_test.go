//go:build !race

package graph

// raceEnabled reports whether the race detector is active; tests drop
// their largest single-goroutine inputs under it.
const raceEnabled = false
