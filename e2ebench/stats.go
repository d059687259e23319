package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// stdErr is the standard error of the mean of xs (0 below two samples).
func stdErr(xs []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	mean := sum(xs) / n
	ss := 0.0
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/(n-1)) / math.Sqrt(n)
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// totalAllocMB is the cumulative heap allocation so far.
func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// heapLiveMB is the heap still reachable after a full collection.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// meter brackets one timed phase: wall, CPU and allocation deltas.
// Every phase starts from a collected heap so that garbage left by
// the previous phase is not charged to this one.
type meter struct {
	t0    time.Time
	cpu0  float64
	alloc float64
	steal float64
}

func startMeter() meter {
	runtime.GC()
	return meter{t0: time.Now(), cpu0: cpuSeconds(), alloc: totalAllocMB(), steal: stealSeconds()}
}

// sample is one phase's wall seconds, CPU seconds and allocated MB,
// and the CPU time the host took from the machine meanwhile (summed
// over all CPUs; diagnostic only).
type sample struct{ wall, cpu, allocMB, steal float64 }

func (m meter) stop() sample {
	return sample{
		wall:    time.Since(m.t0).Seconds(),
		cpu:     cpuSeconds() - m.cpu0,
		allocMB: totalAllocMB() - m.alloc,
		steal:   stealSeconds() - m.steal,
	}
}

// stealSeconds is the machine-wide steal time so far, from the
// "cpu" line of /proc/stat (0 where that is unavailable).
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// timeLeft reports whether the window ending at deadline is still open.
func timeLeft(deadline time.Time) bool { return time.Now().Before(deadline) }
