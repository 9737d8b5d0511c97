package main

import (
	"slices"
	"sync"
	"time"
)

// Machine-speed calibration. On a shared VM the host's speed drifts by ±20%
// over tens of seconds, and every timing of a run drifts with it (over ten
// runs, cold-read's p50 and the time of a fixed second of unrelated work
// correlate at 0.8). A window's timings are therefore reported at a reference
// speed: a fixed kernel is timed right before and right after the window, and
// each timing is scaled by kernelRef over the mean of the two. That halves
// the run-to-run spread (cold-read p50: 18% → 8–10%) without touching what a
// change to the program can move, because the kernel runs no code of the
// program. driver.machine_speed is the factor; a raw timing is the reported
// one divided by it.

// kernelRef is the kernel's duration on the machine the reference numbers in
// README.md come from, when that machine is quiet. It only fixes the unit:
// comparisons between two commits on one machine do not depend on it.
const kernelRef = 950 * time.Millisecond

// kernelRounds makes one timing about a second long at full scale: timings
// of a tenth of that follow scheduler jitter, not the machine's speed (they
// correlated with nothing).
const kernelRounds = 4

// kernelSink keeps the compiler from discarding the kernel's work.
var kernelSink [8]uint64

// kernel runs a fixed piece of work — a pseudo-random fill, a dependent
// random walk and a sort over words uint64s (16 MiB at full scale: larger
// than the caches, like the store) — on every driver worker at once and
// returns how long the slowest took. The buffers are allocated before the
// clock starts, so the timed part allocates nothing and does not depend on
// the heap the program left behind; they are garbage on return, so they do
// not count towards live_heap_mb.
func kernel(words int) time.Duration {
	bufs := make([][]uint64, driverWorkers())
	for i := range bufs {
		bufs[i] = make([]uint64, words)
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for w, vals := range bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(0x9e3779b97f4a7c15)
			var sum, j uint64
			for round := 0; round < kernelRounds; round++ {
				for i := range vals {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					vals[i] = x
				}
				for range vals {
					j = vals[j%uint64(words)]
					sum += j
				}
				slices.Sort(vals)
			}
			kernelSink[w%len(kernelSink)] = sum + vals[words/2]
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// machineSpeed turns the kernel timings around a window into the factor its
// timings are scaled by: above 1 on a machine faster than the reference.
func machineSpeed(before, after time.Duration) float64 {
	return float64(kernelRef) / (float64(before+after) / 2)
}
