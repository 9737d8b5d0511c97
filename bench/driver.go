package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hypre/internal/combine"
	"hypre/internal/workload"
)

// The load driver: a fixed pool of min(nproc, 2) workers, each on its own
// persistent connection and writing to its own ledger (no shared lock per
// sample), with a sort-based percentile. workload.DriveHTTP is not used: its
// percentile is an insertion sort, quadratic at the ~10⁵–10⁶ samples a
// hot-read window yields, it takes a global mutex per sample, and its open
// loop spawns a goroutine per arrival.

// driverWorkers is the pool size: load comes from one process with no more
// workers/connections than CPUs.
func driverWorkers() int {
	return min(runtime.NumCPU(), 2)
}

// target executes one op.
type target interface {
	do(ctx context.Context, o *op) error
}

// httpTarget sends ops to the served App; an op succeeds on a 2xx answer.
type httpTarget struct{ s *server }

func (t httpTarget) do(ctx context.Context, o *op) error {
	status, _, _, err := t.s.roundTrip(ctx, http.MethodPost, o.path(), o.body, false)
	if err != nil {
		return err
	}
	if status < 200 || status > 299 {
		return fmt.Errorf("POST %s: status %d", o.path(), status)
	}
	return nil
}

// pepsTarget runs the paper's algorithm as a library call: a fresh
// evaluator, bulk materialization, the pair table, then the sharded DFS.
type pepsTarget struct{ net *workload.Network }

func (t pepsTarget) do(_ context.Context, o *op) error {
	res, err := runPEPS(t.net, o)
	if err != nil {
		return err
	}
	if len(res.Tuples) == 0 {
		return fmt.Errorf("PEPS k=%d returned no tuples", o.k)
	}
	return nil
}

func runPEPS(net *workload.Network, o *op) (combine.TopKResult, error) {
	ev := combine.NewEvaluator(net.DB, workload.BaseQuery, "dblp.pid")
	if err := ev.MaterializeAll(o.prefs); err != nil {
		return combine.TopKResult{}, err
	}
	pt, err := combine.BuildPairTable(o.prefs, ev)
	if err != nil {
		return combine.TopKResult{}, err
	}
	return combine.PEPSSharded(o.prefs, pt, ev, o.k, combine.Complete)
}

// ledger is one worker's private record of a window.
type ledger struct {
	primary   []int64 // ns per OK query / PEPS op
	mutate    []int64 // ns per OK mutate ack
	attempted int
	failed    int
	firstErr  error
	lastEnd   time.Time
}

func (l *ledger) record(o *op, lat time.Duration, end time.Time, err error) {
	l.attempted++
	l.lastEnd = end
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
		return
	}
	if o.kind == opMutate {
		l.mutate = append(l.mutate, int64(lat))
	} else {
		l.primary = append(l.primary, int64(lat))
	}
}

// loadResult is a finished window.
type loadResult struct {
	ledger                // merged over the workers; samples sorted
	elapsed time.Duration // window start to the last completion
	cpu     time.Duration // process user+sys CPU over the same interval
	gcPause time.Duration
	lag     []int64 // open loop: ns each arrival was enqueued behind schedule, sorted
	backlog int     // open loop: arrivals not yet started at window end
}

// ok is the number of operations that completed successfully.
func (r *loadResult) ok() int { return len(r.primary) + len(r.mutate) }

// percentile reads the p-quantile of an ascending sample (0 when empty).
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(p*float64(len(sorted)-1))])
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func gcPauseTotal() time.Duration {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return time.Duration(ms.PauseTotalNs)
}

// drive runs p.ops against tg for the window d and returns the merged
// ledger. Closed loop: each worker issues its next op when the previous one
// completes, until d has passed. Open loop: see driveOpen.
func drive(ctx context.Context, tg target, p *plan, d time.Duration) *loadResult {
	workers := driverWorkers()
	if !p.http {
		// PEPSSharded fans out to GOMAXPROCS itself: one caller.
		workers = 1
	}
	ledgers := make([]ledger, workers)
	res := &loadResult{}
	pause0, cpu0 := gcPauseTotal(), processCPU()
	start := time.Now()
	if p.open {
		driveOpen(ctx, tg, p.ops, d, start, ledgers, res)
	} else {
		driveClosed(ctx, tg, p, start.Add(d), ledgers)
	}
	end := start
	for i := range ledgers {
		l := &ledgers[i]
		res.primary = append(res.primary, l.primary...)
		res.mutate = append(res.mutate, l.mutate...)
		res.attempted += l.attempted
		res.failed += l.failed
		if res.firstErr == nil {
			res.firstErr = l.firstErr
		}
		if l.lastEnd.After(end) {
			end = l.lastEnd
		}
	}
	res.elapsed = end.Sub(start)
	res.cpu = processCPU() - cpu0
	res.gcPause = gcPauseTotal() - pause0
	slices.Sort(res.primary)
	slices.Sort(res.mutate)
	slices.Sort(res.lag)
	return res
}

func driveClosed(ctx context.Context, tg target, p *plan, deadline time.Time, ledgers []ledger) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range ledgers {
		wg.Add(1)
		go func(l *ledger) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(p.ops) {
					if !p.cycle {
						return
					}
					i %= len(p.ops)
				}
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				o := &p.ops[i]
				err := tg.do(ctx, o)
				end := time.Now()
				l.record(o, end.Sub(t0), end, err)
			}
		}(&ledgers[w])
	}
	wg.Wait()
}

// driveOpen sends every op at its scheduled arrival regardless of how fast
// answers come back: one generator goroutine walks the schedule and hands
// arrivals to the same fixed worker pool, and each latency is charged from
// the op's scheduled time, so a stall is paid by every arrival queued behind
// it. res.lag records how late the generator itself ran.
func driveOpen(ctx context.Context, tg target, ops []op, d time.Duration, start time.Time, ledgers []ledger, res *loadResult) {
	// Sized to the number of sends: the generator must never block on a
	// slow server, or the loop would close.
	queue := make(chan int, len(ops))
	res.lag = make([]int64, len(ops))
	var started atomic.Int64
	var wg sync.WaitGroup
	for w := range ledgers {
		wg.Add(1)
		go func(l *ledger) {
			defer wg.Done()
			for i := range queue {
				started.Add(1)
				o := &ops[i]
				err := tg.do(ctx, o)
				end := time.Now()
				l.record(o, end.Sub(start.Add(o.at)), end, err)
			}
		}(&ledgers[w])
	}
	for i := range ops {
		due := start.Add(ops[i].at)
		sleepUntil(due)
		res.lag[i] = int64(time.Since(due))
		queue <- i
	}
	close(queue)
	sleepUntil(start.Add(d))
	res.backlog = len(ops) - int(started.Load())
	wg.Wait()
}

// sleepUntil sleeps most of the way and yields through the last stretch:
// time.Sleep alone overshoots by the timer granularity, which would show up
// as generator lag.
func sleepUntil(t time.Time) {
	const spin = 200 * time.Microsecond
	if d := time.Until(t) - spin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}
