package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// processStart anchors setup_s: set-up is charged from process start, not
// from wherever main got to before it looked at the clock.
var processStart = time.Now()

// setupReps is how often an untraced run sets up (build the store, boot the
// server, store the sessions, warm up); setup_s is the median, the last
// set-up is the one measured.
const setupReps = 3

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	sc       scale
}

// stage is a workload set up and warm: the next request is the first
// measured one.
type stage struct {
	lab  *lab
	plan *plan
	srv  *server // nil for peps-direct
	tg   target
}

func (st *stage) close() error {
	if st.srv == nil {
		return nil
	}
	return st.srv.close()
}

// setUp builds the store from the seed, derives the plan (trimmed to the
// traced replay when replay is set), boots the server and stores the sessions
// over the wire, and warms up.
func setUp(ctx context.Context, cfg runConfig, replay bool) (*stage, error) {
	st := &stage{}
	var err error
	if st.lab, err = buildLab(cfg.sc, cfg.seed, nil); err != nil {
		return nil, err
	}
	if st.plan, err = buildPlan(cfg.workload, st.lab, cfg.sc, cfg.seed, cfg.seconds); err != nil {
		return nil, err
	}
	if replay {
		st.plan.forReplay(cfg.sc)
	}
	// Only the plan needed the preferences and the graph; dropping them
	// leaves live_heap_mb to the store, the serving stack and the driver.
	st.lab.prefs, st.lab.graph = nil, nil
	if !st.plan.http {
		st.tg = pepsTarget{st.lab.net}
	} else {
		if st.srv, err = bootServer(st.lab.net, st.plan.cacheBytes, driverWorkers()); err != nil {
			return nil, err
		}
		st.tg = httpTarget{st.srv}
		if err = st.srv.putSessions(ctx, st.plan.sessions); err != nil {
			return nil, errors.Join(err, st.close())
		}
	}
	if err = st.warmUp(ctx, cfg.sc); err != nil {
		return nil, errors.Join(err, st.close())
	}
	return st, nil
}

// warmUp lets caches fill and lazy set-up finish, so the window measures the
// steady state. hot-read and mixed-rw evaluate every fingerprint the window
// can ask for; peps-direct runs a few ops so the store's lazily built join
// plumbing exists; cold-read runs batches of never-repeated profiles until
// the cache's predicate-footprint registry has all but stopped growing, so
// the window measures evaluation, not first-sight predicate scans.
func (st *stage) warmUp(ctx context.Context, sc scale) error {
	once := func(ops []op) error {
		res := drive(ctx, st.tg, &plan{http: st.plan.http, ops: ops}, time.Hour)
		if res.failed > 0 {
			return fmt.Errorf("warm-up: %d of %d ops failed: %w", res.failed, res.attempted, res.firstErr)
		}
		return nil
	}
	switch st.plan.name {
	case "cold-read":
		return coldWarmUp(sc, st.plan.warm, &st.srv.app.Server().Counters().FootprintScans, once)
	case "peps-direct":
		return once(st.plan.ops[:4])
	default:
		return once(st.plan.warm)
	}
}

// coldWarmUp runs cold-read's warm-up batches through run until a batch finds
// under 2% of its predicates new to the footprint registry (scans counts the
// registrations), or the batches run out.
func coldWarmUp(sc scale, warm []op, scans *atomic.Int64, run func([]op) error) error {
	for b := 0; b < sc.coldWarmMax; b++ {
		batch := warm[b*sc.coldWarmBatch : (b+1)*sc.coldWarmBatch]
		before := scans.Load()
		if err := run(batch); err != nil {
			return err
		}
		preds := 0
		for i := range batch {
			preds += len(batch[i].prefs)
		}
		if float64(scans.Load()-before) < 0.02*float64(preds) {
			break
		}
	}
	return nil
}

// loadRun is a measured window with its answer check.
type loadRun struct {
	res      *loadResult
	open     bool
	speed    float64 // machine speed around the window, see calibrate.go
	check    checkResult
	liveHeap uint64
}

// runLoad drives the window between two timings of the calibration kernel,
// then — at quiescence — measures the live heap and checks the answers.
func runLoad(ctx context.Context, st *stage, cfg runConfig) loadRun {
	lr := loadRun{open: st.plan.open}
	before := kernel(cfg.sc.kernelWords)
	lr.res = drive(ctx, st.tg, st.plan, time.Duration(cfg.seconds*float64(time.Second)))
	lr.speed = machineSpeed(before, kernel(cfg.sc.kernelWords))
	lr.liveHeap = liveHeap()
	if st.srv != nil {
		lr.check = checkServed(ctx, st.srv, st.plan)
	} else {
		lr.check = checkPEPS(st.lab.net, st.plan)
	}
	return lr
}

// outcome is what a run hands to main: every value measured, the sample
// count behind each statistic, and the failure tally.
type outcome struct {
	vals      map[string]float64
	samples   map[string]int
	attempted int
	failed    int
	errs      []error
	opsHash   string
}

// add folds a window and its check into the outcome: the end-to-end values,
// with every timing scaled to the reference machine speed, and the driver.*
// values, as measured, both from the same window.
func (o *outcome) add(lr loadRun) {
	r := lr.res
	o.attempted += r.attempted + lr.check.attempted
	o.failed += r.failed + lr.check.failed
	if r.firstErr != nil {
		o.errs = append(o.errs, fmt.Errorf("window: %w", r.firstErr))
	}
	if lr.check.firstErr != nil {
		o.errs = append(o.errs, fmt.Errorf("answer check: %w", lr.check.firstErr))
	}

	us := func(ns float64) float64 { return ns / 1e3 }
	ok := float64(r.ok())
	o.vals["throughput_ops_s"] = ok / r.elapsed.Seconds()
	if !lr.open {
		// A closed loop's throughput is the inverse of its latency; an open
		// loop's is pinned by the schedule, whatever the machine's speed.
		o.vals["throughput_ops_s"] /= lr.speed
	}
	o.vals["latency_p50_us"] = us(percentile(r.primary, 0.50)) * lr.speed
	o.vals["latency_p95_us"] = us(percentile(r.primary, 0.95)) * lr.speed
	o.vals["cpu_ms_per_op"] = float64(r.cpu) / 1e6 / ok * lr.speed
	o.vals["driver.machine_speed"] = lr.speed
	o.vals["live_heap_mb"] = float64(lr.liveHeap) / (1 << 20)
	o.vals["driver.latency_p99_us"] = us(percentile(r.primary, 0.99))
	for _, name := range []string{"latency_p50_us", "latency_p95_us", "driver.latency_p99_us"} {
		o.samples[name] = len(r.primary)
	}
	o.samples["throughput_ops_s"] = r.ok()
	o.samples["cpu_ms_per_op"] = r.ok()

	o.vals["driver.mutate_p50_us"] = us(percentile(r.mutate, 0.50))
	o.vals["driver.mutate_p95_us"] = us(percentile(r.mutate, 0.95))
	o.samples["driver.mutate_p50_us"] = len(r.mutate)
	o.samples["driver.mutate_p95_us"] = len(r.mutate)
	o.vals["driver.error_rate"] = float64(o.failed) / float64(o.attempted)
	o.vals["driver.sched_lag_p99_us"] = us(percentile(r.lag, 0.99))
	o.samples["driver.sched_lag_p99_us"] = len(r.lag)
	o.vals["driver.backlog_end"] = float64(r.backlog)
	o.vals["driver.gc_pause_ms"] = float64(r.gcPause) / 1e6
	o.vals["driver.peak_rss_mb"] = peakRSSMB()
	o.vals["driver.nproc"] = float64(runtime.NumCPU())
	o.vals["driver.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
}

func newOutcome() *outcome {
	return &outcome{vals: make(map[string]float64), samples: make(map[string]int)}
}

// runUntraced measures the end-to-end metrics: tracing off, set-up repeated
// setupReps times with the median reported.
func runUntraced(ctx context.Context, cfg runConfig) (*outcome, error) {
	out := newOutcome()
	var st *stage
	setups := make([]float64, 0, setupReps)
	from := processStart
	for rep := 0; rep < setupReps; rep++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
			st = nil // the previous store must be collectable before live_heap_mb is read
		}
		var err error
		if st, err = setUp(ctx, cfg, false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(from).Seconds())
		from = time.Now()
	}
	sort.Float64s(setups)
	out.vals["setup_s"] = setups[len(setups)/2]
	out.samples["setup_s"] = len(setups)
	out.opsHash = st.plan.hash

	out.add(runLoad(ctx, st, cfg))
	return out, st.close()
}
