package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"time"

	"hypre/internal/admit"
	"hypre/internal/cache"
	"hypre/internal/combine"
	"hypre/internal/delta"
	"hypre/internal/hypre"
	"hypre/internal/metrics"
	"hypre/internal/obs"
	"hypre/internal/relstore"
	"hypre/internal/topk"
	"hypre/internal/workload"
)

// The traced run. Tracing lives here, in the benchmark's own files, as spans
// around calls into each layer's public entry points; the program itself is
// not instrumented (that is a later change). The same seeded op sequence is
// replayed twice, one op at a time on one goroutine, so every count repeats
// exactly:
//
//	direct  against a stack wired as serve.New wires it — NewEvaluator →
//	        cache.NewServer → delta.NewMaintainer(ev, nil) + AttachCache,
//	        two unlimited admit gates — with a span per layer call;
//	http    against the real App over the wire, one "request" span per op.
//
// serve.self_us is the per-op difference of the two: what the HTTP tier adds
// around the layer calls (socket, decode, session lookup, encode).
//
// README.md lists the public entry points the probes bind to; a change that
// retires one must come with a benchmark change that rebinds the probe.

// span is one timed call. Spans of one op share Op; Parent is the ID of the
// enclosing span, -1 at the root. Times are ns from the tracer's origin.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
	stack  []int
	op     int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string) int {
	id := len(t.spans)
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.origin))})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].End = int64(time.Since(t.origin))
	t.stack = t.stack[:len(t.stack)-1]
}

// adopt re-parents the stage spans of an obs.Trace under span parent: the
// trace clock starts at the traced call's first instruction, so its offsets
// are laid from the parent's start.
func (t *tracer) adopt(parent int, tr *obs.Trace) {
	base := t.spans[parent].Start
	var byDepth []int // innermost adopted span at each depth
	for _, s := range tr.Spans {
		id := len(t.spans)
		p := parent
		if s.Depth > 0 && s.Depth <= len(byDepth) {
			p = byDepth[s.Depth-1]
		}
		t.spans = append(t.spans, span{
			Op: t.op, ID: id, Parent: p, Name: "obs." + s.Name,
			Start: base + int64(s.Off), End: base + int64(s.Off+s.Dur),
		})
		byDepth = append(byDepth[:min(s.Depth, len(byDepth))], id)
	}
}

// agg is the per-name rollup of the spans: how many, and their summed
// duration. (Self time — a span minus its children — is left to readers of
// the -out file; the one self time reported, serve.self_us, is the difference
// of the two replays.)
type agg struct {
	n     int
	total int64
}

func (t *tracer) rollup() map[string]*agg {
	out := make(map[string]*agg)
	for _, s := range t.spans {
		a := out[s.Name]
		if a == nil {
			a = &agg{}
			out[s.Name] = a
		}
		a.n++
		a.total += s.End - s.Start
	}
	return out
}

// meanOf is the mean duration, in ns, of the spans with any of the names,
// and how many there were.
func meanOf(r map[string]*agg, names ...string) (mean float64, n int) {
	var total int64
	for _, name := range names {
		if a := r[name]; a != nil {
			n += a.n
			total += a.total
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(total) / float64(n), n
}

// setMean stores a span mean as a metric, converted from ns by div, with its
// sample count.
func (o *outcome) setMean(r map[string]*agg, metric string, div float64, names ...string) {
	mean, n := meanOf(r, names...)
	o.vals[metric] = mean / div
	o.samples[metric] = n
}

func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// direct is the serving stack without the HTTP tier, wired as serve.New
// wires it.
type direct struct {
	db         *relstore.DB
	ev         *combine.Evaluator
	srv        *cache.Server
	maint      *delta.Maintainer
	queryGate  *admit.Gate
	mutateGate *admit.Gate
}

func newDirect(net *workload.Network, cacheBytes int64) (*direct, error) {
	opts := appOptions(net, cacheBytes)
	reg := obs.NewRegistry()
	ev := combine.NewEvaluator(net.DB, workload.BaseQuery, "dblp.pid")
	srv := cache.NewServer(ev, cache.Config{
		MaxBytes: cacheBytes,
		Registry: reg,
		SlowLog:  obs.NewSlowLog(opts.Slow, 128),
	})
	maint, err := delta.NewMaintainer(ev, nil)
	if err != nil {
		return nil, err
	}
	maint.AttachObs(reg)
	maint.AttachCache(srv)
	ctrl := admit.NewController(reg)
	return &direct{
		db: net.DB, ev: ev, srv: srv, maint: maint,
		queryGate:  ctrl.AddClass("query", opts.Query),
		mutateGate: ctrl.AddClass("mutate", opts.Mutate),
	}, nil
}

// admitted sums the two gates' ledgers.
func (d *direct) admitted() metrics.AdmitSnapshot {
	q, m := d.queryGate.Counters().Snapshot(), d.mutateGate.Counters().Snapshot()
	return metrics.AdmitSnapshot{
		Admitted: q.Admitted + m.Admitted,
		Queued:   q.Queued + m.Queued,
		Shed:     q.Shed + m.Shed,
		Canceled: q.Canceled + m.Canceled,
	}
}

// tally is what the direct replay counts beside its spans.
type tally struct {
	queries, results int
	eng              obs.EngineCounters
	earlyExits       int
	evaluations      int // traces that ran an engine path (Exec set)
	exec             map[string]int
	sync             delta.SyncStats // summed over the mutate ops
	fullRebuilds     int
	pepsOps          int
	pairEntries      int
	anchors          int
	evalBytes        int64
	evalPreds        int
	andCards         int
}

func parseWire(o *op) ([]hypre.ScoredPred, error) {
	prefs := make([]hypre.ScoredPred, 0, len(o.wire))
	for _, e := range o.wire {
		sp, err := hypre.NewScoredPred(e.Pred, e.Intensity)
		if err != nil {
			return nil, err
		}
		prefs = append(prefs, sp)
	}
	return prefs, nil
}

// query replays one query op layer by layer, as handleQuery calls them.
func (d *direct) query(ctx context.Context, t *tracer, ta *tally, o *op) error {
	root := t.begin("op.query")
	defer t.end(root)

	s := t.begin("admit.admit")
	_, err := d.queryGate.Admit(ctx)
	t.end(s)
	if err != nil {
		return err
	}

	prefs := o.prefs
	if o.sess < 0 {
		s = t.begin("predicate.parse")
		prefs, err = parseWire(o)
		t.end(s)
		if err != nil {
			return err
		}
	}

	s = t.begin("cache.topk")
	tr := obs.NewTrace()
	res, outcome, err := d.srv.TopKTraced(prefs, o.k, tr)
	t.end(s)
	if err != nil {
		return err
	}
	t.spans[s].Name = "cache.topk." + outcome.String()
	t.adopt(s, tr)

	// The handler canonicalizes a second time to print the fingerprint.
	s = t.begin("combine.canonicalize")
	combine.CanonicalProfile(prefs)
	t.end(s)

	ta.queries++
	ta.results += len(res)
	ta.addEngine(tr)
	return nil
}

func (ta *tally) addEngine(tr *obs.Trace) {
	if tr.Exec == "" {
		return
	}
	ta.evaluations++
	ta.exec[tr.Exec]++
	ta.eng.BlocksScanned += tr.Eng.BlocksScanned
	ta.eng.BlocksSkipped += tr.Eng.BlocksSkipped
	ta.eng.RowsSeen += tr.Eng.RowsSeen
	ta.eng.TARounds += tr.Eng.TARounds
	if tr.Eng.TAEarlyExit {
		ta.earlyExits++
	}
}

// mutate replays one mutate batch as handleMutate runs it: ops, then Sync.
func (d *direct) mutate(ctx context.Context, t *tracer, ta *tally, o *op) error {
	root := t.begin("op.mutate")
	defer t.end(root)

	s := t.begin("admit.admit")
	_, err := d.mutateGate.Admit(ctx)
	t.end(s)
	if err != nil {
		return err
	}
	for _, m := range o.muts {
		s = t.begin("relstore.commit")
		err = m.Do(d.db)
		t.end(s)
		if err != nil {
			return err
		}
	}
	s = t.begin("delta.sync")
	st, err := d.maint.Sync()
	t.end(s)
	if err != nil {
		return err
	}
	ta.sync.TouchedRows += st.TouchedRows
	ta.sync.ChangedPreds += st.ChangedPreds
	if st.FullRebuild {
		ta.fullRebuilds++
	}
	return nil
}

// peps replays one PEPS op stage by stage, then — as separate root spans,
// outside the op — probes the two layers only a materialized evaluator
// reaches: the TA lists over its bitmaps, and bitmap intersection itself.
func peps(t *tracer, ta *tally, net *workload.Network, o *op) error {
	root := t.begin("op.peps")
	ev := combine.NewEvaluator(net.DB, workload.BaseQuery, "dblp.pid")
	s := t.begin("combine.materialize")
	err := ev.MaterializeAll(o.prefs)
	t.end(s)
	var pt *combine.PairTable
	if err == nil {
		s = t.begin("combine.pair_build")
		pt, err = combine.BuildPairTable(o.prefs, ev)
		t.end(s)
	}
	var res combine.TopKResult
	if err == nil {
		s = t.begin("combine.peps")
		res, err = combine.PEPSSharded(o.prefs, pt, ev, o.k, combine.Complete)
		t.end(s)
	}
	t.end(root)
	if err != nil {
		return err
	}
	ta.pepsOps++
	ta.pairEntries += len(pt.Pairs)
	ta.anchors += res.AnchorsUsed
	ms := ev.MemStats()
	ta.evalBytes += ms.CompressedBytes
	ta.evalPreds += ms.Preds

	root = t.begin("probe.topk")
	s = t.begin("topk.build_lists")
	lists, err := topk.BuildLists(ev, o.prefs)
	t.end(s)
	if err == nil {
		tr := obs.NewTrace()
		s = t.begin("topk.ta")
		lists.TATraced(o.k, tr)
		t.end(s)
		tr.SetExec("probe")
		ta.addEngine(tr)
	}
	t.end(root)
	if err != nil {
		return err
	}

	bms := make([]*combine.Bitmap, len(o.prefs))
	for i, p := range o.prefs {
		if bms[i], err = ev.PredBitmap(p); err != nil {
			return err
		}
	}
	s = t.begin("bitset.andcard")
	for i := range bms {
		for j := i + 1; j < len(bms); j++ {
			bms[i].AndCard(bms[j])
			ta.andCards++
		}
	}
	t.end(s)
	return nil
}

// forReplay trims the plan to what the traced replays run: the fixed-length
// prefix of the op sequence, once, and — where the warm-up is one evaluation
// per fingerprint — only the fingerprints that prefix asks for.
func (p *plan) forReplay(sc scale) {
	n := sc.traceOpsHTTP
	switch p.name {
	case "cold-read":
		n = sc.traceOpsCold
	case "mixed-rw":
		n = sc.traceOpsMixed
	case "peps-direct":
		n = sc.traceOpsPEPS
	}
	ops := make([]op, 0, n)
	for i := 0; i < n && (i < len(p.ops) || p.cycle); i++ {
		o := p.ops[i%len(p.ops)]
		o.at = 0
		ops = append(ops, o)
	}
	p.ops, p.open, p.cycle = ops, false, false
	if p.http && p.name != "cold-read" {
		type key struct{ sess, k int }
		seen := make(map[key]bool)
		p.warm = p.warm[:0:0]
		for _, o := range ops {
			if o.kind == opQuery && !seen[key{o.sess, o.k}] {
				seen[key{o.sess, o.k}] = true
				p.warm = append(p.warm, o)
			}
		}
	}
}

// runTraced measures the per-layer metrics. A load window first (tracing
// off, as in the untraced run) supplies the driver.* values; the two serial
// replays follow, each on a store freshly built from the same seed, so that
// neither sees the other's mutations and both start from the same state.
func runTraced(ctx context.Context, cfg runConfig, spansOut string) (*outcome, error) {
	out := newOutcome()
	for _, d := range perLayer {
		out.vals[d.Name] = 0
	}

	st, err := setUp(ctx, cfg, false)
	if err != nil {
		return nil, err
	}
	out.opsHash = st.plan.hash
	out.vals["workload.generate_s"] = st.lab.generateS
	out.vals["workload.extract_s"] = st.lab.extractS
	out.vals["hypre.graph_build_s"] = st.lab.graphS
	out.vals["relstore.table_bytes"] = float64(st.lab.tableBytes)
	out.vals["relstore.bytes_per_row"] = float64(st.lab.tableBytes) / float64(st.lab.tableRows)
	lr := runLoad(ctx, st, cfg)
	if err := st.close(); err != nil {
		return nil, err
	}
	out.add(lr)
	// Only the untraced run reports end-to-end values; this window is here
	// for its driver.* ones.
	for _, d := range endToEnd {
		delete(out.vals, d.Name)
		delete(out.samples, d.Name)
	}
	st = nil // the replays build stores of their own

	t := newTracer()
	ta := &tally{exec: make(map[string]int)}
	directMean, err := replayDirect(ctx, cfg, t, ta, out)
	if err != nil {
		return nil, fmt.Errorf("direct replay: %w", err)
	}
	if err := replayHTTP(ctx, cfg, t, out, directMean); err != nil {
		return nil, fmt.Errorf("http replay: %w", err)
	}
	if spansOut != "" {
		if err := t.writeJSONL(spansOut); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// replayDirect runs the direct replay and fills in every layer metric it
// yields. It returns the mean duration (ns) of the op root spans, which the
// HTTP replay subtracts from its request spans.
func replayDirect(ctx context.Context, cfg runConfig, t *tracer, ta *tally, out *outcome) (float64, error) {
	counters := &relstore.StoreCounters{}
	l, err := buildLab(cfg.sc, cfg.seed, counters)
	if err != nil {
		return 0, err
	}
	p, err := buildPlan(cfg.workload, l, cfg.sc, cfg.seed, cfg.seconds)
	if err != nil {
		return 0, err
	}
	p.forReplay(cfg.sc)
	ops := p.ops
	if !p.http {
		for i := range ops {
			t.op = i
			if err := peps(t, ta, l.net, &ops[i]); err != nil {
				return 0, fmt.Errorf("op %d: %w", i, err)
			}
		}
		r := t.rollup()
		out.setMean(r, "combine.materialize_us", 1e3, "combine.materialize")
		out.setMean(r, "combine.pair_build_us", 1e3, "combine.pair_build")
		out.setMean(r, "combine.peps_us", 1e3, "combine.peps")
		out.setMean(r, "topk.build_lists_us", 1e3, "topk.build_lists")
		out.setMean(r, "topk.ta_us", 1e3, "topk.ta")
		out.vals["combine.peps_anchors"] = float64(ta.anchors)
		out.vals["combine.pair_entries"] = float64(ta.pairEntries)
		out.vals["combine.evaluator_bytes"] = float64(ta.evalBytes) / float64(ta.pepsOps)
		out.vals["bitset.bytes_per_pred"] = float64(ta.evalBytes) / float64(ta.evalPreds)
		out.vals["bitset.andcard_ns"] = float64(r["bitset.andcard"].total) / float64(ta.andCards)
		out.samples["bitset.andcard_ns"] = ta.andCards
		out.vals["topk.ta_rounds"] = float64(ta.eng.TARounds) / float64(ta.evaluations)
		out.vals["topk.early_exit_ratio"] = float64(ta.earlyExits) / float64(ta.evaluations)
		mean, _ := meanOf(r, "op.peps")
		return mean, nil
	}

	d, err := newDirect(l.net, p.cacheBytes)
	if err != nil {
		return 0, err
	}
	// Warm-up, unrecorded: the same fingerprints the HTTP replay warms.
	scratch, scratchTally := newTracer(), &tally{exec: make(map[string]int)}
	warmBatch := func(batch []op) error {
		for i := range batch {
			if err := d.query(ctx, scratch, scratchTally, &batch[i]); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	}
	if p.name == "cold-read" {
		err = coldWarmUp(cfg.sc, p.warm, &d.srv.Counters().FootprintScans, warmBatch)
	} else {
		err = warmBatch(p.warm)
	}
	if err != nil {
		return 0, err
	}

	cache0, admit0 := d.srv.Counters().Snapshot(), d.admitted()
	for i := range ops {
		t.op = i
		o := &ops[i]
		if o.kind == opMutate {
			err = d.mutate(ctx, t, ta, o)
		} else {
			err = d.query(ctx, t, ta, o)
		}
		if err != nil {
			return 0, fmt.Errorf("op %d: %w", i, err)
		}
	}
	cache1, admit1 := d.srv.Counters().Snapshot(), d.admitted()
	entries, bytes := d.srv.Cache().Stats()

	r := t.rollup()
	out.setMean(r, "admit.admit_ns", 1, "admit.admit")
	out.vals["admit.admitted"] = float64(admit1.Admitted - admit0.Admitted)
	out.vals["admit.queued"] = float64(admit1.Queued - admit0.Queued)
	out.vals["admit.shed"] = float64(admit1.Shed - admit0.Shed)
	out.vals["admit.canceled"] = float64(admit1.Canceled - admit0.Canceled)
	out.setMean(r, "predicate.parse_us", 1e3, "predicate.parse")
	if ta.queries > 0 {
		// Per query, not per span: the handler's second canonicalization
		// and the one inside TopKTraced both count.
		canon, n := meanOf(r, "combine.canonicalize", "obs.canonicalize")
		out.vals["combine.canonicalize_us"] = canon * float64(n) / float64(ta.queries) / 1e3
		out.samples["combine.canonicalize_us"] = ta.queries
	}
	out.vals["combine.evaluator_bytes"] = float64(d.ev.MemStats().CompressedBytes)

	diff := cacheDelta(cache0, cache1)
	out.setMean(r, "cache.topk_hit_us", 1e3, "cache.topk.hit")
	out.setMean(r, "cache.topk_miss_us", 1e3, "cache.topk.miss")
	out.vals["cache.hits"] = float64(diff.Hits)
	out.vals["cache.misses"] = float64(diff.Misses)
	out.vals["cache.shared_waits"] = float64(diff.SharedWaits)
	out.vals["cache.plan_hits"] = float64(diff.PlanHits)
	out.vals["cache.evaluations"] = float64(diff.Evaluations)
	out.vals["cache.evictions"] = float64(diff.Evictions)
	out.vals["cache.invalidated"] = float64(diff.Invalidated)
	out.vals["cache.stale_bypasses"] = float64(diff.StaleBypasses)
	out.vals["cache.footprint_scans"] = float64(diff.FootprintScans)
	out.vals["cache.hit_ratio"] = diff.HitRate()
	out.vals["cache.entries"] = float64(entries)
	out.vals["cache.bytes"] = float64(bytes)

	out.setMean(r, "topk.stream_us", 1e3, "obs.stream")
	out.setMean(r, "topk.build_lists_us", 1e3, "obs.build_lists")
	out.setMean(r, "topk.ta_us", 1e3, "obs.ta", "obs.plan_ta")
	if ta.evaluations > 0 {
		out.vals["topk.ta_rounds"] = float64(ta.eng.TARounds) / float64(ta.evaluations)
		out.vals["topk.early_exit_ratio"] = float64(ta.earlyExits) / float64(ta.evaluations)
	}
	out.vals["topk.exec_streaming"] = float64(ta.exec["streaming"])
	out.vals["topk.exec_ta_cached"] = float64(ta.exec["ta_cached"])
	out.vals["topk.exec_plan_hit"] = float64(ta.exec["plan_hit"])
	out.vals["topk.exec_materialized_fallback"] = float64(ta.exec["materialized_fallback"])

	out.vals["relstore.blocks_scanned"] = float64(ta.eng.BlocksScanned)
	out.vals["relstore.blocks_skipped"] = float64(ta.eng.BlocksSkipped)
	out.vals["relstore.rows_seen"] = float64(ta.eng.RowsSeen)
	if ta.results > 0 {
		out.vals["relstore.rows_per_result"] = float64(ta.eng.RowsSeen) / float64(ta.results)
	}
	out.setMean(r, "relstore.commit_us", 1e3, "relstore.commit")
	out.vals["relstore.compactions"] = float64(counters.Snapshot().Compactions)

	out.setMean(r, "delta.sync_us", 1e3, "delta.sync")
	out.vals["delta.touched_rows"] = float64(ta.sync.TouchedRows)
	out.vals["delta.changed_preds"] = float64(ta.sync.ChangedPreds)
	out.vals["delta.full_rebuilds"] = float64(ta.fullRebuilds)

	out.vals["obs.trace_overhead_pct"], err = traceOverhead(d, ops)
	if err != nil {
		return 0, err
	}
	mean, _ := meanOf(r, "op.query", "op.mutate")
	return mean, nil
}

func cacheDelta(a, b metrics.CacheSnapshot) metrics.CacheSnapshot {
	return metrics.CacheSnapshot{
		Hits:           b.Hits - a.Hits,
		Misses:         b.Misses - a.Misses,
		PlanHits:       b.PlanHits - a.PlanHits,
		Evaluations:    b.Evaluations - a.Evaluations,
		SharedWaits:    b.SharedWaits - a.SharedWaits,
		Evictions:      b.Evictions - a.Evictions,
		Invalidated:    b.Invalidated - a.Invalidated,
		PlanRepairs:    b.PlanRepairs - a.PlanRepairs,
		StaleBypasses:  b.StaleBypasses - a.StaleBypasses,
		FootprintScans: b.FootprintScans - a.FootprintScans,
	}
}

// traceOverhead prices obs tracing on the cache-hit path: the first query's
// profile is made resident, then TopKTraced runs alternately with a trace
// and with nil; the result is the extra time of the traced calls in percent.
func traceOverhead(d *direct, ops []op) (float64, error) {
	var o *op
	for i := range ops {
		if ops[i].kind == opQuery {
			o = &ops[i]
			break
		}
	}
	if o == nil {
		return 0, nil
	}
	if _, _, err := d.srv.TopKTraced(o.prefs, o.k, nil); err != nil {
		return 0, err
	}
	const pairs = 2000
	var traced, plain time.Duration
	for i := 0; i < pairs; i++ {
		t0 := time.Now()
		_, _, err := d.srv.TopKTraced(o.prefs, o.k, obs.NewTrace())
		t1 := time.Now()
		if err != nil {
			return 0, err
		}
		_, _, err = d.srv.TopKTraced(o.prefs, o.k, nil)
		t2 := time.Now()
		if err != nil {
			return 0, err
		}
		traced += t1.Sub(t0)
		plain += t2.Sub(t1)
	}
	return 100 * float64(traced-plain) / float64(plain), nil
}

// replayHTTP sends the same ops, serially, to the real App on a fresh store
// and records one request span per op.
func replayHTTP(ctx context.Context, cfg runConfig, t *tracer, out *outcome, directMean float64) error {
	st, err := setUp(ctx, cfg, true)
	if err != nil {
		return err
	}
	if st.srv == nil {
		return nil
	}
	srv, ops := st.srv, st.plan.ops

	var reqBytes, respBytes int64
	var ok2xx, other int
	for i := range ops {
		t.op = i
		o := &ops[i]
		s := t.begin("request")
		status, n, _, err := srv.roundTrip(ctx, http.MethodPost, o.path(), o.body, false)
		t.end(s)
		if err != nil {
			return errors.Join(fmt.Errorf("op %d: %w", i, err), srv.close())
		}
		reqBytes += int64(len(o.body))
		respBytes += n
		if status >= 200 && status <= 299 {
			ok2xx++
		} else {
			other++
		}
	}
	if err := srv.close(); err != nil {
		return err
	}
	request, _ := meanOf(t.rollup(), "request")
	out.vals["serve.request_us"] = request / 1e3
	out.vals["serve.self_us"] = (request - directMean) / 1e3
	out.vals["serve.request_bytes"] = float64(reqBytes) / float64(len(ops))
	out.vals["serve.response_bytes"] = float64(respBytes) / float64(len(ops))
	out.vals["serve.status_2xx"] = float64(ok2xx)
	out.vals["serve.status_other"] = float64(other)
	out.samples["serve.request_us"] = len(ops)
	if other > 0 {
		out.attempted += len(ops)
		out.failed += other
		out.errs = append(out.errs, fmt.Errorf("http replay: %d of %d requests answered outside 2xx", other, len(ops)))
	}
	return nil
}
