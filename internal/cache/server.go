package cache

import (
	"context"
	"errors"
	"sync"
	"time"

	"hypre/internal/bitset"
	"hypre/internal/combine"
	"hypre/internal/hypre"
	"hypre/internal/metrics"
	"hypre/internal/obs"
	"hypre/internal/predicate"
	"hypre/internal/relstore"
	"hypre/internal/topk"
)

// Server is the concurrency-safe caching front to one evaluator: TopK
// canonicalizes the profile, serves repeats from the result cache,
// deduplicates concurrent identical cold queries through single flight, and
// stays byte-identical to uncached evaluation under mutations via the
// delta-aware repair the delta.Maintainer drives (AttachCache).
//
// Freshness discipline: the server records the store's epoch stamp each
// time ApplyDelta/InvalidateAll synchronizes it. A request arriving while
// the stamp has advanced past that point (mutations committed, maintainer
// not yet synced) bypasses the cache entirely — it evaluates uncached and
// stores nothing — so a cached answer always describes a synced snapshot.
type Server struct {
	ev       *combine.Evaluator
	db       *relstore.DB
	c        *Cache
	counters *metrics.CacheCounters
	tables   []string
	// left is the base table and keyCol its key column: a touched row's
	// pid, which the repair ranks by, is read through them.
	left   *relstore.Table
	keyCol string

	flight flightGroup

	// Observability: obsOn gates every clock read on the serve path (false
	// when neither a registry nor a slow log is attached — the instrumented
	// path is then branch-only). routeHists indexes by Outcome.
	obsOn      bool
	reg        *obs.Registry
	slow       *obs.SlowLog
	routeHists [4]*obs.Histogram

	// mu guards the predicate-footprint registry and the freshness state,
	// and is held across a publish. Lock order: mu before store locks
	// (ApplyDelta re-matches) and before shard locks (publish, the Sync
	// sweep); shard locks never nest inside store locks or vice versa.
	mu sync.Mutex
	// predID interns each registered predicate's normalized text to a
	// dense id indexing foots; entries name their predicates by id.
	predID     map[string]int32
	foots      []predFoot
	validStamp uint64
	gen        uint64
	// remapLost carries the ids of footprints that lost rows in an
	// ApplyRemap into the following ApplyDelta, which drops their entries.
	remapLost []int32
}

// predFoot is one registered predicate's maintenance state: its full query
// shape and the base rows it matched when last observed. rows == nil means
// a touched-row re-match failed and the footprint was lost; every later
// Sync drops the entries naming such a predicate.
type predFoot struct {
	q    relstore.Query
	rows *bitset.Set
}

// Outcome reports how one TopK request was served.
type Outcome uint8

const (
	// Hit: answered from the result cache.
	Hit Outcome = iota
	// Miss: this request ran the evaluation (single-flight leader).
	Miss
	// SharedMiss: waited on another session's in-flight evaluation.
	SharedMiss
	// StaleBypass: store epochs moved past the last sync; evaluated
	// uncached, nothing stored.
	StaleBypass
)

// String names the outcome for logs and bench rows.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case SharedMiss:
		return "shared"
	default:
		return "bypass"
	}
}

// NewServer wraps an evaluator in the caching tier. The evaluator's base
// query names the tables whose epochs gate freshness.
func NewServer(ev *combine.Evaluator, cfg Config) *Server {
	if cfg.Counters == nil {
		cfg.Counters = &metrics.CacheCounters{}
	}
	base := ev.BaseQuery(predicate.True{})
	tables := []string{base.From}
	if base.Join != nil {
		tables = append(tables, base.Join.Table)
	}
	db := ev.DB()
	s := &Server{
		ev:         ev,
		db:         db,
		c:          NewCache(cfg),
		counters:   cfg.Counters,
		tables:     tables,
		left:       db.Table(base.From),
		keyCol:     ev.KeyColumn(base.From),
		predID:     make(map[string]int32),
		validStamp: db.EpochStamp(tables...),
		reg:        cfg.Registry,
		slow:       cfg.SlowLog,
		obsOn:      cfg.Registry != nil || cfg.SlowLog != nil,
	}
	if s.reg != nil {
		for out, name := range map[Outcome]string{
			Hit: "serve_hit", Miss: "serve_miss",
			SharedMiss: "serve_shared", StaleBypass: "serve_bypass",
		} {
			s.routeHists[out] = s.reg.Histogram(name)
		}
		counters := s.counters
		s.reg.RegisterGroup("cache", func() map[string]int64 {
			snap := counters.Snapshot()
			return map[string]int64{
				"hits":            snap.Hits,
				"misses":          snap.Misses,
				"evaluations":     snap.Evaluations,
				"shared_waits":    snap.SharedWaits,
				"evictions":       snap.Evictions,
				"invalidated":     snap.Invalidated,
				"repaired":        snap.Repaired,
				"stale_bypasses":  snap.StaleBypasses,
				"footprint_scans": snap.FootprintScans,
			}
		})
	}
	return s
}

// Cache exposes the underlying store for stats and tests.
func (s *Server) Cache() *Cache { return s.c }

// Counters exposes the shared counter set.
func (s *Server) Counters() *metrics.CacheCounters { return s.counters }

// TopK answers a top-k profile query through the cache. The answer is
// byte-identical to topk.EvaluateOneShot over the canonical form of prefs
// (combine.CanonicalProfile) against the last-synced store snapshot; the
// returned slice is the caller's to keep.
func (s *Server) TopK(prefs []hypre.ScoredPred, k int) ([]combine.ScoredTuple, Outcome, error) {
	return s.TopKContext(context.Background(), prefs, k, nil)
}

// TopKTraced is TopK under per-query observability: the route decision,
// contiguous stage spans, and the chosen path's engine counters land in tr
// (nil = disabled, TopK calls it that way). Latency histograms and the slow
// log observe every call when attached, traced or not; with neither
// attached and tr nil the serve path never reads the clock.
func (s *Server) TopKTraced(prefs []hypre.ScoredPred, k int, tr *obs.Trace) ([]combine.ScoredTuple, Outcome, error) {
	return s.TopKContext(context.Background(), prefs, k, tr)
}

// TopKContext is TopKTraced with request-scoped cancellation: a ctx that
// ends while this request is parked behind another session's in-flight
// evaluation of the same fingerprint unblocks immediately with ctx.Err()
// (outcome SharedMiss, nothing recorded as served). Cancellation stops
// WAITING only — a single-flight leader's evaluation is shared work and
// always runs to completion and publishes, so the canceled waiter's peers
// (and the next request) still get their answer. The HTTP serving tier
// passes each request's context here.
func (s *Server) TopKContext(ctx context.Context, prefs []hypre.ScoredPred, k int, tr *obs.Trace) ([]combine.ScoredTuple, Outcome, error) {
	// Span discipline: top-level spans tile the request — each stage hands
	// off to the next through Transition (one shared clock reading, zero
	// gap), and the final stage stays open for Finish to close at the same
	// instant it stamps Total. TopLevelSum therefore tracks Total to within
	// a few clock reads even on microsecond hit paths.
	sp := tr.StartSpan(obs.StageCanonicalize)
	var started time.Time
	if s.obsOn {
		started = time.Now()
	}
	tr.SetK(k)
	canon, fp := combine.CanonicalProfile(prefs)
	if tr != nil {
		// Formatting the fingerprint is tracing's own cost; charge it to the
		// canonicalize span so the spans still tile the request.
		tr.SetQuery(fp.String())
	}

	sp = tr.Transition(sp, obs.StageLookup)
	stamp := s.db.EpochStamp(s.tables...)
	s.mu.Lock()
	valid := stamp == s.validStamp
	s.mu.Unlock()
	if !valid {
		// Unsynced mutations exist: a cached entry could not be told apart
		// from a stale one, so serve this request uncached and let the next
		// ApplyDelta re-open the cache.
		s.counters.StaleBypasses.Add(1)
		tr.Transition(sp, obs.StageEvaluate)
		out, _, err := topk.EvaluateOneShotTraced(s.ev, canon, k, tr)
		s.observe(tr, StaleBypass, started, fp, k, err)
		return out, StaleBypass, err
	}

	rk := entryKey{fp: fp, k: int32(k)}
	if e, ok := s.c.get(rk); ok {
		s.counters.Hits.Add(1)
		tr.Transition(sp, obs.StageRank)
		out := cloneTuples(e.tuples)
		s.observe(tr, Hit, started, fp, k, nil)
		return out, Hit, nil
	}

	// The leader's closure runs on the first arriving goroutine; a traced
	// waiter sees only the flight span (the leader's trace, if any, is the
	// leader's own).
	fsp := tr.Transition(sp, obs.StageFlight)
	val, leader, err := s.flight.do(ctx, rk, func() ([]combine.ScoredTuple, error) {
		return s.evaluate(canon, fp, k, stamp, tr)
	})
	if err != nil {
		// A waiter whose own context ended is a canceled wait, not an
		// evaluation failure; report it under the shared route so the miss
		// histogram keeps describing real evaluation latency.
		if !leader && ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			s.observe(tr, SharedMiss, started, fp, k, err)
			return nil, SharedMiss, err
		}
		s.observe(tr, Miss, started, fp, k, err)
		return nil, Miss, err
	}
	if leader {
		s.counters.Misses.Add(1)
		s.observe(tr, Miss, started, fp, k, nil)
		return val, Miss, nil
	}
	s.counters.SharedWaits.Add(1)
	tr.Transition(fsp, obs.StageRank)
	out := cloneTuples(val)
	s.observe(tr, SharedMiss, started, fp, k, nil)
	return out, SharedMiss, nil
}

// observe finishes the trace and records the request into the per-route
// histogram and the slow log. The duration is measured only when obsOn (a
// registry or slow log is attached); the fingerprint is formatted only on
// the slow path of an untraced request.
func (s *Server) observe(tr *obs.Trace, out Outcome, started time.Time, fp combine.Fingerprint, k int, err error) {
	if tr != nil {
		tr.SetRoute(out.String())
		tr.SetErr(err)
		tr.Finish()
	}
	if !s.obsOn {
		return
	}
	d := time.Since(started)
	if h := s.routeHists[out]; h != nil {
		h.RecordDuration(d)
	}
	if s.slow != nil && d >= s.slow.Threshold() {
		query := fp.String()
		s.slow.Observe(out.String(), query, k, d, tr)
	}
}

// evaluate is the single-flight leader body: run the one-shot router (the
// same call the stale-bypass branch makes), register predicate footprints,
// and publish the result entry — unless the store moved while we were
// working, in which case the answer is returned but nothing is cached.
// Every leader ticks Evaluations exactly once, so Misses == Evaluations.
func (s *Server) evaluate(canon []hypre.ScoredPred, fp combine.Fingerprint, k int, stamp uint64, tr *obs.Trace) ([]combine.ScoredTuple, error) {
	s.mu.Lock()
	gen := s.gen
	s.mu.Unlock()

	s.counters.Evaluations.Add(1)
	res, _, err := topk.EvaluateOneShotTraced(s.ev, canon, k, tr)
	if err != nil {
		return nil, err
	}
	fsp := tr.StartSpan(obs.StageFootprint)
	err = s.registerPreds(canon, gen)
	tr.EndSpan(fsp)
	if err != nil {
		return nil, err
	}

	// Publish gate: the entry must describe the stamp-state the evaluation
	// and the footprint scans both observed. Any commit in between bumps
	// the epoch stamp; any maintainer sync bumps gen. Either one rejects
	// the publish (the caller still gets the answer). The put happens under
	// mu, so no Sync can slip between the gate and the insert.
	psp := tr.StartSpan(obs.StagePublish)
	defer tr.EndSpan(psp)
	s.mu.Lock()
	defer s.mu.Unlock()
	if gen != s.gen || s.db.EpochStamp(s.tables...) != stamp {
		return res, nil
	}
	slots, _ := topk.AttrSlots(canon)
	prefs := make([]entryPref, 0, len(canon))
	for i, p := range canon {
		id, ok := s.predID[p.Pred]
		if !ok {
			return res, nil
		}
		if slots[i] >= 0 {
			prefs = append(prefs, entryPref{id: id, slot: int32(slots[i]), intensity: p.Intensity})
		}
	}
	e := &entry{key: entryKey{fp: fp, k: int32(k)}, tuples: cloneTuples(res), prefs: prefs}
	e.size = entryBytes(e)
	s.c.put(e)
	return res, nil
}

// registerPreds ensures every predicate of the profile has a footprint in
// the registry: the live base rows it currently matches, computed by one
// row-set scan per predicate, once per cache lifetime. The scans run
// outside the registry lock; a racing registration of the same predicate
// wastes one scan and keeps the first entry. Scans that a Sync overtook
// (gen moved since the caller read it) are discarded: the batch they may
// have missed was re-matched only over the footprints registered then.
func (s *Server) registerPreds(canon []hypre.ScoredPred, gen uint64) error {
	var missing []hypre.ScoredPred
	s.mu.Lock()
	for _, p := range canon {
		if _, ok := s.predID[p.Pred]; !ok {
			missing = append(missing, p)
		}
	}
	s.mu.Unlock()
	if len(missing) == 0 {
		return nil
	}
	scanned := make([]predFoot, len(missing))
	for i, p := range missing {
		q := s.ev.BaseQuery(p.P)
		rows, err := s.db.ScanAttrRowSet(q, s.ev.KeyAttr(), -1, nil)
		if err != nil {
			return err
		}
		scanned[i] = predFoot{q: q, rows: rows}
		s.counters.FootprintScans.Add(1)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if gen != s.gen {
		return nil
	}
	for i, p := range missing {
		if _, ok := s.predID[p.Pred]; !ok {
			s.predID[p.Pred] = int32(len(s.foots))
			s.foots = append(s.foots, scanned[i])
		}
	}
	return nil
}

// ApplyDelta is the delta.CacheSyncer hook: after a mutation batch, the
// maintainer hands over the touched base-row mask and the epochs it synced
// to. Each registered predicate re-matches only the touched rows
// (relstore.MatchLeftRowSet — the compiled per-row filter at exactly those
// rows). An entry none of whose predicates moved over those rows stays as
// it is. One that names a moved predicate is repaired: its touched tuples
// are re-graded and ranked against its old k-th tuple (syncBatch.fix), and
// it is dropped only when a member fell out with nothing proven to replace
// it, or when it names a predicate whose footprint is lost or that the
// preceding ApplyRemap queued (rows a compaction dropped cannot be
// re-matched, because they no longer exist). Cost scales with touched
// rows × registered predicates plus touched rows × the moved entries'
// sizes, never with the number of entries left alone.
func (s *Server) ApplyDelta(touched *bitset.Set, leftEpoch, rightEpoch uint64) {
	stamp := leftEpoch + rightEpoch
	s.mu.Lock()
	defer s.mu.Unlock()
	if (touched == nil || touched.IsEmpty()) && len(s.remapLost) == 0 {
		s.validStamp = stamp
		return
	}
	if touched == nil {
		touched = bitset.New()
	}
	// Any in-flight evaluation raced this batch; its publish gate checks
	// gen, so bump it before sweeping.
	s.gen++
	b := s.rematch(touched)
	s.validStamp = stamp
	if b == nil {
		return
	}
	dropped, repaired := s.c.sweep(b.fix)
	s.counters.Invalidated.Add(int64(dropped))
	s.counters.Repaired.Add(int64(repaired))
}

// ApplyRemap is the delta.CacheSyncer compaction hook, arriving before the
// Sync's ApplyDelta: the store renumbered its base rows, so every
// registered footprint is reindexed through the composed old→new map.
// Footprints that lost rows (dropped by the compaction, or outside the
// remap's domain) are queued for the next ApplyDelta, which drops every
// entry naming them — the membership they lost cannot be re-graded by the
// touched-row re-match, because the rows no longer exist to re-evaluate.
func (s *Server) ApplyRemap(remap []int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	for id := range s.foots {
		pf := &s.foots[id]
		if pf.rows == nil {
			continue
		}
		nr := bitset.New()
		lost := false
		pf.rows.ForEach(func(old int) bool {
			if old < len(remap) && remap[old] >= 0 {
				nr.Add(int(remap[old]))
			} else {
				lost = true
			}
			return true
		})
		pf.rows = nr
		if lost {
			s.remapLost = append(s.remapLost, int32(id))
		}
	}
}

// InvalidateAll is the delta.CacheSyncer full-rebuild hook: every entry and
// every footprint is dropped (the store state they described is gone), and
// the server resynchronizes to the given epochs.
func (s *Server) InvalidateAll(leftEpoch, rightEpoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	s.predID = make(map[string]int32)
	s.foots = nil
	s.remapLost = nil
	n := s.c.purge()
	s.counters.Invalidated.Add(int64(n))
	s.validStamp = leftEpoch + rightEpoch
}
