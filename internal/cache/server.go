package cache

import (
	"context"
	"errors"
	"sync"
	"time"

	"hypre/internal/combine"
	"hypre/internal/hypre"
	"hypre/internal/metrics"
	"hypre/internal/obs"
	"hypre/internal/predicate"
	"hypre/internal/relstore"
	"hypre/internal/topk"
)

// Server is the concurrency-safe caching front to one evaluator: it serves
// repeats of a canonical profile from the result cache, deduplicates
// concurrent identical cold queries through single flight, and stays
// byte-identical to uncached evaluation under mutations via the
// delta-aware repair the delta.Maintainer drives (AttachCache).
//
// Canonicalization happens at most once per request, and never on a stored
// profile: TopKContext takes a combine.Canonical, which its caller built
// once (the HTTP tier when a session is stored or an inline query arrives)
// and which carries the fingerprint the cache keys on. TopKTraced is the
// raw-profile wrapper: it canonicalizes for its caller.
//
// The evaluator's bitmap store is the cache's only record of predicate
// membership: a miss materializes the profile's non-resident predicates
// there and ranks its answer from their bitmaps without reading the store,
// entries name predicates by the evaluator's ids, and a Sync's refresh
// hands ApplyDelta the row delta the repair reads. Only a stale bypass, or
// a miss a commit overtook, scans the store again (rankFresh), into a
// throwaway evaluator it ranks from the same way and then discards.
//
// Freshness discipline: the server records the store's epoch stamp each
// time ApplyDelta/InvalidateAll synchronizes it. A request arriving while
// the stamp has advanced past that point (mutations committed, maintainer
// not yet synced) bypasses the cache entirely — it evaluates uncached and
// stores nothing — so a cached answer always describes a synced snapshot.
// A writer that commits and syncs inside Write is never bypassed: a request
// that sees its commit before its Sync waits for Write to return, then
// reads the repaired cache.
type Server struct {
	ev       *combine.Evaluator
	db       *relstore.DB
	c        *Cache
	counters *metrics.CacheCounters
	tables   []string

	flight flightGroup

	// Observability: obsOn gates every clock read on the serve path (false
	// when neither a registry nor a slow log is attached — the instrumented
	// path is then branch-only). routeHists indexes by Outcome.
	obsOn      bool
	reg        *obs.Registry
	slow       *obs.SlowLog
	routeHists [4]*obs.Histogram

	// writeMu is held across each Write. A request takes its read side
	// only after finding the stamp ahead of the cache, holding nothing
	// else. Lock order: writeMu before the evaluator's refresh lock and mu.
	writeMu sync.RWMutex

	// mu guards validStamp and is held across a publish and a Sync's sweep,
	// never across a store scan or an evaluator call. Lock order: mu before
	// shard locks; shard locks never nest inside store locks or vice versa.
	mu         sync.Mutex
	validStamp uint64
}

// Outcome reports how one top-k request was served.
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
		s.reg.RegisterGroup("predicates", func() map[string]int64 {
			st := ev.MemStats()
			return map[string]int64{
				"preds":            int64(st.Preds),
				"compressed_bytes": st.CompressedBytes,
				"dict_entries":     int64(st.DictEntries),
				"dict_bytes":       st.DictBytes,
			}
		})
		s.reg.RegisterGroup("store", func() map[string]int64 {
			out := make(map[string]int64)
			for _, g := range db.Gauges() {
				out[g.Name+".rows"] = int64(g.Rows)
				out[g.Name+".dead"] = int64(g.Dead)
				out[g.Name+".index_keys"] = int64(g.IndexKeys)
				out[g.Name+".index_postings"] = int64(g.IndexPostings)
				out[g.Name+".change_log"] = int64(g.ChangeLog)
			}
			return out
		})
	}
	return s
}

// Cache exposes the underlying store for stats and tests.
func (s *Server) Cache() *Cache { return s.c }

// Counters exposes the shared counter set.
func (s *Server) Counters() *metrics.CacheCounters { return s.counters }

// TopKTraced answers a top-k profile query through the cache. The answer
// is byte-identical to BuildLists + TA on a fresh evaluator over the
// canonical form of prefs (combine.CanonicalProfile) against the
// last-synced store snapshot; the returned slice is the caller's to keep.
// The route decision, contiguous stage spans, and the chosen path's engine
// counters land in tr (nil = disabled). Latency histograms and the slow
// log observe every call when attached, traced or not; with neither
// attached and tr nil the serve path never reads the clock. It
// canonicalizes prefs inside the request's canonicalize span.
func (s *Server) TopKTraced(prefs []hypre.ScoredPred, k int, tr *obs.Trace) ([]combine.ScoredTuple, Outcome, error) {
	sp, started := s.begin(k, tr)
	return s.serve(context.Background(), combine.Canonicalize(prefs), k, tr, sp, started)
}

// TopKContext serves a profile its caller has already canonicalized, with
// request-scoped cancellation: a ctx that ends while this request is parked
// behind another session's in-flight evaluation of the same fingerprint
// unblocks immediately with ctx.Err() (outcome SharedMiss, nothing recorded
// as served). Cancellation stops WAITING only — a single-flight leader's
// evaluation is shared work and always runs to completion and publishes, so
// the canceled waiter's peers (and the next request) still get their
// answer. The HTTP serving tier canonicalizes each profile once, when a
// session is stored or an inline query arrives, and passes the result and
// the request's context here; the server never canonicalizes it again.
func (s *Server) TopKContext(ctx context.Context, c combine.Canonical, k int, tr *obs.Trace) ([]combine.ScoredTuple, Outcome, error) {
	sp, started := s.begin(k, tr)
	return s.serve(ctx, c, k, tr, sp, started)
}

// begin opens a request's canonicalize span and reads the start clock when
// histograms or the slow log are attached.
func (s *Server) begin(k int, tr *obs.Trace) (sp int, started time.Time) {
	sp = tr.StartSpan(obs.StageCanonicalize)
	if s.obsOn {
		started = time.Now()
	}
	tr.SetK(k)
	return sp, started
}

// serve routes one canonical request, its canonicalize span sp still open.
func (s *Server) serve(ctx context.Context, c combine.Canonical, k int, tr *obs.Trace, sp int, started time.Time) ([]combine.ScoredTuple, Outcome, error) {
	// Span discipline: top-level spans tile the request — each stage hands
	// off to the next through Transition (one shared clock reading, zero
	// gap), and the final stage stays open for Finish to close at the same
	// instant it stamps Total. TopLevelSum therefore tracks Total to within
	// a few clock reads even on microsecond hit paths.
	canon, fp := c.Prefs(), c.Fingerprint()
	if tr != nil {
		// Formatting the fingerprint is tracing's own cost; charge it to the
		// canonicalize span so the spans still tile the request.
		tr.SetQuery(fp.String())
	}

	sp = tr.Transition(sp, obs.StageLookup)
	stamp, valid := s.fresh()
	if !valid {
		// The commit may be a Write's that has not synced yet: wait for any
		// Write in progress, then look again.
		s.awaitWrite()
		stamp, valid = s.fresh()
	}
	if !valid {
		// Unsynced mutations exist: a cached entry could not be told apart
		// from a stale one, so serve this request uncached and let the next
		// ApplyDelta re-open the cache.
		s.counters.StaleBypasses.Add(1)
		tr.Transition(sp, obs.StageEvaluate)
		out, err := s.rankFresh(canon, k, tr)
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

// fresh reads the store's epoch stamp and whether the cache was last
// synchronized to it.
func (s *Server) fresh() (stamp uint64, valid bool) {
	stamp = s.db.EpochStamp(s.tables...)
	s.mu.Lock()
	defer s.mu.Unlock()
	return stamp, stamp == s.validStamp
}

// awaitWrite returns once no Write is in progress.
func (s *Server) awaitWrite() {
	s.writeMu.RLock()
	defer s.writeMu.RUnlock()
}

// Write runs fn, which commits to the store and syncs the maintainer this
// server is attached to, as one fenced section. Writes through Write are
// serialized, and a request that sees fn's commit before its Sync waits for
// fn to return instead of evaluating uncached. fn must not query the
// server. A commit made outside Write stays safe, only bypassed
// until the next Sync.
func (s *Server) Write(fn func() error) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return fn()
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

// evaluate is the single-flight leader body. It makes the profile's
// predicates resident in the evaluator's store, then ranks the answer
// straight from their bitmaps (topk.RankResident) when the store still
// stands at the lookup's stamp after the snapshot: the bitmaps then
// describe that synced state, with no commit between the lookup and the
// snapshot to mix into a freshly scanned one. Otherwise (a commit landed,
// or InvalidateAll dropped a bitmap) it ranks through rankFresh, as the
// stale-bypass branch does. It publishes the result entry unless the
// store moved while it worked, in which case the answer is returned but
// nothing is cached. Every leader ticks Evaluations exactly once, so
// Misses == Evaluations.
func (s *Server) evaluate(canon []hypre.ScoredPred, fp combine.Fingerprint, k int, stamp uint64, tr *obs.Trace) ([]combine.ScoredTuple, error) {
	s.counters.Evaluations.Add(1)
	fsp := tr.StartSpan(obs.StageFootprint)
	r, resident, err := s.registerPreds(canon)
	tr.EndSpan(fsp)
	if err != nil {
		return nil, err
	}
	var res []combine.ScoredTuple
	if resident && s.db.EpochStamp(s.tables...) == stamp {
		res = topk.RankResident(r, canon, k, tr)
	} else if res, err = s.rankFresh(canon, k, tr); err != nil {
		return nil, err
	}

	psp := tr.StartSpan(obs.StagePublish)
	s.publish(canon, fp, k, stamp, r.IDs, res)
	tr.EndSpan(psp)
	return res, nil
}

// publish caches res as the answer for (fp, k), its preferences named by
// ids, unless the store moved past stamp, the epoch stamp the request's
// lookup read: the entry must describe the state the evaluation observed.
// Any commit in between moves the epoch stamp, a sum of per-table epochs
// that only increase, and the answer goes uncached. A Sync that swept the
// cache meanwhile followed such a commit, so the same comparison rejects
// an answer its sweep could not repair. The put happens under mu, so no
// Sync can slip between the gate and the insert.
func (s *Server) publish(canon []hypre.ScoredPred, fp combine.Fingerprint, k int, stamp uint64, ids []int32, res []combine.ScoredTuple) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.db.EpochStamp(s.tables...) != stamp {
		return
	}
	slots, _ := topk.AttrSlots(canon)
	prefs := make([]entryPref, 0, len(canon))
	for i, p := range canon {
		if slots[i] >= 0 {
			prefs = append(prefs, entryPref{id: ids[i], slot: int32(slots[i]), intensity: p.Intensity})
		}
	}
	e := &entry{key: entryKey{fp: fp, k: int32(k)}, tuples: cloneTuples(res), prefs: prefs}
	e.size = entryBytes(e)
	s.c.put(e)
}

// rankFresh ranks canon at one committed store state without touching the
// served evaluator: it scans the profile's predicates into a throwaway
// evaluator and ranks from those bitmaps (topk.RankResident) if the store's
// epoch stamp held still across the scans. Nothing it builds is published
// or kept. The scans lock the store one predicate at a time, so a commit
// can land between two of them; it then waits out any Write in progress
// and starts over, so a commit fenced by Write costs at most one retry.
// Commits made outside Write keep it retrying for as long as they land
// faster than one profile scans.
func (s *Server) rankFresh(canon []hypre.ScoredPred, k int, tr *obs.Trace) ([]combine.ScoredTuple, error) {
	for {
		stamp := s.db.EpochStamp(s.tables...)
		ev := combine.NewEvaluator(s.db, s.ev.BaseQuery, s.ev.KeyAttr())
		if err := ev.MaterializeAll(canon); err != nil {
			return nil, err
		}
		r, _ := ev.Resident(canon)
		if s.db.EpochStamp(s.tables...) == stamp {
			return topk.RankResident(r, canon, k, tr), nil
		}
		s.awaitWrite()
	}
}

// registerPreds makes every predicate of the profile resident in the
// evaluator's store and returns a snapshot of them (ids in profile order,
// bitmaps, dense-id table). When all are resident already, that is the one
// evaluator call, a lock-free load. Otherwise it scans the ones the
// snapshot lacks, one FootprintScans tick each, which interns them too; no
// Sync's refresh overlaps that materialization, so a Sync either re-matches
// a new bitmap or ran before its scan began. resident is false when a
// bitmap is missing from the second snapshot even so (InvalidateAll ran in
// between); its ids are complete either way.
func (s *Server) registerPreds(canon []hypre.ScoredPred) (r combine.Resident, resident bool, err error) {
	if r, resident = s.ev.Resident(canon); resident {
		return r, true, nil
	}
	var missing []hypre.ScoredPred
	for i, b := range r.Bits {
		if b == nil {
			missing = append(missing, canon[i])
		}
	}
	if err := s.ev.MaterializeAll(missing); err != nil {
		return r, false, err
	}
	s.counters.FootprintScans.Add(int64(len(missing)))
	r, resident = s.ev.Resident(canon)
	return r, resident, nil
}

// ApplyDelta is the delta.CacheSyncer hook: after a mutation batch, the
// maintainer hands over its refresh's row delta and the epochs it synced to.
// A non-nil delta follows a commit, which moved the epoch stamp, so an
// evaluation that looked up before it fails its publish gate. An entry none
// of whose predicates moved stays as it is. One that names a moved predicate
// is repaired: its touched tuples are re-graded and ranked against its old
// k-th tuple (syncBatch.fix), and it is dropped only when a member fell out
// with nothing proven to replace it. The sweep visits every entry of every
// shard, binary-searching d.Moved for each of its preferences until one is
// found, all under mu, which every request's freshness check also takes: its
// cost grows with the number of cached entries, not only with the moved ones
// (ROADMAP item 22 indexes entries by predicate to fix that). The re-match
// itself ran in the refresh, outside mu.
func (s *Server) ApplyDelta(d *combine.RowDelta, leftEpoch, rightEpoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d != nil && len(d.Moved) > 0 {
		dropped, repaired := s.c.sweep((&syncBatch{d: d}).fix)
		s.counters.Invalidated.Add(int64(dropped))
		s.counters.Repaired.Add(int64(repaired))
	}
	s.validStamp = leftEpoch + rightEpoch
}

// InvalidateAll is the delta.CacheSyncer full-rebuild hook: every entry is
// dropped (the store state they described is gone), and the server
// resynchronizes to the given epochs. Like a non-nil ApplyDelta, it runs
// only after a commit moved the epoch stamp.
func (s *Server) InvalidateAll(leftEpoch, rightEpoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.c.purge()
	s.counters.Invalidated.Add(int64(n))
	s.validStamp = leftEpoch + rightEpoch
}
