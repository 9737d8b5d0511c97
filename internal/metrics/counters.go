package metrics

import "sync/atomic"

// CacheCounters is the serving-tier observability surface: every counter
// the result cache increments on its hot path, lock-free. One instance is
// shared between the cache shards and the server wrapper; bench/ snapshots
// it into its cache.* layer metrics.
//
// PlanHits and PlanRepairs belonged to a plan tier (cached TA lists
// re-ranked for a new k, patched in place by maintenance syncs) that no
// workload ever reached and that has been deleted. Nothing increments them;
// they stay declared, reading 0, only because bench/ — frozen outside
// benchmark PRs — copies the CacheSnapshot fields it knows by name.
type CacheCounters struct {
	// Hits counts result-cache hits (answer returned without evaluation).
	Hits atomic.Int64
	// Misses counts requests that found no result entry and led their
	// single-flight group. Every such leader runs one evaluation against
	// the store: Misses == Evaluations.
	Misses atomic.Int64
	// PlanHits is always 0 (see the type comment).
	PlanHits atomic.Int64
	// Evaluations counts store evaluations run on behalf of misses
	// (streams or list builds + TA). Stale-bypass evaluations are tracked
	// by StaleBypasses, not here.
	Evaluations atomic.Int64
	// SharedWaits counts requests that piggybacked on another session's
	// in-flight evaluation of the same fingerprint (single-flight dedup).
	SharedWaits atomic.Int64
	// Evictions counts entries dropped by the byte-budget LRU.
	Evictions atomic.Int64
	// Invalidated counts entries dropped by a maintenance sync: a member
	// fell out with nothing proven to replace it, a predicate's footprint
	// was lost, or a full rebuild emptied the cache.
	Invalidated atomic.Int64
	// Repaired counts entries a maintenance sync replaced with a repaired
	// answer instead of dropping (entries whose answer did not change are
	// left in place and not counted).
	Repaired atomic.Int64
	// PlanRepairs is always 0 (see the type comment).
	PlanRepairs atomic.Int64
	// StaleBypasses counts requests served uncached because the store's
	// epoch stamp had advanced past the cache's last synced state.
	StaleBypasses atomic.Int64
	// FootprintScans counts predicate-footprint registrations (one scan
	// per distinct predicate per cache lifetime).
	FootprintScans atomic.Int64
}

// CacheSnapshot is a plain-value copy of the counters, for JSON records and
// assertions.
type CacheSnapshot struct {
	Hits           int64 `json:"hits"`
	Misses         int64 `json:"misses"`
	PlanHits       int64 `json:"plan_hits"`
	Evaluations    int64 `json:"evaluations"`
	SharedWaits    int64 `json:"shared_waits"`
	Evictions      int64 `json:"evictions"`
	Invalidated    int64 `json:"invalidated"`
	Repaired       int64 `json:"repaired"`
	PlanRepairs    int64 `json:"plan_repairs"`
	StaleBypasses  int64 `json:"stale_bypasses"`
	FootprintScans int64 `json:"footprint_scans"`
}

// Snapshot reads every counter once. Individual loads are atomic; the
// snapshot as a whole is approximate under concurrent traffic, which is all
// a metrics export needs.
func (c *CacheCounters) Snapshot() CacheSnapshot {
	return CacheSnapshot{
		Hits:           c.Hits.Load(),
		Misses:         c.Misses.Load(),
		PlanHits:       c.PlanHits.Load(),
		Evaluations:    c.Evaluations.Load(),
		SharedWaits:    c.SharedWaits.Load(),
		Evictions:      c.Evictions.Load(),
		Invalidated:    c.Invalidated.Load(),
		Repaired:       c.Repaired.Load(),
		PlanRepairs:    c.PlanRepairs.Load(),
		StaleBypasses:  c.StaleBypasses.Load(),
		FootprintScans: c.FootprintScans.Load(),
	}
}

// HitRate is result-cache hits over served lookups (hits + misses + shared
// waits); 0 when nothing has been served.
func (s CacheSnapshot) HitRate() float64 {
	total := s.Hits + s.Misses + s.SharedWaits
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}
