// Package obs is the engine's observability layer: per-query traces with
// stage spans and engine counters, lock-cheap log-linear latency histograms,
// a process-wide registry, a threshold-gated slow-query log, and the debug
// HTTP surface (/metrics, /debug/slowlog, /debug/trace, pprof).
//
// The layer is zero-overhead when disabled: every Trace method is nil-safe
// (the disabled path is one predictable nil check, no allocation), and the
// serving tier only reads clocks when a registry, slow log, or trace is
// actually attached. obs depends on the standard library only, so every
// engine package (relstore, combine, topk, cache, delta) may import it
// without cycles.
package obs

// Stage names used by the engine's traced paths. Keeping them as shared
// constants means a trace from any layer names its spans consistently and
// the docs/tests can refer to stages by identity, not by copied strings.
const (
	// StageCanonicalize is profile canonicalization + fingerprinting.
	StageCanonicalize = "canonicalize"
	// StageLookup is the result cache probe (including the staleness
	// stamp check).
	StageLookup = "cache_lookup"
	// StageFlight is the single-flight section: the leader's evaluation or
	// a waiter's wait, span-nested under it.
	StageFlight = "flight"
	// StageFootprint makes a miss's predicates resident in the evaluator's
	// store (one vectorized scan per predicate without a bitmap).
	StageFootprint = "footprint"
	// StageResident ranks a miss straight from its predicates' resident
	// bitmaps (dense grade fold + top-k heap; no store block is read).
	StageResident = "resident"
	// StageRank is final ranking/merging/cloning of the answer.
	StageRank = "rank"
	// StagePublish is the cache publish gate (entry construction + insert).
	StagePublish = "publish"
	// StageEvaluate is an uncached evaluation outside the single-flight
	// path (the stale-bypass route).
	StageEvaluate = "evaluate"
)
