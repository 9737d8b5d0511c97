package combine

import (
	"sort"
	"sync/atomic"

	"hypre/internal/bitset"
	"hypre/internal/hypre"
)

// PairEntry is one row of the pre-computed combinations-of-two table of
// §5.5: an applicable AND pair of profile preferences with its combined
// intensity and tuple count.
type PairEntry struct {
	I, J      int // indexes into the profile (I < J)
	Intensity float64
	Count     int
}

// PairTable holds every applicable two-preference combination, sorted
// descending by combined intensity, with a per-first-preference index. It
// is rebuilt when the preference graph changes (the paper updates it on
// graph updates) and never patched: after store mutations, build it again
// over the evaluator delta.Maintainer keeps exact — a popcount sweep with
// no store scan.
type PairTable struct {
	Prefs   []hypre.ScoredPred
	Pairs   []PairEntry
	byFirst map[int][]PairEntry
}

// BuildPairTable computes the table: all (i, j) with i < j whose AND
// combination is applicable (returns tuples). It runs in two phases: a bulk
// materialization of every predicate bitmap (MaterializeAll's worker pool
// of vectorized scans, through the evaluator's cache), then a
// partition-sharded sweep: the pair counts fan out over (container span ×
// anchor) tasks, each intersecting container-local bitmaps, and the
// per-span partial counts merge by summation — sound because containers
// partition the key space, so Σ_span AndCardSpan equals AndCard exactly.
// The evaluator is read-only concurrent-safe at that point. Output is
// deterministic: counts land in fixed triangular slots and rows assemble in
// anchor order before the stable intensity sort, so the table is
// byte-identical across worker and span counts.
func BuildPairTable(prefs []hypre.ScoredPred, ev *Evaluator) (*PairTable, error) {
	pt := &PairTable{Prefs: prefs, byFirst: make(map[int][]PairEntry)}
	n := len(prefs)
	if n == 0 {
		return pt, nil
	}

	// Phase 1 (bulk): one vectorized scan per uncached predicate, fanned
	// out over the worker pool into the shared-dict bitmap cache.
	if err := ev.MaterializeAll(prefs); err != nil {
		return nil, err
	}
	bms := make([]*Bitmap, n)
	for i, p := range prefs {
		b, err := ev.PredBitmap(p)
		if err != nil {
			return nil, err
		}
		bms[i] = b
	}

	counts := buildPairCounts(bms, ev.workerTarget())

	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			cnt := counts[triIndex(n, i, j)]
			if cnt == 0 {
				continue
			}
			pt.Pairs = append(pt.Pairs, PairEntry{
				I:         i,
				J:         j,
				Intensity: hypre.FAndAll(prefs[i].Intensity, prefs[j].Intensity),
				Count:     int(cnt),
			})
		}
	}
	sort.SliceStable(pt.Pairs, func(a, b int) bool {
		return pt.Pairs[a].Intensity > pt.Pairs[b].Intensity
	})
	for _, e := range pt.Pairs {
		pt.byFirst[e.I] = append(pt.byFirst[e.I], e)
	}
	return pt, nil
}

// triIndex maps a pair (i < j) over n preferences to its slot in the packed
// upper-triangular count vector.
func triIndex(n, i, j int) int { return i*(2*n-i-1)/2 + (j - i - 1) }

// buildPairCounts runs the pair-count sweep. Its tasks are (span, anchor)
// cells of the partition grid: the spans of SpanUnion over every predicate
// bitmap times the n anchor rows, handed out by parallelFor (inline for one
// worker) so dense spans and long anchor rows balance across the pool;
// each task popcounts container-local intersections and adds them into the
// shared triangular accumulator (summation is commutative, so the totals
// are exact regardless of interleaving). Single-span domains — any
// dictionary under 64k dense ids — degenerate to one task per anchor, i.e.
// plain anchor parallelism.
func buildPairCounts(bms []*Bitmap, workers int) []int64 {
	n := len(bms)
	counts := make([]int64, n*(n-1)/2)
	sets := make([]*bitset.Set, n)
	for i, b := range bms {
		sets[i] = b.s
	}
	spans := bitset.SpanUnion(sets...)
	parallelFor(workers, len(spans)*n, func(t int) {
		span, i := spans[t/n], t%n
		si := sets[i]
		for j := i + 1; j < n; j++ {
			if c := si.AndCardSpan(sets[j], span); c != 0 {
				atomic.AddInt64(&counts[triIndex(n, i, j)], int64(c))
			}
		}
	})
	return counts
}

// CombsOfTwo returns the valid pairs starting at preference index i,
// descending by combined intensity — the CombsOfTwo(p) lookup of
// Algorithm 6.
func (pt *PairTable) CombsOfTwo(i int) []PairEntry { return pt.byFirst[i] }
