package experiments

import (
	"io"
	"runtime"
	"time"

	"hypre/internal/bitset"
	"hypre/internal/combine"
)

// ShardPoint is one worker count of the partition-sharding sweep.
type ShardPoint struct {
	Workers     int
	PairBuild   time.Duration // warm pair-count sweep (span × anchor tasks)
	Materialize time.Duration // cold bulk materialization (fresh evaluator)
	PEPS        time.Duration // PEPSSharded at K
}

// ShardsResult reports how the sharded evaluation layer scales with worker
// count on one user's profile, plus the equivalence verdict: every sharded
// output along the sweep is compared against the serial path.
type ShardsResult struct {
	UID     int64
	Prefs   int
	Pairs   int
	Spans   int // dense-id partitions (bitset.SpanCount of the dict)
	CPUs    int // runtime.NumCPU — speedup is bounded by this, record it
	K       int
	Reps    int
	Matched bool
	Points  []ShardPoint
}

// RunShards sweeps worker counts over the three sharded hot paths —
// BuildPairTable's (span × anchor) count sweep on a warm cache, cold
// MaterializeAll, and PEPSSharded — taking the best of reps runs per
// point, and verifies each point's pair table and top-k ranking are
// byte-identical to the serial algorithms.
func RunShards(l *Lab, uid int64, workerCounts []int, k, profileCap, reps int) (*ShardsResult, error) {
	if reps < 1 {
		reps = 1
	}
	prefs := l.ProfileFor(uid, profileCap)
	res := &ShardsResult{
		UID:     uid,
		Prefs:   len(prefs),
		CPUs:    runtime.NumCPU(),
		K:       k,
		Reps:    reps,
		Matched: true,
	}

	// Serial reference: the oracle every sweep point must reproduce.
	evS := l.Evaluator()
	evS.Workers = 1
	ptS, err := combine.BuildPairTable(prefs, evS)
	if err != nil {
		return nil, err
	}
	refTopK, err := combine.PEPS(prefs, ptS, evS, k, combine.Complete)
	if err != nil {
		return nil, err
	}
	res.Pairs = len(ptS.Pairs)
	res.Spans = bitset.SpanCount(evS.Dict().Size())

	for _, w := range workerCounts {
		pt := &ShardPoint{Workers: w}

		// Cold materialization: a fresh evaluator per rep so every profile
		// predicate pays its scan.
		for r := 0; r < reps; r++ {
			ev := l.Evaluator()
			ev.Workers = w
			start := time.Now()
			if err := ev.MaterializeAll(prefs); err != nil {
				return nil, err
			}
			if d := time.Since(start); r == 0 || d < pt.Materialize {
				pt.Materialize = d
			}
		}

		// Warm pair build: one materialized evaluator, reps timed sweeps.
		ev := l.Evaluator()
		ev.Workers = w
		if err := ev.MaterializeAll(prefs); err != nil {
			return nil, err
		}
		var table *combine.PairTable
		for r := 0; r < reps; r++ {
			start := time.Now()
			table, err = combine.BuildPairTable(prefs, ev)
			if err != nil {
				return nil, err
			}
			if d := time.Since(start); r == 0 || d < pt.PairBuild {
				pt.PairBuild = d
			}
		}

		var topk combine.TopKResult
		for r := 0; r < reps; r++ {
			start := time.Now()
			topk, err = combine.PEPSSharded(prefs, table, ev, k, combine.Complete)
			if err != nil {
				return nil, err
			}
			if d := time.Since(start); r == 0 || d < pt.PEPS {
				pt.PEPS = d
			}
		}

		if !samePairs(ptS, table) || !sameTopK(refTopK, topk) {
			res.Matched = false
		}
		res.Points = append(res.Points, *pt)
	}
	return res, nil
}

func samePairs(a, b *combine.PairTable) bool {
	if len(a.Pairs) != len(b.Pairs) {
		return false
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			return false
		}
	}
	return true
}

func sameTopK(a, b combine.TopKResult) bool {
	return a.AnchorsUsed == b.AnchorsUsed && sameRanking(a.Tuples, b.Tuples)
}

// Render prints the sweep with speedups relative to the 1-worker point.
func (r *ShardsResult) Render(w io.Writer) {
	fprintf(w, "Partition-sharded evaluation sweep (uid=%d): %d prefs, %d pairs, %d span(s), k=%d, %d cpus, best of %d, matched=%v\n",
		r.UID, r.Prefs, r.Pairs, r.Spans, r.K, r.CPUs, r.Reps, r.Matched)
	var base *ShardPoint
	for i := range r.Points {
		if r.Points[i].Workers == 1 {
			base = &r.Points[i]
			break
		}
	}
	speedup := func(b, d time.Duration) float64 {
		if base == nil || d <= 0 {
			return 0
		}
		return float64(b) / float64(d)
	}
	for _, p := range r.Points {
		if base != nil {
			fprintf(w, "  workers=%-3d pair build %10v (%.2fx)  materialize %10v (%.2fx)  peps %10v (%.2fx)\n",
				p.Workers, p.PairBuild, speedup(base.PairBuild, p.PairBuild),
				p.Materialize, speedup(base.Materialize, p.Materialize),
				p.PEPS, speedup(base.PEPS, p.PEPS))
		} else {
			fprintf(w, "  workers=%-3d pair build %10v  materialize %10v  peps %10v\n",
				p.Workers, p.PairBuild, p.Materialize, p.PEPS)
		}
	}
}
