// Package main's bench_test.go is the benchmark harness of deliverable (d):
// one testing.B benchmark per table and figure of the dissertation's
// evaluation, each delegating to the internal/experiments runner that
// regenerates the corresponding rows/series (see DESIGN.md's
// per-experiment index and EXPERIMENTS.md for paper-vs-measured notes).
//
// Run everything with:
//
//	go test -bench=. -benchmem
package main

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"hypre/internal/cache"
	"hypre/internal/combine"
	"hypre/internal/experiments"
	"hypre/internal/hypre"
	"hypre/internal/obs"
	"hypre/internal/topk"
	"hypre/internal/workload"
)

var (
	benchOnce sync.Once
	benchLab  *experiments.Lab
	benchErr  error
)

// benchSetup builds the shared workload once; its cost is excluded from
// every benchmark via b.ResetTimer.
// topK serves a raw profile the way hypred does: canonicalize it, then
// TopKContext.
func topK(srv *cache.Server, prefs []hypre.ScoredPred, k int, tr *obs.Trace) ([]combine.ScoredTuple, cache.Outcome, error) {
	return srv.TopKContext(context.Background(), combine.Canonicalize(prefs), k, tr)
}

func benchSetup(b *testing.B) *experiments.Lab {
	b.Helper()
	benchOnce.Do(func() {
		cfg := workload.DefaultConfig()
		cfg.NumPapers = 2000
		cfg.NumAuthors = 600
		cfg.NumVenues = 25
		benchLab, benchErr = experiments.NewLab(cfg)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchLab
}

const benchProfileCap = 16

func BenchmarkTable10_DatasetStats(b *testing.B) {
	l := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.RunTable10(l)
		if len(r.Relations) == 0 {
			b.Fatal("no relations")
		}
	}
}

func BenchmarkTable11_InsertionTime(b *testing.B) {
	l := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable11(l)
		if err != nil {
			b.Fatal(err)
		}
		if r.QuantCount == 0 {
			b.Fatal("no insertions")
		}
	}
}

func BenchmarkTable12_DefaultValues(b *testing.B) {
	l := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable12(l, l.Modest); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13_NodeInsertion(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig13(5, 20000)
		if len(r.Points) != 5 {
			b.Fatal("bad points")
		}
	}
}

func BenchmarkFig17_PrefDistribution(b *testing.B) {
	l := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig17(l)
		if r.Users == 0 {
			b.Fatal("no users")
		}
	}
}

func BenchmarkFig18_19_Utility(b *testing.B) {
	l := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig18Utility(l, l.Modest, benchProfileCap); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig20_25_TuplesIntensity(b *testing.B) {
	l := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig18Utility(l, l.Rich, benchProfileCap)
		if err != nil {
			b.Fatal(err)
		}
		r.RenderTuplesIntensity(io.Discard)
	}
}

func BenchmarkFig26_27_PrefGrowth(b *testing.B) {
	l := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig26PrefGrowth(l, l.Rich)
		if r.FromGraph == 0 {
			b.Fatal("no growth data")
		}
	}
}

func BenchmarkFig28_Coverage(b *testing.B) {
	l := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig28Coverage(l, l.Modest); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig29_31_CombineTwo(b *testing.B) {
	l := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig29CombineTwo(l, l.Modest, benchProfileCap); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig32_34_PartiallyCombineAll(b *testing.B) {
	l := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig32PartiallyCombineAll(l, l.Modest, benchProfileCap); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig35_36_BiasRandom(b *testing.B) {
	l := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig35BiasRandom(l, l.Modest, 10, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig37_38_PEPSvsTA(b *testing.B) {
	l := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig37PEPSvsTA(l, l.Modest, 100, benchProfileCap); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig39_40_PEPSTime(b *testing.B) {
	l := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig39PEPSTime(l, l.Modest,
			[]int{10, 100, 400, 800}, 1, benchProfileCap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaterializeProfile is the cold-cache predicate materialization
// cost: a fresh evaluator per iteration, so every profile predicate runs
// one real scan through the columnar store and the parallel bulk path —
// the Lab-setup cost every figure pays before any set algebra.
func BenchmarkMaterializeProfile(b *testing.B) {
	l := benchSetup(b)
	for _, tc := range []struct {
		name string
		uid  int64
	}{{"Modest", l.Modest}, {"Rich", l.Rich}} {
		b.Run(tc.name, func(b *testing.B) {
			prefs := l.ProfileFor(tc.uid, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := l.Evaluator()
				if err := ev.MaterializeAll(prefs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOneShotMaterialized answers a cold top-k profile query the way
// the paper's §7.6.1 baseline does: a fresh evaluator every iteration,
// every predicate bitmap built, then TA over sorted lists.
func BenchmarkOneShotMaterialized(b *testing.B) {
	l := benchSetup(b)
	for _, tc := range []struct {
		name string
		uid  int64
	}{{"Modest", l.Modest}, {"Rich", l.Rich}} {
		b.Run(tc.name, func(b *testing.B) {
			prefs := l.ProfileFor(tc.uid, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := l.Evaluator()
				if err := ev.MaterializeAll(prefs); err != nil {
					b.Fatal(err)
				}
				lists, err := topk.BuildLists(ev, prefs)
				if err != nil {
					b.Fatal(err)
				}
				if out := lists.TA(100); len(out) == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}

// BenchmarkCacheServeHitPath prices the observability tier on the hottest
// serving route — a warm result-cache hit — in three configurations: plain
// (nothing attached: the zero-overhead-when-disabled claim, no clock reads
// on the serve path), histogram (registry + slow log attached, requests
// untraced), and traced (a fresh Trace per request, full span capture).
func BenchmarkCacheServeHitPath(b *testing.B) {
	l := benchSetup(b)
	prof := l.ProfileFor(l.Modest, benchProfileCap)
	run := func(b *testing.B, cfg cache.Config, traced bool) {
		srv := cache.NewServer(l.Evaluator(), cfg)
		if _, _, err := topK(srv, prof, 10, nil); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var tr *obs.Trace
			if traced {
				tr = obs.NewTrace()
			}
			_, out, err := topK(srv, prof, 10, tr)
			if err != nil {
				b.Fatal(err)
			}
			if out != cache.Hit {
				b.Fatalf("outcome %v, want Hit", out)
			}
		}
	}
	b.Run("plain", func(b *testing.B) {
		run(b, cache.Config{}, false)
	})
	b.Run("histogram", func(b *testing.B) {
		run(b, cache.Config{
			Registry: obs.NewRegistry(),
			SlowLog:  obs.NewSlowLog(time.Second, 32),
		}, false)
	})
	b.Run("traced", func(b *testing.B) {
		run(b, cache.Config{
			Registry: obs.NewRegistry(),
			SlowLog:  obs.NewSlowLog(time.Second, 32),
		}, true)
	})
}

// shardedBenchWorkers is the shard-count sweep for the partition-sharded
// hot paths; speedup beyond 1 worker is bounded by the machine's cores.
var shardedBenchWorkers = []int{1, 2, 4, 8}

// BenchmarkShardedPairBuild times the (span × anchor)-sharded pair-table
// sweep over a warm evaluator cache, across worker counts, on the rich
// user's full profile — the pure set-algebra phase the partition layer
// parallelizes.
func BenchmarkShardedPairBuild(b *testing.B) {
	l := benchSetup(b)
	prefs := l.ProfileFor(l.Rich, 0)
	for _, w := range shardedBenchWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			ev := l.Evaluator()
			ev.Workers = w
			if err := ev.MaterializeAll(prefs); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := combine.BuildPairTable(prefs, ev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedPEPS times sharded PEPS across worker counts on the
// rich user's full profile (its signature classes fill less than two
// minimum word ranges at this workload size, so every width runs the serial
// kernel: the sweep must stay at parity).
func BenchmarkShardedPEPS(b *testing.B) {
	l := benchSetup(b)
	prefs := l.ProfileFor(l.Rich, benchProfileCap)
	for _, w := range shardedBenchWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			ev := l.Evaluator()
			ev.Workers = w
			pt, err := combine.BuildPairTable(prefs, ev)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := combine.PEPSSharded(prefs, pt, ev, 200, combine.Complete); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblation_Composition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunAblationComposition()
		if len(r.Rows) != 5 {
			b.Fatal("bad rows")
		}
	}
}

func BenchmarkAblation_PEPSVariants(b *testing.B) {
	l := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationPEPS(l, l.Modest, 100, benchProfileCap); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_PairCache(b *testing.B) {
	l := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationPairCache(l, l.Modest, 10); err != nil {
			b.Fatal(err)
		}
	}
}
