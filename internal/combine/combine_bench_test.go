package combine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hypre/internal/bitset"
	"hypre/internal/hypre"
	"hypre/internal/relstore"
	"hypre/internal/workload"
)

func benchProfile(b *testing.B) ([]hypre.ScoredPred, *Evaluator) {
	b.Helper()
	ev := NewEvaluator(benchDB(), baseQuery, "dblp.pid")
	prefs := []hypre.ScoredPred{
		mustSPB(b, `dblp.venue="VLDB"`, 0.50),
		mustSPB(b, `dblp.venue="PVLDB"`, 0.45),
		mustSPB(b, `dblp.venue="SIGMOD"`, 0.40),
		mustSPB(b, `dblp_author.aid=1`, 0.30),
		mustSPB(b, `dblp_author.aid=2`, 0.25),
		mustSPB(b, `dblp_author.aid=3`, 0.20),
		mustSPB(b, `dblp.year>=2009`, 0.10),
	}
	return prefs, ev
}

func mustSPB(b *testing.B, pred string, in float64) hypre.ScoredPred {
	b.Helper()
	p, err := hypre.NewScoredPred(pred, in)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// benchDB mirrors the Table 6 fixture without *testing.T plumbing.
func benchDB() *relstore.DB { return buildTestDB() }

func BenchmarkCombineTwoAND(b *testing.B) {
	prefs, ev := benchProfile(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CombineTwo(prefs, ev, SemanticsAND); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartiallyCombineAll(b *testing.B) {
	prefs, ev := benchProfile(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PartiallyCombineAll(prefs, ev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBiasRandom(b *testing.B) {
	prefs, ev := benchProfile(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BiasRandom(prefs, ev, rand.New(rand.NewSource(int64(i))), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPEPSComplete(b *testing.B) {
	prefs, ev := benchProfile(b)
	pt, err := BuildPairTable(prefs, ev)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PEPS(prefs, pt, ev, 9, Complete); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildPairTable(b *testing.B) {
	prefs, ev := benchProfile(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildPairTable(prefs, ev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntSetIntersect(b *testing.B) {
	xs := make([]int64, 2000)
	ys := make([]int64, 2000)
	for i := range xs {
		xs[i] = int64(i * 2)
		ys[i] = int64(i * 3)
	}
	a, c := NewIntSet(xs), NewIntSet(ys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Intersect(c)
	}
}

func BenchmarkIntSetIntersectGalloping(b *testing.B) {
	// 20 vs 20000 elements: forces the exponential-search path.
	xs := make([]int64, 20)
	ys := make([]int64, 20000)
	for i := range xs {
		xs[i] = int64(i * 1000)
	}
	for i := range ys {
		ys[i] = int64(i * 3)
	}
	a, c := NewIntSet(xs), NewIntSet(ys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Intersect(c)
	}
}

func benchBitmapPair() (*Bitmap, *Bitmap) {
	d := NewPidDict()
	a, c := NewBitmap(), NewBitmap()
	for i := 0; i < 2000; i++ {
		a.Set(d.Add(int64(i * 2)))
	}
	for i := 0; i < 2000; i++ {
		c.Set(d.Add(int64(i * 3)))
	}
	return a, c
}

func BenchmarkBitmapAnd(b *testing.B) {
	x, y := benchBitmapPair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.And(y)
	}
}

func BenchmarkBitmapAndCard(b *testing.B) {
	x, y := benchBitmapPair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.AndCard(y)
	}
}

// BenchmarkPidDict registers 32k pids in a fresh, presized dictionary, as
// an evaluator's first MaterializeAll does. BenchOrder is the first-sight
// order of a materialized profile over a store keyed 1..32000: predicate
// by predicate, each in row order (here 29 ascending passes, each taking a
// random quarter of the pids not yet seen, then the rest). Shuffled is the
// same pids in random order, and Sparse sends them past the direct-address
// window, to the far map.
func BenchmarkPidDict(b *testing.B) {
	const n = 32000
	rng := rand.New(rand.NewSource(1))
	seen := make([]bool, n+1)
	var order []int64
	for pass := 0; pass <= 29; pass++ {
		for pid := 1; pid <= n; pid++ {
			if !seen[pid] && (pass == 29 || rng.Intn(4) == 0) {
				seen[pid] = true
				order = append(order, int64(pid))
			}
		}
	}
	shuffled := slices.Clone(order)
	rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	sparse := make([]int64, n)
	for i, pid := range order {
		sparse[i] = pid<<33 - 5
	}
	for _, tc := range []struct {
		name string
		pids []int64
	}{{"BenchOrder", order}, {"Shuffled", shuffled}, {"Sparse", sparse}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := NewPidDict()
				d.Reserve(n)
				for _, pid := range tc.pids {
					d.Add(pid)
				}
			}
		})
	}
}

// classBenchProfile is a 40-preference profile over bigShardDB's columns:
// disjoint atoms (a venue, a score bucket, a two-year window) under a few
// broad predicates, intensities descending — the shape of a positive profile
// extracted from the citation workload, where a profile's predicates credit
// most of the store but distinguish only ~10³ signature classes.
func classBenchProfile(tb testing.TB) []hypre.ScoredPred {
	tb.Helper()
	preds := []string{
		`dblp.year>=2010`, `dblp.score>=7.5`, `NOT (dblp.venue="CHI")`,
		`dblp.venue IN ("VLDB","SIGMOD")`, `dblp.year BETWEEN 1995 AND 2005`,
		`dblp.score<2.5`, `dblp.venue IN ("KDD","WWW")`, `dblp.year<2000`,
		`dblp.score BETWEEN 4 AND 6`,
	}
	for _, v := range []string{"VLDB", "SIGMOD", "ICDE", "KDD", "WWW", "CHI"} {
		preds = append(preds, fmt.Sprintf(`dblp.venue=%q`, v))
	}
	for s := 0; s < 10; s++ {
		preds = append(preds, fmt.Sprintf(`dblp.score>=%d AND dblp.score<%d`, s, s+1))
	}
	for y := 1990; y < 2020; y += 2 {
		preds = append(preds, fmt.Sprintf(`dblp.year BETWEEN %d AND %d`, y, y+1))
	}
	out := make([]hypre.ScoredPred, len(preds))
	for i, p := range preds {
		out[i] = mustSP(tb, p, 0.9*math.Pow(0.93, float64(i)))
	}
	return out
}

// BenchmarkPEPSShardedClasses times the signature-class kernel alone (the
// predicate bitmaps and the pair table are built once, outside the loop) on
// a 32k-row joinless store under a 40-preference profile.
func BenchmarkPEPSShardedClasses(b *testing.B) {
	ev := NewEvaluator(bigShardDB(b, 32000, 5), flatBaseQuery, "dblp.pid")
	prefs := classBenchProfile(b)
	pt, err := BuildPairTable(prefs, ev)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PEPSSharded(prefs, pt, ev, 100, Complete); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResidentDuringRefresh times Resident snapshots of a two-predicate
// profile while a background loop refreshes 4k resident predicates over
// every row of the store, back to back. A reader that waited out the
// refresh in flight would pay for the refresh, not for its own lookup.
func BenchmarkResidentDuringRefresh(b *testing.B) {
	const preds = 4096
	ev := NewEvaluator(benchDB(), baseQuery, "dblp.pid")
	prefs := make([]hypre.ScoredPred, preds)
	for i := range prefs {
		prefs[i] = mustSPB(b, fmt.Sprintf("dblp.year>=2006 AND dblp.pid<>%d", i), 0.5)
	}
	if err := ev.MaterializeAll(prefs); err != nil {
		b.Fatal(err)
	}
	touched := bitset.New()
	touched.AddRange(0, ev.DB().Table("dblp").Len())
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ev.RefreshRowSetDelta(touched, nil); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	profile := prefs[:2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ev.Resident(profile); !ok {
			b.Fatal("profile not resident")
		}
	}
	b.StopTimer()
	close(stop)
	<-stopped
}

// BenchmarkRefreshResident times one Sync-sized refresh —
// RefreshRowSetDelta over a fixed 16-row touched set of a generated
// 4000-paper store — with 1k, 4k and 16k resident predicates: left-side
// ranges and joined author equalities, each narrowed by a year. A refresh
// re-matches every resident predicate at the touched rows, so its time
// follows the predicates ever resident, not the batch; one that followed
// the batch would read flat across the three sizes.
func BenchmarkRefreshResident(b *testing.B) {
	cfg := workload.DefaultConfig()
	net, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	touched := bitset.New()
	for i := range 16 {
		touched.Add(i * cfg.NumPapers / 16)
	}
	for _, n := range []int{1 << 10, 1 << 12, 1 << 14} {
		b.Run(fmt.Sprintf("preds=%d", n), func(b *testing.B) {
			ev := NewEvaluator(net.DB, workload.BaseQuery, "dblp.pid")
			prefs := make([]hypre.ScoredPred, n)
			for i := range prefs {
				j := i / 2
				text := fmt.Sprintf("dblp.pid>=%d AND dblp.year>=%d", j%cfg.NumPapers, cfg.MinYear+j/cfg.NumPapers)
				if i%2 == 1 {
					text = fmt.Sprintf("dblp_author.aid=%d AND dblp.year>=%d", j%cfg.NumAuthors, cfg.MinYear+j/cfg.NumAuthors)
				}
				prefs[i] = mustSPB(b, text, 0.5)
			}
			if err := ev.MaterializeAll(prefs); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for range b.N {
				if _, err := ev.RefreshRowSetDelta(touched, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
