package combine

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"hypre/internal/bitset"
	"hypre/internal/hypre"
	"hypre/internal/predicate"
	"hypre/internal/relstore"
)

// shardWorkerCounts is the sweep every sharding equivalence test runs:
// serial, minimal parallelism, the machine's width, and a count far above
// both the span and anchor counts (oversubscription must degrade to
// clamping, never to divergence).
func shardWorkerCounts() []int {
	return []int{1, 2, runtime.NumCPU(), 64}
}

// bigShardDB builds a joinless store wide enough that the evaluator's dense
// dictionary spans several 64k containers — the regime where the partition
// layer shards across real span boundaries rather than degenerating to
// anchor parallelism.
func bigShardDB(tb testing.TB, rows int, seed int64) *relstore.DB {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := relstore.NewDB()
	tbl, err := db.CreateTable("dblp",
		relstore.Column{Name: "pid", Kind: predicate.KindInt},
		relstore.Column{Name: "venue", Kind: predicate.KindString},
		relstore.Column{Name: "year", Kind: predicate.KindInt},
		relstore.Column{Name: "score", Kind: predicate.KindFloat},
	)
	if err != nil {
		tb.Fatal(err)
	}
	venues := []string{"VLDB", "SIGMOD", "ICDE", "KDD", "WWW", "CHI"}
	for r := 0; r < rows; r++ {
		if _, err := tbl.Insert(
			predicate.Int(int64(r)),
			predicate.String(venues[rng.Intn(len(venues))]),
			predicate.Int(int64(1990+rng.Intn(30))),
			predicate.Float(rng.Float64()*10),
		); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

func flatBaseQuery(w predicate.Predicate) relstore.Query {
	return relstore.Query{From: "dblp", Where: w}
}

// bigShardProfile mixes broad and selective predicates so the dense
// dictionary covers every row (multi-span bitmaps) while pair counts stay
// non-trivial.
func bigShardProfile(tb testing.TB) []hypre.ScoredPred {
	tb.Helper()
	specs := []struct {
		pred string
		in   float64
	}{
		{`dblp.year>=1990`, 0.93},
		{`dblp.venue="VLDB"`, 0.88},
		{`dblp.year>=2010`, 0.8},
		{`dblp.score<2.5`, 0.74},
		{`dblp.venue="SIGMOD"`, 0.66},
		{`dblp.year BETWEEN 1995 AND 2005`, 0.58},
		{`dblp.venue IN ("KDD","WWW")`, 0.52},
		{`dblp.score>=7.5`, 0.45},
		{`NOT (dblp.venue="CHI")`, 0.36},
		{`dblp.year<1993`, 0.28},
		{`dblp.venue="ICDE" AND dblp.year>=2000`, 0.2},
		{`dblp.score BETWEEN 4 AND 6`, 0.12},
	}
	out := make([]hypre.ScoredPred, len(specs))
	for i, s := range specs {
		sp, err := hypre.NewScoredPred(s.pred, s.in)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = sp
	}
	return out
}

const bigShardRows = 2*65536 + 9000 // dense dictionary spans 3 containers

func bigShardEvaluator(tb testing.TB, db *relstore.DB, workers int) *Evaluator {
	ev := NewEvaluator(db, flatBaseQuery, "dblp.pid")
	ev.Workers = workers
	return ev
}

func assertSamePredSets(t *testing.T, tag string, profile []hypre.ScoredPred, want, got *Evaluator) {
	t.Helper()
	for _, p := range profile {
		ws, gs := predSet(t, want, p), predSet(t, got, p)
		if len(ws) != len(gs) {
			t.Fatalf("%s: %s: %d pids, want %d", tag, p.Pred, len(gs), len(ws))
		}
		for i := range ws {
			if ws[i] != gs[i] {
				t.Fatalf("%s: %s: pid[%d]=%d, want %d", tag, p.Pred, i, gs[i], ws[i])
			}
		}
	}
	if want.Dict().Size() != got.Dict().Size() {
		t.Fatalf("%s: dict size %d, want %d", tag, got.Dict().Size(), want.Dict().Size())
	}
	for i := 0; i < want.Dict().Size(); i++ {
		if want.Dict().PID(i) != got.Dict().PID(i) {
			t.Fatalf("%s: dense slot %d holds pid %d, want %d", tag, i, got.Dict().PID(i), want.Dict().PID(i))
		}
	}
}

func assertSamePairs(t *testing.T, tag string, want, got *PairTable) {
	t.Helper()
	if len(want.Pairs) != len(got.Pairs) {
		t.Fatalf("%s: %d pairs, want %d", tag, len(got.Pairs), len(want.Pairs))
	}
	for i := range want.Pairs {
		if want.Pairs[i] != got.Pairs[i] {
			t.Fatalf("%s: pair[%d]=%+v, want %+v", tag, i, got.Pairs[i], want.Pairs[i])
		}
	}
}

func assertSameTopK(t *testing.T, tag string, want, got TopKResult) {
	t.Helper()
	if got.AnchorsUsed != want.AnchorsUsed {
		t.Fatalf("%s: AnchorsUsed=%d, want %d", tag, got.AnchorsUsed, want.AnchorsUsed)
	}
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("%s: %d tuples, want %d", tag, len(got.Tuples), len(want.Tuples))
	}
	for i := range want.Tuples {
		if want.Tuples[i] != got.Tuples[i] {
			t.Fatalf("%s: rank %d: %+v, want %+v", tag, i, got.Tuples[i], want.Tuples[i])
		}
	}
}

// TestShardedEvalMultiSpanMatchesSerial is the multi-span acceptance
// property: over a store whose dense dictionary crosses container
// boundaries, sharded MaterializeAll, the span-sharded pair-table build,
// and sharded PEPS are byte-identical to the serial path across shard
// counts {1, 2, NumCPU, 64}.
func TestShardedEvalMultiSpanMatchesSerial(t *testing.T) {
	db := bigShardDB(t, bigShardRows, 3)
	profile := bigShardProfile(t)

	serial := bigShardEvaluator(t, db, 1)
	serialPT, err := BuildPairTable(profile, serial)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Dict().Size() <= 2*65536 {
		t.Fatalf("fixture too small: dict %d ids does not cross two span boundaries", serial.Dict().Size())
	}

	for _, workers := range shardWorkerCounts()[1:] {
		tag := fmt.Sprintf("workers=%d", workers)
		ev := bigShardEvaluator(t, db, workers)
		pt, err := BuildPairTable(profile, ev)
		if err != nil {
			t.Fatal(err)
		}
		assertSamePredSets(t, tag, profile, serial, ev)
		assertSamePairs(t, tag, serialPT, pt)
	}

	for _, workers := range shardWorkerCounts() {
		ev := bigShardEvaluator(t, db, workers)
		pt, err := BuildPairTable(profile, ev)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 10, 500} {
			for _, v := range []Variant{Complete, Approximate} {
				tag := fmt.Sprintf("workers=%d k=%d %s", workers, k, v)
				want, err := PEPS(profile, pt, ev, k, v)
				if err != nil {
					t.Fatal(err)
				}
				got, err := PEPSSharded(profile, pt, ev, k, v)
				if err != nil {
					t.Fatal(err)
				}
				assertSameTopK(t, tag, want, got)
			}
		}
	}

	// That profile tells only a few hundred signature classes apart, so its
	// class masks never split. Same sweep over a two-span store whose profile
	// tells 2^14−1 apart: the class universe is then several minimum word
	// ranges wide and PEPSSharded's own fan-out runs, every class with
	// members in both spans.
	wideDB, wideProfile := bitsDB(t, 14, 65536+9000), bitsProfile(t, 14)
	ev := bigShardEvaluator(t, wideDB, 1)
	sets := make([]*bitset.Set, len(wideProfile))
	for i, p := range wideProfile {
		b, err := ev.PredBitmap(p)
		if err != nil {
			t.Fatal(err)
		}
		sets[i] = b.s
	}
	if words := len(classify(sets, ev.Dict().Size()).masks[0]); words < 4*minShardWords {
		t.Fatalf("fixture too narrow: class masks of %d words do not split four ways", words)
	}
	assertShardedMatchesPEPS(t, "wide classes", wideDB, wideProfile, []int{10, 500})
}

// TestShardedEvalRandomProfiles fuzzes the sharded paths on the Table 6
// fixture: random profiles (random predicate subsets, random intensities),
// every shard count, both variants — pair tables and top-k rankings must
// match the serial algorithms exactly.
func TestShardedEvalRandomProfiles(t *testing.T) {
	pool := []string{
		`dblp.venue="VLDB"`, `dblp.venue="PVLDB"`, `dblp.venue="SIGMOD"`,
		`dblp.venue="INFOCOM"`, `dblp_author.aid=1`, `dblp_author.aid=2`,
		`dblp_author.aid=3`, `dblp_author.aid=6`, `dblp.year>=2009`,
		`dblp.year<2008`, `dblp.year BETWEEN 2006 AND 2010`,
		`dblp.venue IN ("VLDB", "PVLDB")`, `NOT (dblp.venue="VLDB")`,
	}
	rng := rand.New(rand.NewSource(17))
	db := testDB(t)
	for trial := 0; trial < 25; trial++ {
		perm := rng.Perm(len(pool))
		n := 3 + rng.Intn(len(pool)-3)
		profile := make([]hypre.ScoredPred, 0, n)
		intensity := 0.99
		for _, pi := range perm[:n] {
			sp, err := hypre.NewScoredPred(pool[pi], intensity)
			if err != nil {
				t.Fatal(err)
			}
			profile = append(profile, sp)
			intensity *= 0.8 + 0.15*rng.Float64()
		}
		serial := NewEvaluator(db, baseQuery, "dblp.pid")
		serial.Workers = 1
		serialPT, err := BuildPairTable(profile, serial)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(12)
		for _, workers := range shardWorkerCounts() {
			tag := fmt.Sprintf("trial %d workers=%d k=%d", trial, workers, k)
			ev := NewEvaluator(db, baseQuery, "dblp.pid")
			ev.Workers = workers
			pt, err := BuildPairTable(profile, ev)
			if err != nil {
				t.Fatal(err)
			}
			assertSamePairs(t, tag, serialPT, pt)
			for _, v := range []Variant{Complete, Approximate} {
				want, err := PEPS(profile, pt, ev, k, v)
				if err != nil {
					t.Fatal(err)
				}
				got, err := PEPSSharded(profile, pt, ev, k, v)
				if err != nil {
					t.Fatal(err)
				}
				assertSameTopK(t, tag+" "+v.String(), want, got)
			}
		}
	}
}
