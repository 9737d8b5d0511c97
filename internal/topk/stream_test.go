package topk

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hypre/internal/combine"
	"hypre/internal/hypre"
	"hypre/internal/predicate"
	"hypre/internal/relstore"
)

// streamDB builds a randomized dblp-shaped store: papers with a unique pid
// key, a venue drawn from a pool whose size steers predicate selectivity, a
// numeric score column, and a dblp_author join table with zipf-ish author
// popularity.
func streamDB(t *testing.T, rng *rand.Rand, nPapers, nVenues, nAuthors int) *combine.Evaluator {
	t.Helper()
	db := relstore.NewDB()
	dblp, err := db.CreateTable("dblp",
		relstore.Column{Name: "pid", Kind: predicate.KindInt},
		relstore.Column{Name: "venue", Kind: predicate.KindString},
		relstore.Column{Name: "score", Kind: predicate.KindInt},
	)
	if err != nil {
		t.Fatal(err)
	}
	da, err := db.CreateTable("dblp_author",
		relstore.Column{Name: "pid", Kind: predicate.KindInt},
		relstore.Column{Name: "aid", Kind: predicate.KindInt},
	)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < nPapers; p++ {
		pid := int64(p + 1)
		venue := fmt.Sprintf("V%d", rng.Intn(nVenues))
		score := int64(rng.Intn(100))
		if _, err := dblp.Insert(predicate.Int(pid), predicate.String(venue), predicate.Int(score)); err != nil {
			t.Fatal(err)
		}
		for n := rng.Intn(3); n > 0; n-- {
			aid := int64(rng.Intn(nAuthors*nAuthors)) / int64(nAuthors) // skewed
			if _, err := da.Insert(predicate.Int(pid), predicate.Int(aid)); err != nil {
				t.Fatal(err)
			}
		}
	}
	base := func(w predicate.Predicate) relstore.Query {
		return relstore.Query{
			From:  "dblp",
			Join:  &relstore.JoinSpec{Table: "dblp_author", LeftCol: "pid", RightCol: "pid"},
			Where: w,
		}
	}
	return combine.NewEvaluator(db, base, "dblp.pid")
}

// streamProfile draws a random profile across the supported leaf shapes and
// an occasional composite or negative (skipped) preference.
func streamProfile(t *testing.T, rng *rand.Rand, size, nVenues, nAuthors int) []hypre.ScoredPred {
	t.Helper()
	intensity := func() float64 {
		if rng.Float64() < 0.1 {
			return -rng.Float64() // negative: both paths must skip it
		}
		return float64(rng.Intn(100)) / 100
	}
	prefs := make([]hypre.ScoredPred, 0, size)
	for i := 0; i < size; i++ {
		var p predicate.Predicate
		attr := ""
		switch rng.Intn(5) {
		case 0:
			p = &predicate.Cmp{Attr: "dblp.venue", Op: predicate.OpEq,
				Val: predicate.String(fmt.Sprintf("V%d", rng.Intn(nVenues)))}
			attr = "venue"
		case 1:
			p = &predicate.Cmp{Attr: "dblp_author.aid", Op: predicate.OpEq,
				Val: predicate.Int(int64(rng.Intn(nAuthors)))}
			attr = "aid"
		case 2:
			lo := int64(rng.Intn(90))
			p = &predicate.Between{Attr: "dblp.score",
				Lo: predicate.Int(lo), Hi: predicate.Int(lo + int64(rng.Intn(30)))}
			attr = "score"
		case 3:
			p = &predicate.In{Attr: "dblp.venue", Vals: []predicate.Value{
				predicate.String(fmt.Sprintf("V%d", rng.Intn(nVenues))),
				predicate.String(fmt.Sprintf("V%d", rng.Intn(nVenues))),
			}}
			attr = "venue"
		default:
			p = predicate.NewOr(
				&predicate.Cmp{Attr: "dblp.venue", Op: predicate.OpEq,
					Val: predicate.String(fmt.Sprintf("V%d", rng.Intn(nVenues)))},
				&predicate.Not{Kid: &predicate.Cmp{Attr: "dblp.score", Op: predicate.OpLt,
					Val: predicate.Int(int64(rng.Intn(100)))}},
			)
		}
		// The Pred string is the evaluator's cache identity, so it must
		// describe the predicate, not the profile slot.
		prefs = append(prefs, hypre.ScoredPred{
			Pred: fmt.Sprint(p), P: p, Intensity: intensity(), Attr: attr,
		})
	}
	return prefs
}

func sameRanking(a, b []combine.ScoredTuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].PID != b[i].PID ||
			math.Float64bits(a[i].Intensity) != math.Float64bits(b[i].Intensity) {
			return false
		}
	}
	return true
}

// The streaming path must be byte-identical to the materialized path —
// same top-k pids, same ranks, bit-equal grades — across seeds, profile
// sizes, and selectivities (venue pool width is the selectivity dial).
func TestStreamingMatchesMaterialized(t *testing.T) {
	earlyExits := 0
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nPapers := []int{0, 60, 1024, 3000}[rng.Intn(4)]
		nVenues := []int{2, 8, 40}[rng.Intn(3)] // wide pool = low selectivity per venue
		nAuthors := 30
		ev := streamDB(t, rng, nPapers, nVenues, nAuthors)
		for pi := 0; pi < 4; pi++ {
			prefs := streamProfile(t, rng, 1+rng.Intn(12), nVenues, nAuthors)
			for _, k := range []int{1, 5, 100} {
				lists, err := BuildLists(ev, prefs)
				if err != nil {
					t.Fatal(err)
				}
				want := lists.TA(k)
				got, st, err := EvaluateStreaming(ev, prefs, k)
				if err != nil {
					t.Fatalf("seed %d profile %d k %d: %v", seed, pi, k, err)
				}
				if !sameRanking(got, want) {
					t.Fatalf("seed %d profile %d k %d: streaming diverged\n got %v\nwant %v",
						seed, pi, k, got, want)
				}
				if st.EarlyExit {
					earlyExits++
					if st.BlocksScanned >= st.BlocksTotal && st.BlocksTotal > 1 {
						t.Fatalf("seed %d profile %d k %d: early exit without saving blocks", seed, pi, k)
					}
				}
			}
		}
	}
	if earlyExits == 0 {
		t.Error("threshold early exit never fired across the sweep")
	}
}

// EvaluateOneShot streams whether or not the profile's bitmaps are
// resident: a cold profile leaves no bitmap behind, a warmed evaluator
// still streams, and both give one answer.
func TestEvaluateOneShotRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ev := streamDB(t, rng, 1500, 8, 30)
	prefs := streamProfile(t, rng, 6, 8, 30)

	cold, st, err := EvaluateOneShot(ev, prefs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Streamed {
		t.Error("cold profile did not stream")
	}
	if n := ev.MemStats().Preds; n != 0 {
		t.Errorf("streaming left %d bitmaps behind", n)
	}

	if err := ev.MaterializeAll(prefs); err != nil {
		t.Fatal(err)
	}
	warm, st2, err := EvaluateOneShot(ev, prefs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Streamed {
		t.Error("warmed evaluator did not stream")
	}
	if !sameRanking(cold, warm) {
		t.Fatalf("paths disagree:\ncold %v\nwarm %v", cold, warm)
	}
}

// A query shape the streaming planner refuses (a conjunct reading both
// sides of the join) must fall back to the materialized path transparently.
func TestEvaluateOneShotUnsupportedFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ev := streamDB(t, rng, 800, 4, 30)
	mixed := predicate.NewOr(
		&predicate.Cmp{Attr: "dblp.venue", Op: predicate.OpEq, Val: predicate.String("V1")},
		&predicate.Cmp{Attr: "dblp_author.aid", Op: predicate.OpEq, Val: predicate.Int(3)},
	)
	prefs := []hypre.ScoredPred{
		{Pred: "mixed", P: mixed, Intensity: 0.8, Attr: ""},
		{Pred: "v", P: &predicate.Cmp{Attr: "dblp.venue", Op: predicate.OpEq,
			Val: predicate.String("V2")}, Intensity: 0.5, Attr: "venue"},
	}
	got, st, err := EvaluateOneShot(ev, prefs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Streamed {
		t.Error("mixed-side conjunct should have fallen back to the materialized path")
	}
	lists, err := BuildLists(ev, prefs)
	if err != nil {
		t.Fatal(err)
	}
	if want := lists.TA(5); !sameRanking(got, want) {
		t.Fatalf("fallback diverged:\n got %v\nwant %v", got, want)
	}
}
