package topk

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hypre/internal/hypre"
	"hypre/internal/obs"
	"hypre/internal/predicate"
)

// RankResident must be byte-identical to BuildLists + TA and to the
// streaming path over the same store: same pids, same ranks, bit-equal
// grades. The sweep covers zero intensities, equal grades across pids,
// several preferences on one attribute beside the unnamed "(multi)" slot,
// rows inserted after the evaluator was seeded (their dense ids come after
// rows with larger pids, so dense order is not pid order), and k from 1 to
// past the number of matching tuples.
func TestRankResidentMatchesTA(t *testing.T) {
	const nVenues, nAuthors = 6, 30
	var zeros, ties, multi, sameAttr, cases int
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nPapers := []int{60, 1024, 2500}[seed%3]
		ev := streamDB(t, rng, nPapers, nVenues, nAuthors)
		// Seed the row plumbing (and number half the rows) through a
		// predicate no profile names, then insert papers whose pids run
		// below every existing one, descending.
		seedOnly := hypre.ScoredPred{Pred: "seed-only", Intensity: 0.5,
			P: &predicate.Cmp{Attr: "dblp.score", Op: predicate.OpLt, Val: predicate.Int(50)}}
		if err := ev.MaterializeAll([]hypre.ScoredPred{seedOnly}); err != nil {
			t.Fatal(err)
		}
		db := ev.DB()
		for i := 0; i < 200; i++ {
			pid := int64(-i)
			venue := fmt.Sprintf("V%d", rng.Intn(nVenues))
			if _, err := db.Table("dblp").Insert(predicate.Int(pid), predicate.String(venue), predicate.Int(int64(rng.Intn(100)))); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Table("dblp_author").Insert(predicate.Int(pid), predicate.Int(int64(rng.Intn(nAuthors)))); err != nil {
				t.Fatal(err)
			}
		}
		for pi := 0; pi < 6; pi++ {
			prefs := streamProfile(t, rng, 2+rng.Intn(10), nVenues, nAuthors)
			// Zero intensities, and one intensity repeated on another
			// preference, so grades tie across pids that match different
			// predicates too.
			prefs[rng.Intn(len(prefs))].Intensity = 0
			if a, b := rng.Intn(len(prefs)), rng.Intn(len(prefs)); prefs[a].Intensity >= 0 && prefs[b].Intensity >= 0 {
				prefs[a].Intensity = prefs[b].Intensity
			}
			if err := ev.MaterializeAll(prefs); err != nil {
				t.Fatal(err)
			}
			r, ok := ev.Resident(prefs)
			if !ok {
				t.Fatalf("seed %d profile %d: materialized profile not resident", seed, pi)
			}
			if slices.IsSorted(r.PIDs) {
				t.Fatalf("seed %d: dense order equals pid order; the inserted rows did not land", seed)
			}
			slots, names := AttrSlots(prefs)
			for i, p := range prefs {
				zeros += btoi(slots[i] >= 0 && p.Intensity == 0)
				sameAttr += btoi(slots[i] >= 0 && slices.Index(slots, slots[i]) != i)
			}
			multi += btoi(slices.Contains(names, "(multi)"))

			lists, err := BuildLists(ev, prefs)
			if err != nil {
				t.Fatal(err)
			}
			matched := map[int]bool{}
			for i, b := range r.Bits {
				if slots[i] >= 0 {
					b.ForEach(func(di int) { matched[di] = true })
				}
			}
			matches := len(matched)
			for _, k := range []int{1, 5, 100, matches + 7} {
				cases++
				tr := obs.NewTrace()
				got := RankResident(r, prefs, k, tr)
				want := lists.TA(k)
				if !sameRanking(got, want) {
					t.Fatalf("seed %d profile %d k %d: resident ranking diverged from TA\n got %v\nwant %v",
						seed, pi, k, got, want)
				}
				streamed, _, err := EvaluateStreaming(ev, prefs, k)
				if err != nil {
					t.Fatal(err)
				}
				if !sameRanking(got, streamed) {
					t.Fatalf("seed %d profile %d k %d: resident ranking diverged from streaming", seed, pi, k)
				}
				if tr.Exec != "resident" {
					t.Fatalf("exec = %q, want \"resident\"", tr.Exec)
				}
				for i := 1; i < len(got); i++ {
					ties += btoi(got[i].Intensity == got[i-1].Intensity)
				}
			}
		}
	}
	if zeros == 0 || ties == 0 || multi == 0 || sameAttr == 0 {
		t.Fatalf("sweep missed a shape: %d zero intensities, %d ties, %d (multi) profiles, %d shared attributes over %d cases",
			zeros, ties, multi, sameAttr, cases)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
