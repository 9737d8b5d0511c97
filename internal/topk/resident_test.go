package topk

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"hypre/internal/bitset"
	"hypre/internal/combine"
	"hypre/internal/hypre"
	"hypre/internal/obs"
	"hypre/internal/predicate"
)

// RankResident must be byte-identical to BuildLists + TA over the same
// store: same pids, same ranks, bit-equal grades. The sweep covers zero
// intensities, equal grades across pids, several preferences on one
// attribute beside the unnamed "(multi)" slot, an OR across both join sides
// (a shape the block planner refuses), rows inserted after the evaluator
// was seeded (their dense ids come after rows with larger pids, so dense
// order is not pid order), and k from 1 to past the number of matching
// tuples.
func TestRankResidentMatchesTA(t *testing.T) {
	const nVenues, nAuthors = 6, 30
	var zeros, ties, multi, sameAttr, mixedSide, cases int
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nPapers := []int{60, 1024, 2500}[seed%3]
		ev := dblpEvaluator(t, rng, nPapers, nVenues, nAuthors)
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
			prefs := randomProfile(t, rng, 2+rng.Intn(10), nVenues, nAuthors)
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
				mixedSide += btoi(slots[i] >= 0 && strings.Contains(p.Pred, "dblp_author.aid") && strings.Contains(p.Pred, "dblp.venue"))
			}
			multi += btoi(slices.Contains(names, "(multi)"))

			lists, err := BuildLists(ev, prefs)
			if err != nil {
				t.Fatal(err)
			}
			matched := map[int]bool{}
			for i, b := range r.Bits {
				if slots[i] >= 0 {
					b.ForEach(func(di int) bool { matched[di] = true; return true })
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
				if tr.Exec != "resident" {
					t.Fatalf("exec = %q, want \"resident\"", tr.Exec)
				}
				for i := 1; i < len(got); i++ {
					ties += btoi(got[i].Intensity == got[i-1].Intensity)
				}
			}
		}
	}
	if zeros == 0 || ties == 0 || multi == 0 || sameAttr == 0 || mixedSide == 0 {
		t.Fatalf("sweep missed a shape: %d zero intensities, %d ties, %d (multi) profiles, %d shared attributes, %d mixed-side ORs over %d cases",
			zeros, ties, multi, sameAttr, mixedSide, cases)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// referenceRank is RankResident's specification over maps: per preference
// with a slot, in profile order, FAnd into that slot's grade of each id it
// holds; per touched id, FAndAll over its non-zero slot grades in slot
// order; then the k best under Outranks.
func referenceRank(r combine.Resident, prefs []hypre.ScoredPred, k int) []combine.ScoredTuple {
	slots, names := AttrSlots(prefs)
	grades := map[int][]float64{}
	for i, p := range prefs {
		if slots[i] < 0 {
			continue
		}
		r.Bits[i].ForEach(func(di int) bool {
			g := grades[di]
			if g == nil {
				g = make([]float64, len(names))
				grades[di] = g
			}
			g[slots[i]] = hypre.FAnd(g[slots[i]], p.Intensity)
			return true
		})
	}
	all := make([]combine.ScoredTuple, 0, len(grades))
	for di, g := range grades {
		var vals []float64
		for _, x := range g {
			if x != 0 {
				vals = append(vals, x)
			}
		}
		all = append(all, combine.ScoredTuple{PID: r.PIDs[di], Intensity: hypre.FAndAll(vals...)})
	}
	sort.Slice(all, func(i, j int) bool { return Outranks(all[i], all[j]) })
	return all[:min(k, len(all))]
}

// wideResident hand-builds a Resident over n dense ids whose pids run
// opposite to dense order, with one bitmap per preference. Each preference
// takes, per 64Ki container, an array (sparse points), a bitmap (dense
// points) or a run (ranges) encoding, rotating so every container holds all
// three across the profile; some skip a container, leaving gaps between
// their high keys. The last preference has intensity 0 and alone holds the
// top 3000 ids; one other is negative. Intensities come from a short list,
// so grades tie across pids.
func wideResident(rng *rand.Rand, n, nPrefs int) (combine.Resident, []hypre.ScoredPred) {
	r := combine.Resident{PIDs: make([]int64, n)}
	for di := range r.PIDs {
		r.PIDs[di] = int64(3 * (n - di))
	}
	attrs := []string{"venue", "aid", ""}
	levels := []float64{0, 0.25, 0.5, 0.5, 0.8, 0.9}
	shared := n - 3000
	var prefs []hypre.ScoredPred
	for i := 0; i < nPrefs; i++ {
		s := bitset.New()
		p := hypre.ScoredPred{Pred: fmt.Sprintf("p%d", i), Attr: attrs[i%len(attrs)],
			Intensity: levels[rng.Intn(len(levels))]}
		switch i {
		case nPrefs - 1:
			p.Intensity = 0
			s.AddRange(shared, n)
		default:
			if i == 1 {
				p.Intensity = -0.4
			}
			for base := 0; base < shared; base += 1 << 16 {
				end := min(base+1<<16, shared)
				switch (i + base>>16) % 4 {
				case 0: // array
					for j := 0; j < 500; j++ {
						s.Add(base + rng.Intn(end-base))
					}
				case 1: // bitmap
					for j := 0; j < (end-base)/3; j++ {
						s.Add(base + rng.Intn(end-base))
					}
				case 2: // runs
					for lo := base + rng.Intn(300); lo < end; lo += 200 + rng.Intn(3000) {
						s.AddRange(lo, min(lo+1+rng.Intn(1500), end))
					}
				} // 3: leave this container out
			}
		}
		r.IDs = append(r.IDs, int32(i))
		r.Bits = append(r.Bits, s)
		prefs = append(prefs, p)
	}
	return r, prefs
}

// RankResident must equal the map reference over sets spanning several
// 64Ki containers in all three encodings, so a word index built from the
// wrong container base cannot pass. Profiles run back to back on the pooled
// scratch, so a fold that leaves a grade behind cannot pass either.
func TestRankResidentAcrossContainers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 140_000 + 1_234
	for pi := 0; pi < 4; pi++ {
		r, prefs := wideResident(rng, n, 6+pi)
		want := referenceRank(r, prefs, n)
		zeroOnly := 0
		for _, st := range want {
			if st.Intensity == 0 {
				zeroOnly++
			}
		}
		if zeroOnly < 3000 {
			t.Fatalf("profile %d: %d zero-grade tuples, want the 3000 only the zero preference holds", pi, zeroOnly)
		}
		for _, k := range []int{1, 10, 5000, len(want) + 7} {
			if got := RankResident(r, prefs, k, nil); !sameRanking(got, want[:min(k, len(want))]) {
				t.Fatalf("profile %d k %d: RankResident diverged from the reference", pi, k)
			}
		}
	}
}

// A fold that panics midway (here a bitmap id past the dictionary) must not
// return its half-written scratch to the pool: the next well-formed call
// has to rank from clean grades. The dictionary fills whole words, so the
// bad id lies past the touched bitmap too and the panic leaves behind only
// grades and touched bits of real ids: a leak reads as a wrong ranking.
func TestRankResidentPanicLeavesPoolClean(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r, prefs := wideResident(rng, 1<<16+64*100, 6)
	want := referenceRank(r, prefs, 10)
	past := bitset.New()
	past.Add(len(r.PIDs))
	bad := combine.Resident{IDs: append(slices.Clone(r.IDs), 99),
		Bits: append(slices.Clone(r.Bits), past), PIDs: r.PIDs}
	badPrefs := append(slices.Clone(prefs), hypre.ScoredPred{Pred: "past", Attr: "venue", Intensity: 0.5})
	for round := 0; round < 3; round++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("a bitmap id past the dictionary did not panic")
				}
			}()
			RankResident(bad, badPrefs, 10, nil)
		}()
		if got := RankResident(r, prefs, 10, nil); !sameRanking(got, want) {
			t.Fatalf("round %d: ranking after a panicked fold diverged from the reference\n got %v\nwant %v", round, got, want)
		}
	}
}

// BenchmarkRankResident times the kernel alone on a fixture shaped like a
// cold-read miss: 32k dense ids, 12 preferences over two attributes (six
// disjoint venues of ~4k ids, six authors of ~3.5k random ids), ~45k set
// bits, k = 10.
func BenchmarkRankResident(b *testing.B) {
	const n, k = 32_000, 10
	rng := rand.New(rand.NewSource(1))
	r := combine.Resident{PIDs: make([]int64, n)}
	for di := range r.PIDs {
		r.PIDs[di] = int64(di + 1)
	}
	var prefs []hypre.ScoredPred
	venue := rng.Perm(n)
	for i := 0; i < 12; i++ {
		s := bitset.New()
		p := hypre.ScoredPred{Pred: fmt.Sprintf("p%d", i), Intensity: float64(1+rng.Intn(99)) / 100}
		if i%2 == 0 {
			p.Attr = "venue"
			for _, di := range venue[i/2*4000 : i/2*4000+4000] {
				s.Add(di)
			}
		} else {
			p.Attr = "aid"
			for j := 0; j < 3500; j++ {
				s.Add(rng.Intn(n))
			}
		}
		r.IDs = append(r.IDs, int32(i))
		r.Bits = append(r.Bits, s)
		prefs = append(prefs, p)
	}
	b.ReportAllocs()
	for b.Loop() {
		RankResident(r, prefs, k, nil)
	}
}
