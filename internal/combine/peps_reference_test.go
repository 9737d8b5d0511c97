package combine

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"hypre/internal/hypre"
)

// pepsReference is the pre-refactor PEPS hot path, kept verbatim as the
// equivalence oracle: it re-evaluates every conjunction from scratch
// through Evaluator.Applicable + Evaluator.run (the double evaluation the
// incremental DFS eliminated) and rebuilds the full tuple ranking at every
// anchor boundary via collectTuples. The incremental implementation must
// return byte-identical Tuples.
func pepsReference(prefs []hypre.ScoredPred, pt *PairTable, ev *Evaluator, k int, variant Variant) (TopKResult, error) {
	var res TopKResult
	if k <= 0 || len(prefs) == 0 {
		return res, nil
	}

	suffixBound := make([]float64, len(prefs)+1)
	prod := 1.0
	for a := len(prefs) - 1; a >= 0; a-- {
		p := prefs[a].Intensity
		if p < 0 {
			p = 0
		}
		prod *= 1 - p
		suffixBound[a] = 1 - prod
	}

	var order Records
	expansions := 0

	for i := range prefs {
		r, err := ev.run(NewCombo(prefs[i]))
		if err != nil {
			return res, err
		}
		if r.NumTuples > 0 {
			order = append(order, r)
		}
	}

	kthIntensity := func() (float64, int) {
		tuples := collectTuples(order, math.MaxInt32)
		if len(tuples) < k {
			return -1, len(tuples)
		}
		return tuples[k-1].Intensity, len(tuples)
	}

	for a := 0; a < len(prefs); a++ {
		res.AnchorsUsed = a + 1
		anchor := prefs[a].Intensity

		var seeds []PairEntry
		for _, e := range pt.CombsOfTwo(a) {
			switch variant {
			case Approximate:
				if e.Intensity <= anchor {
					continue
				}
			case Complete:
				if e.Intensity <= anchor {
					need := hypre.MinPreferencesToExceed(anchor, pt.Prefs[e.J].Intensity)
					if math.IsInf(need, 1) || need > float64(len(prefs)-2) {
						continue
					}
				}
			}
			seeds = append(seeds, e)
		}

		var dfs func(chain []int, c Combo) error
		dfs = func(chain []int, c Combo) error {
			if expansions >= maxChainExpansions {
				return nil
			}
			expansions++
			r, err := ev.run(c)
			if err != nil {
				return err
			}
			order = append(order, r)
			res.CombosExpanded++
			last := chain[len(chain)-1]
			for _, e := range pt.CombsOfTwo(last) {
				next := e.J
				cand := c.And(pt.Prefs[next])
				ok, err := ev.Applicable(cand)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
				if err := dfs(append(chain, next), cand); err != nil {
					return err
				}
			}
			return nil
		}
		for _, e := range seeds {
			c := NewCombo(pt.Prefs[e.I]).And(pt.Prefs[e.J])
			if err := dfs([]int{e.I, e.J}, c); err != nil {
				return res, err
			}
		}

		if kth, n := kthIntensity(); n >= k && a+1 < len(prefs) && suffixBound[a+1] <= kth {
			break
		}
	}

	res.Tuples = collectTuples(order, k)
	return res, nil
}

// equivPool is the Table 6 profile universe the equivalence trials draw
// from: mixed venue/author/year predicates with distinct intensities.
func equivPool(t *testing.T) []hypre.ScoredPred {
	t.Helper()
	return []hypre.ScoredPred{
		mustSP(t, `dblp.venue="VLDB"`, 0.50),
		mustSP(t, `dblp.venue="PVLDB"`, 0.45),
		mustSP(t, `dblp.venue="SIGMOD"`, 0.40),
		mustSP(t, `dblp.venue="INFOCOM"`, 0.35),
		mustSP(t, `dblp_author.aid=1`, 0.30),
		mustSP(t, `dblp_author.aid=2`, 0.25),
		mustSP(t, `dblp_author.aid=3`, 0.20),
		mustSP(t, `dblp_author.aid=6`, 0.15),
		mustSP(t, `dblp.year>=2009`, 0.10),
		mustSP(t, `dblp.year<2008`, 0.05),
	}
}

func assertIdenticalTopK(t *testing.T, label string, inc, ref TopKResult) {
	t.Helper()
	if inc.CombosExpanded != ref.CombosExpanded {
		t.Errorf("%s: CombosExpanded %d != %d", label, inc.CombosExpanded, ref.CombosExpanded)
	}
	if inc.AnchorsUsed != ref.AnchorsUsed {
		t.Errorf("%s: AnchorsUsed %d != %d", label, inc.AnchorsUsed, ref.AnchorsUsed)
	}
	if len(inc.Tuples) != len(ref.Tuples) {
		t.Fatalf("%s: %d tuples != %d", label, len(inc.Tuples), len(ref.Tuples))
	}
	for i := range ref.Tuples {
		// Byte-identical: same pid AND bit-identical float (the incremental
		// chain carries Π(1−pᵢ), so its f∧ arithmetic matches FAndAll
		// exactly, not just within epsilon).
		if inc.Tuples[i].PID != ref.Tuples[i].PID ||
			math.Float64bits(inc.Tuples[i].Intensity) != math.Float64bits(ref.Tuples[i].Intensity) {
			t.Fatalf("%s: tuple %d = %+v, want %+v", label, i, inc.Tuples[i], ref.Tuples[i])
		}
	}
}

// TestPEPSIncrementalMatchesRecompute proves the incremental DFS (one
// intersection per step, tracker-based ranking) returns byte-identical
// TopKResult.Tuples to the pre-refactor recompute path, across the seed
// fixture's profiles, both variants, and a sweep of K.
func TestPEPSIncrementalMatchesRecompute(t *testing.T) {
	profiles := [][]hypre.ScoredPred{
		profileUID2(t),
		equivPool(t),
		equivPool(t)[:1],
	}
	for pi, prefs := range profiles {
		ev := testEvaluator(t)
		pt, err := BuildPairTable(prefs, ev)
		if err != nil {
			t.Fatal(err)
		}
		for _, variant := range []Variant{Complete, Approximate} {
			for _, k := range []int{1, 2, 3, 5, 9, 20} {
				inc, err := PEPS(prefs, pt, ev, k, variant)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := pepsReference(prefs, pt, ev, k, variant)
				if err != nil {
					t.Fatal(err)
				}
				assertIdenticalTopK(t, variant.String()+"/k="+itoa(k)+"/profile="+itoa(pi), inc, ref)
			}
		}
	}
}

// TestPEPSIncrementalMatchesRecomputeRandom fuzzes random descending
// profiles drawn from the pool.
func TestPEPSIncrementalMatchesRecomputeRandom(t *testing.T) {
	pool := equivPool(t)
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 60; trial++ {
		perm := rng.Perm(len(pool))
		n := 2 + rng.Intn(len(pool)-1)
		prefs := make([]hypre.ScoredPred, 0, n)
		for _, i := range perm[:n] {
			prefs = append(prefs, pool[i])
		}
		// The algorithms' precondition: descending intensity.
		sort.Slice(prefs, func(i, j int) bool { return prefs[i].Intensity > prefs[j].Intensity })

		ev := testEvaluator(t)
		pt, err := BuildPairTable(prefs, ev)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(12)
		variant := Variant(rng.Intn(2))
		inc, err := PEPS(prefs, pt, ev, k, variant)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := pepsReference(prefs, pt, ev, k, variant)
		if err != nil {
			t.Fatal(err)
		}
		assertIdenticalTopK(t, "trial="+itoa(trial), inc, ref)
	}
}

// TestBuildPairTableParallelDeterministic checks the worker-pool build is
// deterministic and agrees with a sequential evaluation through the
// counting API.
func TestBuildPairTableParallelDeterministic(t *testing.T) {
	prefs := equivPool(t)
	ev := testEvaluator(t)
	a, err := BuildPairTable(prefs, ev)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildPairTable(prefs, ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pairs) != len(b.Pairs) {
		t.Fatalf("non-deterministic pair count: %d vs %d", len(a.Pairs), len(b.Pairs))
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			t.Fatalf("pair %d differs: %+v vs %+v", i, a.Pairs[i], b.Pairs[i])
		}
	}
	// Sequential oracle.
	for _, e := range a.Pairs {
		c := NewCombo(prefs[e.I]).And(prefs[e.J])
		n, err := ev.count(c)
		if err != nil {
			t.Fatal(err)
		}
		if n != e.Count {
			t.Errorf("pair (%d,%d): table count %d, evaluator %d", e.I, e.J, e.Count, n)
		}
		if math.Float64bits(e.Intensity) != math.Float64bits(c.Intensity()) {
			t.Errorf("pair (%d,%d): intensity mismatch", e.I, e.J)
		}
	}
}

// run evaluates c from scratch to its Record row.
func (ev *Evaluator) run(c Combo) (Record, error) {
	b, err := ev.comboBitmap(c)
	if err != nil {
		return Record{}, err
	}
	return ev.record(c, b), nil
}

// count is the number of distinct tuples c matches.
func (ev *Evaluator) count(c Combo) (int, error) {
	b, err := ev.comboBitmap(c)
	if err != nil {
		return 0, err
	}
	return b.Len(), nil
}

// Applicable reports whether the combination returns at least one tuple
// (Definition 15). The final intersection short-circuits on the first
// overlapping word.
func (ev *Evaluator) Applicable(c Combo) (bool, error) {
	n := len(c.Groups)
	if n == 0 {
		return false, nil
	}
	acc, err := ev.groupBitmap(c.Groups[0])
	if err != nil {
		return false, err
	}
	if n == 1 {
		return acc.Len() > 0, nil
	}
	for _, g := range c.Groups[1 : n-1] {
		gb, err := ev.groupBitmap(g)
		if err != nil {
			return false, err
		}
		acc = acc.And(gb)
		if acc.Len() == 0 {
			return false, nil
		}
	}
	last, err := ev.groupBitmap(c.Groups[n-1])
	if err != nil {
		return false, err
	}
	return acc.Intersects(last), nil
}

// collectTuples assigns every tuple the best combined intensity among the
// combinations that returned it, then ranks tuples by (intensity desc, pid
// asc) and truncates at limit. The pid tie-break matches the TA baseline's,
// so rankings are directly comparable. The incremental topTracker subsumes
// this inside PEPS.
func collectTuples(order Records, limit int) []ScoredTuple {
	best := map[int64]float64{}
	for _, r := range order {
		for _, pid := range r.Tuples {
			if cur, ok := best[pid]; !ok || r.Intensity > cur {
				best[pid] = r.Intensity
			}
		}
	}
	out := make([]ScoredTuple, 0, len(best))
	for pid, in := range best {
		out = append(out, ScoredTuple{PID: pid, Intensity: in})
	}
	sortScoredTuples(out)
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}
