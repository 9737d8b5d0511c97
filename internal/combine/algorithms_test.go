package combine

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hypre/internal/hypre"
)

// profileUID2 mirrors the Table 7 profile of uid=2: two venue preferences
// and two author preferences, descending by intensity.
func profileUID2(t *testing.T) []hypre.ScoredPred {
	t.Helper()
	return []hypre.ScoredPred{
		mustSP(t, `dblp.venue="INFOCOM"`, 0.23),
		mustSP(t, `dblp_author.aid=2`, 0.19),
		mustSP(t, `dblp.venue="PVLDB"`, 0.14),
		mustSP(t, `dblp_author.aid=6`, 0.12),
	}
}

func TestEvaluatorPredSetMatchesSQL(t *testing.T) {
	ev := testEvaluator(t)
	for _, p := range profileUID2(t) {
		set := predSet(t, ev, p)
		sql, err := ev.CountSQL(NewCombo(p))
		if err != nil {
			t.Fatal(err)
		}
		if set.Len() != sql {
			t.Errorf("%s: set=%d sql=%d", p.Pred, set.Len(), sql)
		}
	}
}

func TestEvaluatorComboMatchesSQL(t *testing.T) {
	ev := testEvaluator(t)
	prefs := profileUID2(t)
	combos := []Combo{
		NewCombo(prefs[0]).And(prefs[1]),
		NewCombo(prefs[0]).Or(prefs[2]),
		NewCombo(prefs[0]).And(prefs[1]).Or(prefs[3]),
		NewCombo(prefs[1]).And(prefs[3]), // two author predicates ANDed
	}
	for _, c := range combos {
		setN, err := ev.count(c)
		if err != nil {
			t.Fatal(err)
		}
		sqlN, err := ev.CountSQL(c)
		if err != nil {
			t.Fatal(err)
		}
		if setN != sqlN {
			t.Errorf("%s: set=%d sql=%d", c, setN, sqlN)
		}
	}
}

func TestEvaluatorCaching(t *testing.T) {
	ev := testEvaluator(t)
	p := mustSP(t, `dblp.venue="VLDB"`, 0.5)
	predSet(t, ev, p)
	q1 := ev.Queries
	predSet(t, ev, p)
	if ev.Queries != q1 {
		t.Error("cache miss on repeated PredBitmap")
	}
}

// predSet is p's tuple set as a sorted slice, materializing p on first use.
func predSet(t testing.TB, ev *Evaluator, p hypre.ScoredPred) IntSet {
	t.Helper()
	b, err := ev.PredBitmap(p)
	if err != nil {
		t.Fatal(err)
	}
	return b.ToIntSet(ev.Dict())
}

func TestCombineTwoANDCounts(t *testing.T) {
	ev := testEvaluator(t)
	prefs := profileUID2(t)
	recs, err := CombineTwo(prefs, ev, SemanticsAND)
	if err != nil {
		t.Fatal(err)
	}
	// O(N^2): exactly C(4,2) = 6 pairs.
	if len(recs) != 6 {
		t.Fatalf("pairs = %d, want 6", len(recs))
	}
	// Every record must carry 2 predicates and f∧ intensity.
	for _, r := range recs {
		if r.NumPreds != 2 {
			t.Errorf("NumPreds = %d", r.NumPreds)
		}
		ps := slices.Concat(r.Combo.Groups...)
		if !almostEq(r.Intensity, hypre.FAndAll(ps[0].Intensity, ps[1].Intensity)) &&
			len(r.Combo.Groups) == 2 {
			t.Errorf("intensity mismatch for %s", r.Combo)
		}
	}
	// Starvation: INFOCOM AND PVLDB returns nothing (a paper appears in one
	// venue).
	for _, r := range recs {
		if r.AnchorIndex == 0 && r.PartnerIndex == 2 && r.NumTuples != 0 {
			t.Errorf("venue∧venue should starve, got %d tuples", r.NumTuples)
		}
	}
	// INFOCOM AND aid=6 must be applicable (papers 8, 9).
	found := false
	for _, r := range recs {
		if r.AnchorIndex == 0 && r.PartnerIndex == 3 {
			found = true
			if r.NumTuples != 2 {
				t.Errorf("INFOCOM∧aid6 = %d tuples, want 2", r.NumTuples)
			}
		}
	}
	if !found {
		t.Error("pair (0,3) missing")
	}
}

func TestCombineTwoANDORUsesOrOnSameAttr(t *testing.T) {
	ev := testEvaluator(t)
	prefs := profileUID2(t)
	recs, err := CombineTwo(prefs, ev, SemanticsANDOR)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		ps := slices.Concat(r.Combo.Groups...)
		sameAttr := ps[0].Attr == ps[1].Attr
		if sameAttr && len(r.Combo.Groups) != 1 {
			t.Errorf("same-attr pair not OR-ed: %s", r.Combo)
		}
		if !sameAttr && len(r.Combo.Groups) != 2 {
			t.Errorf("cross-attr pair not AND-ed: %s", r.Combo)
		}
		// OR pairs never starve if either side matches.
		if sameAttr && r.NumTuples == 0 {
			t.Errorf("OR pair starved: %s", r.Combo)
		}
	}
	// AND_OR vs AND: the venue+venue pair flips from 0 tuples to many.
	andRecs, _ := CombineTwo(prefs, ev, SemanticsAND)
	var andVV, orVV int
	for i, r := range recs {
		if r.AnchorIndex == 0 && r.PartnerIndex == 2 {
			orVV = r.NumTuples
			andVV = andRecs[i].NumTuples
		}
	}
	if andVV != 0 || orVV == 0 {
		t.Errorf("AND=%d OR=%d for venue pair", andVV, orVV)
	}
}

func TestPartiallyCombineAllWorkedExample(t *testing.T) {
	// §5.3.2's example: P1 = venue=INFOCOM, P2 = aid=2, P3 = aid=6.
	ev := testEvaluator(t)
	prefs := []hypre.ScoredPred{
		mustSP(t, `dblp.venue="INFOCOM"`, 0.23),
		mustSP(t, `dblp_author.aid=2`, 0.19),
		mustSP(t, `dblp_author.aid=6`, 0.12),
	}
	recs, err := PartiallyCombineAll(prefs, ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("combinations = %d, want 4: %v", len(recs), comboStrings(recs))
	}
	want := []string{
		`dblp.venue="INFOCOM"`,
		`dblp.venue="INFOCOM" AND dblp_author.aid=2`,
		`dblp.venue="INFOCOM" AND dblp_author.aid=6`,
		`dblp.venue="INFOCOM" AND (dblp_author.aid=2 OR dblp_author.aid=6)`,
	}
	for i, w := range want {
		if got := recs[i].Combo.String(); got != w {
			t.Errorf("combination %d = %q, want %q", i+1, got, w)
		}
	}
	// Tuple counts against Table 6's instance: INFOCOM = {8,9};
	// INFOCOM∧aid2 = {9}; INFOCOM∧aid6 = {8,9}; the OR form = {8,9}.
	wantCounts := []int{2, 1, 2, 2}
	for i, w := range wantCounts {
		if recs[i].NumTuples != w {
			t.Errorf("combination %d tuples = %d, want %d", i+1, recs[i].NumTuples, w)
		}
	}
}

func TestPartiallyCombineAllSingleAttrLinear(t *testing.T) {
	// Proposition 5 best case [1]: all same attribute -> N combinations.
	ev := testEvaluator(t)
	prefs := []hypre.ScoredPred{
		mustSP(t, `dblp.venue="VLDB"`, 0.5),
		mustSP(t, `dblp.venue="PVLDB"`, 0.4),
		mustSP(t, `dblp.venue="SIGMOD"`, 0.3),
		mustSP(t, `dblp.venue="INFOCOM"`, 0.2),
	}
	recs, err := PartiallyCombineAll(prefs, ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(prefs) {
		t.Fatalf("combinations = %d, want %d (O(N))", len(recs), len(prefs))
	}
	// The last combination is the OR of everything: all 9 papers.
	last := recs[len(recs)-1]
	if last.NumPreds != 4 || last.NumTuples != 9 {
		t.Errorf("last = %d preds %d tuples", last.NumPreds, last.NumTuples)
	}
	// Intensity decreases as weaker preferences join the OR group.
	for i := 1; i < len(recs); i++ {
		if recs[i].Intensity > recs[i-1].Intensity+1e-12 {
			t.Errorf("OR chain intensity rose at %d", i)
		}
	}
}

func TestPartiallyCombineAllAndInflates(t *testing.T) {
	ev := testEvaluator(t)
	prefs := []hypre.ScoredPred{
		mustSP(t, `dblp.venue="INFOCOM"`, 0.23),
		mustSP(t, `dblp_author.aid=6`, 0.12),
	}
	recs, err := PartiallyCombineAll(prefs, ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("recs = %d", len(recs))
	}
	if recs[1].Intensity <= recs[0].Intensity {
		t.Errorf("AND should inflate: %v -> %v", recs[0].Intensity, recs[1].Intensity)
	}
}

func comboStrings(rs Records) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Combo.String()
	}
	return out
}

func TestBiasRandomDeterministicPerSeed(t *testing.T) {
	ev := testEvaluator(t)
	prefs := profileUID2(t)
	a, err := BiasRandom(prefs, ev, rand.New(rand.NewSource(7)), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BiasRandom(prefs, ev, rand.New(rand.NewSource(7)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Valid != b.Valid || a.Invalid != b.Invalid {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestBiasRandomRecordsAreApplicable(t *testing.T) {
	ev := testEvaluator(t)
	prefs := profileUID2(t)
	res, err := BiasRandom(prefs, ev, rand.New(rand.NewSource(3)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid != len(res.Records) {
		t.Errorf("valid=%d records=%d", res.Valid, len(res.Records))
	}
	for _, r := range res.Records {
		if r.NumTuples == 0 {
			t.Errorf("inapplicable combination recorded: %s", r.Combo)
		}
		if r.NumPreds < 2 {
			t.Errorf("seed pair missing: %s", r.Combo)
		}
	}
}

func TestBiasRandomFindsInvalidCombos(t *testing.T) {
	// With venue predicates in the profile, venue∧venue attempts are
	// guaranteed to fail sometimes across seeds (Fig. 35's point: many more
	// invalid than valid tries).
	ev := testEvaluator(t)
	prefs := profileUID2(t)
	totalInvalid := 0
	for seed := int64(0); seed < 20; seed++ {
		res, err := BiasRandom(prefs, ev, rand.New(rand.NewSource(seed)), 1)
		if err != nil {
			t.Fatal(err)
		}
		totalInvalid += res.Invalid
	}
	if totalInvalid == 0 {
		t.Error("no invalid combinations across 20 seeds")
	}
}

func TestBiasRandomNegativeBiasClamped(t *testing.T) {
	ev := testEvaluator(t)
	prefs := profileUID2(t)
	if _, err := BiasRandom(prefs, ev, rand.New(rand.NewSource(1)), -5); err != nil {
		t.Fatal(err)
	}
}

func TestBuildPairTable(t *testing.T) {
	ev := testEvaluator(t)
	prefs := profileUID2(t)
	pt, err := BuildPairTable(prefs, ev)
	if err != nil {
		t.Fatal(err)
	}
	// Applicable pairs only: the venue∧venue pair (0,2) must be absent.
	for _, e := range pt.Pairs {
		if e.I == 0 && e.J == 2 {
			t.Error("inapplicable pair in table")
		}
		if e.Count <= 0 {
			t.Errorf("pair with zero count: %+v", e)
		}
		if e.I >= e.J {
			t.Errorf("pair order broken: %+v", e)
		}
	}
	// Sorted descending by intensity.
	for i := 1; i < len(pt.Pairs); i++ {
		if pt.Pairs[i].Intensity > pt.Pairs[i-1].Intensity+1e-12 {
			t.Error("pair table not sorted")
		}
	}
	// byFirst index agrees with the flat list.
	total := 0
	for i := range prefs {
		total += len(pt.CombsOfTwo(i))
	}
	if total != len(pt.Pairs) {
		t.Errorf("byFirst total = %d, want %d", total, len(pt.Pairs))
	}
}

func TestPEPSReturnsDescendingIntensity(t *testing.T) {
	ev := testEvaluator(t)
	prefs := profileUID2(t)
	pt, err := BuildPairTable(prefs, ev)
	if err != nil {
		t.Fatal(err)
	}
	res, err := PEPS(prefs, pt, ev, 9, Complete)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) == 0 {
		t.Fatal("no tuples")
	}
	for i := 1; i < len(res.Tuples); i++ {
		if res.Tuples[i].Intensity > res.Tuples[i-1].Intensity+1e-12 {
			t.Errorf("not descending at %d: %v", i, res.Tuples)
		}
	}
	// No duplicate pids.
	seen := map[int64]bool{}
	for _, tu := range res.Tuples {
		if seen[tu.PID] {
			t.Errorf("duplicate pid %d", tu.PID)
		}
		seen[tu.PID] = true
	}
}

func TestPEPSBestTupleMatchesBestCombination(t *testing.T) {
	ev := testEvaluator(t)
	prefs := profileUID2(t)
	pt, _ := BuildPairTable(prefs, ev)
	res, err := PEPS(prefs, pt, ev, 3, Complete)
	if err != nil {
		t.Fatal(err)
	}
	// Paper 9 (INFOCOM, authors 2 and 6) matches three preferences:
	// f∧(0.23, 0.19, 0.12) is the highest achievable combined intensity.
	want := hypre.FAndAll(0.23, 0.19, 0.12)
	if res.Tuples[0].PID != 9 || !almostEq(res.Tuples[0].Intensity, want) {
		t.Errorf("top tuple = %+v, want pid 9 @ %v", res.Tuples[0], want)
	}
}

func TestPEPSRespectsK(t *testing.T) {
	ev := testEvaluator(t)
	prefs := profileUID2(t)
	pt, _ := BuildPairTable(prefs, ev)
	for _, k := range []int{1, 2, 5} {
		res, err := PEPS(prefs, pt, ev, k, Complete)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) > k {
			t.Errorf("k=%d returned %d", k, len(res.Tuples))
		}
	}
	res, _ := PEPS(prefs, pt, ev, 0, Complete)
	if len(res.Tuples) != 0 {
		t.Error("k=0 should return nothing")
	}
	res, _ = PEPS(nil, pt, ev, 5, Complete)
	if len(res.Tuples) != 0 {
		t.Error("empty profile should return nothing")
	}
}

func TestPEPSApproximateSubsetOfComplete(t *testing.T) {
	ev := testEvaluator(t)
	prefs := profileUID2(t)
	pt, _ := BuildPairTable(prefs, ev)
	comp, err := PEPS(prefs, pt, ev, 9, Complete)
	if err != nil {
		t.Fatal(err)
	}
	appr, err := PEPS(prefs, pt, ev, 9, Approximate)
	if err != nil {
		t.Fatal(err)
	}
	// The approximate variant prunes; it may return fewer or equal tuples
	// and must not invent pids the complete variant lacks at equal
	// intensity... at minimum: every approximate tuple appears in complete.
	compSet := map[int64]bool{}
	for _, tu := range comp.Tuples {
		compSet[tu.PID] = true
	}
	for _, tu := range appr.Tuples {
		if !compSet[tu.PID] {
			t.Errorf("approximate-only tuple %d", tu.PID)
		}
	}
	if appr.CombosExpanded > comp.CombosExpanded {
		t.Errorf("approximate expanded more combos (%d > %d)",
			appr.CombosExpanded, comp.CombosExpanded)
	}
}

func TestPEPSFloodingFallsBackToSingles(t *testing.T) {
	// A profile with one predicate can still fill K from the single.
	ev := testEvaluator(t)
	prefs := []hypre.ScoredPred{mustSP(t, `dblp.venue="PVLDB"`, 0.4)}
	pt, _ := BuildPairTable(prefs, ev)
	res, err := PEPS(prefs, pt, ev, 3, Complete)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 3 {
		t.Errorf("singles fallback returned %d tuples", len(res.Tuples))
	}
	for _, tu := range res.Tuples {
		if !almostEq(tu.Intensity, 0.4) {
			t.Errorf("single intensity = %v", tu.Intensity)
		}
	}
}

func TestVariantAndSemanticsStrings(t *testing.T) {
	if Complete.String() != "complete" || Approximate.String() != "approximate" {
		t.Error("variant names")
	}
	if SemanticsAND.String() != "AND" || SemanticsANDOR.String() != "AND_OR" {
		t.Error("semantics names")
	}
	if !strings.Contains(SemanticsANDOR.String(), "OR") {
		t.Error("sanity")
	}
}
