package hypre

import (
	"maps"
	"math"
	"testing"

	"hypre/internal/graphdb"
	"hypre/internal/predicate"
)

func TestAddQuantitativeBasic(t *testing.T) {
	h := NewGraph(DefaultFixed)
	id, err := h.AddQuantitative(2, `dblp.venue="INFOCOM"`, 0.23)
	if err != nil {
		t.Fatal(err)
	}
	info, ok := h.Node(id)
	if !ok || info.UID != 2 || !info.HasIntensity || info.Intensity != 0.23 {
		t.Fatalf("node = %+v", info)
	}
	if info.Source != SourceUser || !info.FromQuant {
		t.Errorf("provenance = %+v", info)
	}
}

func TestAddQuantitativeValidation(t *testing.T) {
	h := NewGraph(DefaultFixed)
	if _, err := h.AddQuantitative(1, `venue="X"`, 1.5); err == nil {
		t.Error("out-of-range intensity accepted")
	}
	if _, err := h.AddQuantitative(1, `not a predicate ((`, 0.5); err == nil {
		t.Error("invalid predicate accepted")
	}
}

func TestAddQuantitativeDuplicateAverages(t *testing.T) {
	h := NewGraph(DefaultFixed)
	// Algorithm 1 Step 1: a duplicate (uid, predicate) averages intensities.
	id1, _ := h.AddQuantitative(1, `venue="VLDB"`, 0.4)
	id2, _ := h.AddQuantitative(1, `venue="VLDB"`, 0.8)
	if id1 != id2 {
		t.Fatalf("duplicate created a new node: %d vs %d", id1, id2)
	}
	info, _ := h.Node(id1)
	if !almostEq(info.Intensity, 0.6) {
		t.Errorf("averaged intensity = %v, want 0.6", info.Intensity)
	}
	// Syntactic variants normalize to the same node.
	id3, _ := h.AddQuantitative(1, `venue = 'VLDB'`, 0.6)
	if id3 != id1 {
		t.Errorf("normalization failed: %d vs %d", id3, id1)
	}
}

func TestQuantitativePerUserIsolation(t *testing.T) {
	h := NewGraph(DefaultFixed)
	a, _ := h.AddQuantitative(1, `venue="VLDB"`, 0.4)
	b, _ := h.AddQuantitative(2, `venue="VLDB"`, 0.8)
	if a == b {
		t.Fatal("same predicate for different users must be different nodes")
	}
	if got := len(h.UserNodes(1)); got != 1 {
		t.Errorf("user 1 nodes = %d", got)
	}
}

func TestAddQualitativeScenario3BothNew(t *testing.T) {
	h := NewGraph(DefaultFixed) // seed 0.5
	res, err := h.AddQualitative(1, `venue="VLDB"`, `venue="SIGMOD"`, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Conflict != NoConflict || !res.LeftComputed || !res.RightComputed {
		t.Fatalf("res = %+v", res)
	}
	right, _ := h.Node(res.RightID)
	left, _ := h.Node(res.LeftID)
	if right.Intensity != 0.5 || right.Source != SourceDefault {
		t.Errorf("right = %+v, want default 0.5", right)
	}
	want := IntensityLeft(0.8, 0.5)
	if !almostEq(left.Intensity, want) || left.Source != SourceComputed {
		t.Errorf("left = %+v, want %v", left, want)
	}
	if left.Intensity < right.Intensity {
		t.Error("edge invariant violated")
	}
}

func TestAddQualitativeScenario2RightKnown(t *testing.T) {
	h := NewGraph(DefaultFixed)
	h.AddQuantitative(1, `venue="SIGMOD"`, 0.8)
	res, err := h.AddQualitative(1, `venue="VLDB"`, `venue="SIGMOD"`, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.LeftComputed || res.RightComputed {
		t.Fatalf("res = %+v", res)
	}
	left, _ := h.Node(res.LeftID)
	if !almostEq(left.Intensity, IntensityLeft(0.3, 0.8)) {
		t.Errorf("left intensity = %v", left.Intensity)
	}
	// Fig. 8's example: venue=SIGMOD keeps its user-provided value.
	right, _ := h.Node(res.RightID)
	if right.Intensity != 0.8 || right.Source != SourceUser {
		t.Errorf("right mutated: %+v", right)
	}
}

func TestAddQualitativeScenario2LeftKnown(t *testing.T) {
	h := NewGraph(DefaultFixed)
	h.AddQuantitative(1, `venue="VLDB"`, 0.6)
	res, err := h.AddQualitative(1, `venue="VLDB"`, `venue="ICDE"`, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.LeftComputed || !res.RightComputed {
		t.Fatalf("res = %+v", res)
	}
	right, _ := h.Node(res.RightID)
	if !almostEq(right.Intensity, IntensityRight(0.5, 0.6)) {
		t.Errorf("right intensity = %v", right.Intensity)
	}
}

func TestAddQualitativeConsistentBothKnown(t *testing.T) {
	h := NewGraph(DefaultFixed)
	h.AddQuantitative(1, `venue="A"`, 0.8)
	h.AddQuantitative(1, `venue="B"`, 0.3)
	res, err := h.AddQualitative(1, `venue="A"`, `venue="B"`, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Conflict != NoConflict || res.LeftComputed || res.RightComputed {
		t.Fatalf("consistent insert recomputed: %+v", res)
	}
	a, _ := h.Node(res.LeftID)
	b, _ := h.Node(res.RightID)
	if a.Intensity != 0.8 || b.Intensity != 0.3 {
		t.Error("values should be untouched")
	}
}

func TestAddQualitativeIncompatibleLeafRecompute(t *testing.T) {
	h := NewGraph(DefaultFixed)
	h.AddQuantitative(1, `venue="A"`, 0.2)
	h.AddQuantitative(1, `venue="B"`, 0.7)
	// A preferred over B, but intensity(A) < intensity(B): incompatible.
	// Both nodes are leaves, so the left one is recomputed (Fig. 14 case).
	res, err := h.AddQualitative(1, `venue="A"`, `venue="B"`, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Conflict != NoConflict || !res.LeftComputed {
		t.Fatalf("res = %+v", res)
	}
	a, _ := h.Node(res.LeftID)
	if !almostEq(a.Intensity, IntensityLeft(0.5, 0.7)) || a.Intensity < 0.7 {
		t.Errorf("recomputed left = %v", a.Intensity)
	}
}

func TestAddQualitativeIncompatibleRightLeafRecompute(t *testing.T) {
	h := NewGraph(DefaultFixed)
	// Make left an interior node first: X -> A.
	h.AddQuantitative(1, `venue="A"`, 0.2)
	if _, err := h.AddQualitative(1, `venue="X"`, `venue="A"`, 0.1); err != nil {
		t.Fatal(err)
	}
	h.AddQuantitative(1, `venue="B"`, 0.7)
	// A -> B incompatible (0.2 < 0.7); left has degree > 0, right is a leaf,
	// so the right node is recomputed downward (Fig. 15 case).
	res, err := h.AddQualitative(1, `venue="A"`, `venue="B"`, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Conflict != NoConflict || !res.RightComputed || res.LeftComputed {
		t.Fatalf("res = %+v", res)
	}
	b, _ := h.Node(res.RightID)
	if !almostEq(b.Intensity, IntensityRight(0.5, 0.2)) {
		t.Errorf("recomputed right = %v", b.Intensity)
	}
}

func TestAddQualitativeIncompatibleInteriorDiscard(t *testing.T) {
	h := NewGraph(DefaultFixed)
	// Build A and B as interior nodes with incompatible intensities.
	h.AddQuantitative(1, `venue="A"`, 0.2)
	h.AddQuantitative(1, `venue="B"`, 0.7)
	if _, err := h.AddQualitative(1, `venue="A"`, `venue="C"`, 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddQualitative(1, `venue="D"`, `venue="B"`, 0.1); err != nil {
		t.Fatal(err)
	}
	res, err := h.AddQualitative(1, `venue="A"`, `venue="B"`, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Conflict != ConflictIncompatible {
		t.Fatalf("res = %+v, want DISCARD", res)
	}
	st := h.GraphStats()
	if st.Discards != 1 {
		t.Errorf("stats = %+v", st)
	}
	// DISCARD edges do not contribute to the PREFERS order.
	if h.Store().PathExists(res.LeftID, res.RightID, LabelPrefers) {
		t.Error("DISCARD edge traversable as PREFERS")
	}
}

func TestAddQualitativeCycleConflict(t *testing.T) {
	h := NewGraph(DefaultFixed)
	if _, err := h.AddQualitative(1, `venue="A"`, `venue="B"`, 0.3); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddQualitative(1, `venue="B"`, `venue="C"`, 0.3); err != nil {
		t.Fatal(err)
	}
	res, err := h.AddQualitative(1, `venue="C"`, `venue="A"`, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Conflict != ConflictCycle {
		t.Fatalf("res = %+v, want CYCLE", res)
	}
	st := h.GraphStats()
	if st.Cycles != 1 || st.Prefers != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAddQualitativeSelfPreferenceRejected(t *testing.T) {
	h := NewGraph(DefaultFixed)
	if _, err := h.AddQualitative(1, `venue="A"`, `venue = 'A'`, 0.3); err == nil {
		t.Error("self preference (after normalization) should be rejected")
	}
}

func TestAddQualitativeNegativeStrengthFlips(t *testing.T) {
	h := NewGraph(DefaultFixed)
	res, err := h.AddQualitative(1, `venue="A"`, `venue="B"`, -0.4)
	if err != nil {
		t.Fatal(err)
	}
	// Proposition 7: B becomes the preferred endpoint.
	left, _ := h.Node(res.LeftID)
	if left.Predicate != `venue="B"` {
		t.Errorf("left = %q, want flipped to B", left.Predicate)
	}
	right, _ := h.Node(res.RightID)
	if left.Intensity < right.Intensity {
		t.Error("invariant broken after flip")
	}
}

func TestAddQualitativeValidation(t *testing.T) {
	h := NewGraph(DefaultFixed)
	if _, err := h.AddQualitative(1, `((`, `venue="B"`, 0.3); err == nil {
		t.Error("invalid left predicate accepted")
	}
	if _, err := h.AddQualitative(1, `venue="A"`, `((`, 0.3); err == nil {
		t.Error("invalid right predicate accepted")
	}
	if _, err := h.AddQualitative(1, `venue="A"`, `venue="B"`, 1.2); err == nil {
		t.Error("out-of-range strength accepted")
	}
}

func TestEdgeInvariantAfterRandomInserts(t *testing.T) {
	// Invariant (§4.5): for every PREFERS edge, intensity(left) >=
	// intensity(right) whenever both are assigned.
	h := NewGraph(DefaultAvg)
	venues := []string{"A", "B", "C", "D", "E", "F"}
	seeds := []float64{0.1, 0.9, 0.4, 0.7, 0.2}
	for i, v := range venues[:5] {
		h.AddQuantitative(7, `venue="`+v+`"`, seeds[i])
	}
	pairs := [][2]int{{0, 1}, {1, 2}, {3, 4}, {2, 5}, {5, 4}, {0, 3}, {4, 1}}
	for i, p := range pairs {
		h.AddQualitative(7, `venue="`+venues[p[0]]+`"`, `venue="`+venues[p[1]]+`"`, 0.1*float64(i+1))
	}
	for _, n := range h.UserNodes(7) {
		for _, e := range h.Store().OutEdges(n.ID, LabelPrefers) {
			from, _ := h.Node(e.From)
			to, _ := h.Node(e.To)
			if from.HasIntensity && to.HasIntensity && from.Intensity < to.Intensity-1e-9 {
				t.Errorf("invariant violated on edge %d->%d: %v < %v",
					e.From, e.To, from.Intensity, to.Intensity)
			}
		}
	}
	// No PREFERS cycle may exist: every CYCLE-candidate edge was labeled.
	for _, n := range h.UserNodes(7) {
		for _, e := range h.Store().OutEdges(n.ID, LabelPrefers) {
			if h.Store().PathExists(e.To, e.From, LabelPrefers) {
				t.Errorf("PREFERS cycle through %d->%d", e.From, e.To)
			}
		}
	}
}

func TestBuildCounts(t *testing.T) {
	h := NewGraph(DefaultFixed)
	quant := []QuantPref{
		{1, `venue="A"`, 0.5},
		{1, `venue="B"`, 0.3},
	}
	qual := []QualPref{
		{1, `venue="A"`, `venue="B"`, 0.2},
		{1, `venue="B"`, `venue="A"`, 0.2}, // closes a cycle
	}
	res, err := h.Build(quant, qual)
	if err != nil {
		t.Fatal(err)
	}
	if res.QuantInserted != 2 || res.QualInserted != 2 || res.Cycles != 1 {
		t.Fatalf("res = %+v", res)
	}
}

func TestUserNodesOrdering(t *testing.T) {
	h := NewGraph(DefaultFixed)
	h.AddQuantitative(1, `venue="LOW"`, 0.1)
	h.AddQuantitative(1, `venue="HIGH"`, 0.9)
	h.AddQuantitative(1, `venue="MID"`, 0.5)
	nodes := h.UserNodes(1)
	if len(nodes) != 3 {
		t.Fatalf("nodes = %d", len(nodes))
	}
	if nodes[0].Intensity != 0.9 || nodes[1].Intensity != 0.5 || nodes[2].Intensity != 0.1 {
		t.Errorf("order = %v %v %v", nodes[0].Intensity, nodes[1].Intensity, nodes[2].Intensity)
	}
}

func TestProfileFilters(t *testing.T) {
	h := NewGraph(DefaultFixed)
	h.AddQuantitative(1, `venue="POS"`, 0.6)
	h.AddQuantitative(1, `venue="NEG"`, -0.8)
	h.AddQuantitative(1, `venue="ZERO"`, 0)
	all := h.Profile(1)
	if len(all) != 3 {
		t.Fatalf("Profile = %d", len(all))
	}
	pos := h.PositiveProfile(1)
	if len(pos) != 1 || pos[0].Pred != `venue="POS"` {
		t.Fatalf("PositiveProfile = %v", pos)
	}
	neg := h.NegativeProfile(1)
	if len(neg) != 1 || neg[0].Intensity != -0.8 {
		t.Fatalf("NegativeProfile = %v", neg)
	}
}

// nodeID is the node of (uid, pred), looked up under pred's normal form.
func nodeID(h *Graph, uid int64, pred string) (graphdb.NodeID, bool) {
	id, ok := h.byKey[nodeKey{uid, predicate.Normalize(pred)}]
	return id, ok
}

func TestNodeIDLookup(t *testing.T) {
	h := NewGraph(DefaultFixed)
	id, _ := h.AddQuantitative(1, `venue="A"`, 0.5)
	got, ok := nodeID(h, 1, `venue = 'A'`)
	if !ok || got != id {
		t.Errorf("NodeID = %v %v", got, ok)
	}
	if _, ok := nodeID(h, 2, `venue="A"`); ok {
		t.Error("wrong user resolved")
	}
}

func TestDefaultStrategies(t *testing.T) {
	seedWith := func(s DefaultStrategy, vals []float64) float64 {
		h := NewGraph(s)
		for i, v := range vals {
			h.AddQuantitative(5, `aid=`+string(rune('0'+i)), v)
		}
		res, err := h.AddQualitative(5, `venue="NEW1"`, `venue="NEW2"`, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		right, _ := h.Node(res.RightID)
		return right.Intensity
	}
	vals := []float64{-0.2, 0.4, 0.8}
	if got := seedWith(DefaultFixed, vals); got != 0.5 {
		t.Errorf("fixed = %v", got)
	}
	if got := seedWith(DefaultMin, vals); got != -0.2 {
		t.Errorf("min = %v", got)
	}
	if got := seedWith(DefaultMinPos, vals); got != 0.4 {
		t.Errorf("min_pos = %v", got)
	}
	if got := seedWith(DefaultMax, vals); got != 0.8 {
		t.Errorf("max = %v", got)
	}
	if got := seedWith(DefaultMaxPos, vals); got != 0.8 {
		t.Errorf("max_pos = %v", got)
	}
	if got := seedWith(DefaultAvg, vals); !almostEq(got, (-0.2+0.4+0.8)/3) {
		t.Errorf("avg = %v", got)
	}
	if got := seedWith(DefaultAvgPos, vals); !almostEq(got, 0.6) {
		t.Errorf("avg_pos = %v", got)
	}
	// Fallbacks with no prior values.
	if got := seedWith(DefaultMinPos, nil); got != 0 {
		t.Errorf("min_pos fallback = %v", got)
	}
	if got := seedWith(DefaultAvg, nil); got != 0.98 {
		t.Errorf("avg fallback = %v", got)
	}
	if got := seedWith(DefaultFixed, nil); got != 0.5 {
		t.Errorf("fixed fallback = %v", got)
	}
	// max_pos excludes values >= 1.
	if got := seedWith(DefaultMaxPos, []float64{1.0, 0.3}); got != 0.3 {
		t.Errorf("max_pos with saturated value = %v", got)
	}
	// avg saturation guard.
	if got := seedWith(DefaultAvg, []float64{1, 1}); got != 0.98 {
		t.Errorf("avg saturation = %v", got)
	}
}

func TestStrategyAndConflictStrings(t *testing.T) {
	if DefaultFixed.String() != "default" || DefaultAvgPos.String() != "avg_pos" {
		t.Error("strategy names")
	}
	if len(AllDefaultStrategies()) != 7 {
		t.Error("strategy list")
	}
	if NoConflict.String() != "none" || ConflictCycle.String() != "cycle" ||
		ConflictIncompatible.String() != "incompatible" {
		t.Error("conflict names")
	}
}

func TestFig26PrefGrowthCounting(t *testing.T) {
	// After qualitative conversion, the number of usable quantitative
	// preferences grows (Fig. 26/27): count FromQuant vs all with intensity.
	h := NewGraph(DefaultFixed)
	h.AddQuantitative(1, `venue="A"`, 0.5)
	h.AddQuantitative(1, `venue="B"`, 0.3)
	h.AddQualitative(1, `venue="C"`, `venue="D"`, 0.2)
	h.AddQualitative(1, `venue="E"`, `venue="A"`, 0.1)
	fromQuant, withIntensity := 0, 0
	for _, n := range h.UserNodes(1) {
		if n.FromQuant {
			fromQuant++
		}
		if n.HasIntensity {
			withIntensity++
		}
	}
	if fromQuant != 2 {
		t.Errorf("fromQuant = %d", fromQuant)
	}
	if withIntensity != 5 {
		t.Errorf("withIntensity = %d, want 5 (all nodes gained values)", withIntensity)
	}
	if math.Abs(float64(withIntensity)/float64(fromQuant)-2.5) > 1e-9 {
		t.Errorf("growth ratio = %v", float64(withIntensity)/float64(fromQuant))
	}
}

// TestCanonicalMemo: the graph parses each distinct raw predicate once, but
// an invalid one is never cached, so every attempt fails with the same text,
// and spellings of one predicate still share a node.
func TestCanonicalMemo(t *testing.T) {
	h := NewGraph(DefaultFixed)
	for range 2 {
		_, err := h.AddQuantitative(1, `  not a predicate (( `, 0.5)
		if want := `hypre: invalid predicate "not a predicate ((": predicate: expected operator after "a", got "predicate"`; err == nil || err.Error() != want {
			t.Fatalf("quantitative error %v, want %s", err, want)
		}
		_, err = h.AddQualitative(1, `((`, `venue="B"`, 0.3)
		if want := `hypre: invalid left predicate "((": predicate: expected attribute name, got ""`; err == nil || err.Error() != want {
			t.Fatalf("left error %v, want %s", err, want)
		}
		_, err = h.AddQualitative(1, `venue="A"`, ` x = "open`, 0.3)
		if want := `hypre: invalid right predicate "x = \"open": predicate: unterminated string at offset 4`; err == nil || err.Error() != want {
			t.Fatalf("right error %v, want %s", err, want)
		}
		_, err = h.AddQualitative(1, `venue="A"`, `venue = 'A'`, 0.3)
		if want := `hypre: qualitative preference endpoints are identical ("venue=\"A\"")`; err == nil || err.Error() != want {
			t.Fatalf("identical endpoints error %v, want %s", err, want)
		}
	}
	if want := map[string]string{`venue="A"`: `venue="A"`, `venue = 'A'`: `venue="A"`}; !maps.Equal(h.canon, want) {
		t.Fatalf("memo holds %q, want only the valid spellings %q", h.canon, want)
	}
	a, err := h.AddQuantitative(1, `venue = 'A'`, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := h.AddQuantitative(1, `venue="A"`, 0.6); b != a {
		t.Fatalf("spellings of one predicate got nodes %d and %d", a, b)
	}
	if id, ok := nodeID(h, 1, ` venue='A' `); !ok || id != a {
		t.Fatalf("NodeID = %d, %v; want %d", id, ok, a)
	}
}
