package ctxpref

import (
	"sort"
	"testing"

	"hypre/internal/hypre"
)

// fig2Model builds the three-dimension model of Fig. 2: company, weather,
// occasion.
func fig2Model(t *testing.T) *Model {
	t.Helper()
	company := NewHierarchy("company")
	mustAdd(t, company, "friends", All)
	mustAdd(t, company, "family", All)
	weather := NewHierarchy("weather")
	mustAdd(t, weather, "good", All)
	mustAdd(t, weather, "bad", All)
	occasion := NewHierarchy("occasion")
	mustAdd(t, occasion, "holidays", All)
	mustAdd(t, occasion, "Easter", "holidays")
	mustAdd(t, occasion, "Christmas", "holidays")
	return NewModel(company, weather, occasion)
}

func mustAdd(t *testing.T, h *Hierarchy, v, p string) {
	t.Helper()
	if err := h.Add(v, p); err != nil {
		t.Fatal(err)
	}
}

func pref(t *testing.T, pred string, in float64) hypre.ScoredPred {
	t.Helper()
	p, err := hypre.NewScoredPred(pred, in)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fig2Graph builds the profile of Fig. 2: p1..p7.
func fig2Graph(t *testing.T) (*Model, *Graph) {
	t.Helper()
	m := fig2Model(t)
	entries := []Entry{
		{State{"friends", "good", "holidays"}, pref(t, `genre="comedy"`, 0.9)}, // p1
		{State{"friends", "good", All}, pref(t, `genre="drama"`, 0.8)},         // p2
		{State{"friends", "good", "Easter"}, pref(t, `genre="family"`, 0.7)},   // p3
		{State{"friends", All, "Christmas"}, pref(t, `genre="classic"`, 0.6)},  // p4
		{State{All, All, "Easter"}, pref(t, `genre="spring"`, 0.5)},            // p5
		{State{"family", All, "Easter"}, pref(t, `genre="kids"`, 0.4)},         // p6
		{State{All, All, All}, pref(t, `genre="any"`, 0.3)},                    // p7
	}
	g, err := Build(m, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m, g
}

func TestHierarchyBasics(t *testing.T) {
	h := NewHierarchy("occasion")
	mustAdd(t, h, "holidays", All)
	mustAdd(t, h, "Easter", "holidays")
	if !h.Covers(All, "Easter") || !h.Covers("holidays", "Easter") || !h.Covers("Easter", "Easter") {
		t.Error("Covers chain broken")
	}
	if h.Covers("Easter", "holidays") {
		t.Error("reverse cover")
	}
	if h.Depth(All) != 0 || h.Depth("holidays") != 1 || h.Depth("Easter") != 2 {
		t.Error("depths wrong")
	}
	if h.parent["Easter"] != "holidays" {
		t.Error("parent wrong")
	}
}

func TestHierarchyValidation(t *testing.T) {
	h := NewHierarchy("x")
	if err := h.Add("v", "missing"); err == nil {
		t.Error("unknown parent accepted")
	}
	mustAdd(t, h, "v", All)
	if err := h.Add("v", All); err == nil {
		t.Error("duplicate accepted")
	}
	if err := h.Add(All, All); err == nil {
		t.Error("redefining ALL accepted")
	}
}

func TestModelValidateAndCovers(t *testing.T) {
	m := fig2Model(t)
	good := State{"friends", "good", "Easter"}
	if err := m.Validate(good); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(State{"friends", "good"}); err == nil {
		t.Error("short state accepted")
	}
	if err := m.Validate(State{"friends", "good", "nope"}); err == nil {
		t.Error("unknown value accepted")
	}
	if !m.Covers(State{All, All, "holidays"}, good) {
		t.Error("cover failed")
	}
	if m.Covers(good, State{All, All, "holidays"}) {
		t.Error("reverse cover")
	}
}

func TestTightCover(t *testing.T) {
	m := fig2Model(t)
	// One step in one dimension: tight.
	if !tightCover(m, State{"friends", "good", "holidays"}, State{"friends", "good", "Easter"}) {
		t.Error("expected tight cover")
	}
	// Two steps (ALL -> Easter): not tight.
	if tightCover(m, State{"friends", "good", All}, State{"friends", "good", "Easter"}) {
		t.Error("two-step cover must not be tight")
	}
	// One step in each of two dimensions: not tight.
	if tightCover(m, State{All, "good", All}, State{"friends", "good", "holidays"}) {
		t.Error("two-dimension step must not be tight")
	}
	// Equal states: not tight.
	s := State{"friends", "good", All}
	if tightCover(m, s, s) {
		t.Error("self cover must not be tight")
	}
}

// tightCover reports whether a covers b and differs by exactly one
// hierarchy step in exactly one dimension — the edge condition of
// Definition 11.
func tightCover(m *Model, a, b State) bool {
	if !m.Covers(a, b) {
		return false
	}
	steps := 0
	for i := range m.Dims {
		steps += m.Dims[i].Depth(b[i]) - m.Dims[i].Depth(a[i])
	}
	return steps == 1
}

// tightEdges derives the graph's tight-cover adjacency E_Pr, general →
// specific, each list sorted by state key.
func tightEdges(g *Graph) map[string][]string {
	edges := map[string][]string{}
	for _, a := range g.states {
		for _, b := range g.states {
			if a.Key() != b.Key() && tightCover(g.model, a, b) {
				edges[a.Key()] = append(edges[a.Key()], b.Key())
			}
		}
	}
	for _, e := range edges {
		sort.Strings(e)
	}
	return edges
}

func TestFig2GraphEdges(t *testing.T) {
	_, g := fig2Graph(t)
	if len(g.states) != 7 {
		t.Fatalf("states = %d", len(g.states))
	}
	edges := tightEdges(g)
	// Fig. 2's arrows include (friends, good, holidays) -> (friends, good,
	// Easter) and (friends, good, ALL) -> (friends, good, holidays).
	covered := edges[State{"friends", "good", "holidays"}.Key()]
	if len(covered) != 1 || covered[0] != (State{"friends", "good", "Easter"}).Key() {
		t.Errorf("p1 covers %v", covered)
	}
	covered = edges[State{"friends", "good", All}.Key()]
	if len(covered) != 1 || covered[0] != (State{"friends", "good", "holidays"}).Key() {
		t.Errorf("p2 covers %v", covered)
	}
	// The root (ALL,ALL,ALL) tightly covers the one-step specializations
	// present: (ALL, ALL, holidays) is absent, so no tight edges from the
	// root to deeper states.
	if got := edges[State{All, All, All}.Key()]; len(got) != 0 {
		t.Errorf("root covers %v", got)
	}
}

func TestResolveMostSpecificFirst(t *testing.T) {
	_, g := fig2Graph(t)
	// Query context: friends, good weather, Easter.
	prefs, err := g.Resolve(State{"friends", "good", "Easter"})
	if err != nil {
		t.Fatal(err)
	}
	// Covering states: p3 (spec 4), p1 (spec 3), p2 (spec 2), p5 (spec 2),
	// p7 (spec 0). p4 (Christmas) and p6 (family) do not cover.
	if len(prefs) != 5 {
		t.Fatalf("prefs = %d: %v", len(prefs), prefs)
	}
	if prefs[0].Pred != `genre="family"` {
		t.Errorf("most specific = %s", prefs[0].Pred)
	}
	if prefs[len(prefs)-1].Pred != `genre="any"` {
		t.Errorf("least specific = %s", prefs[len(prefs)-1].Pred)
	}
}

func TestResolveValidatesQuery(t *testing.T) {
	_, g := fig2Graph(t)
	if _, err := g.Resolve(State{"bogus", "good", "Easter"}); err == nil {
		t.Error("invalid query accepted")
	}
	if _, err := g.Resolve(State{"friends"}); err == nil {
		t.Error("short query accepted")
	}
}

func TestBuildValidatesEntries(t *testing.T) {
	m := fig2Model(t)
	_, err := Build(m, []Entry{{State{"nope", "good", All}, pref(t, `a=1`, 0.5)}})
	if err == nil {
		t.Error("invalid entry accepted")
	}
}

func TestResolveIntensityOrderWithinState(t *testing.T) {
	m := fig2Model(t)
	st := State{"friends", "good", All}
	g, err := Build(m, []Entry{
		{st, pref(t, `a=1`, 0.2)},
		{st, pref(t, `b=2`, 0.9)},
		{st, pref(t, `c=3`, 0.5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	prefs, err := g.Resolve(State{"friends", "good", "Easter"})
	if err != nil {
		t.Fatal(err)
	}
	if len(prefs) != 3 || prefs[0].Intensity != 0.9 || prefs[2].Intensity != 0.2 {
		t.Errorf("in-state order wrong: %v", prefs)
	}
}
