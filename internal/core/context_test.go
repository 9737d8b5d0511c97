package core

import (
	"testing"

	"hypre/internal/combine"
	"hypre/internal/ctxpref"
	"hypre/internal/hypre"
)

// TestContextualTopK wires ctxpref resolution into the System: the active
// context decides which preferences feed PEPS.
func TestContextualTopK(t *testing.T) {
	sys, err := NewSystem(smallCfg())
	if err != nil {
		t.Fatal(err)
	}

	mood := ctxpref.NewHierarchy("mood")
	if err := mood.Add("focused", ctxpref.All); err != nil {
		t.Fatal(err)
	}
	if err := mood.Add("browsing", ctxpref.All); err != nil {
		t.Fatal(err)
	}
	model := ctxpref.NewModel(mood)

	mk := func(pred string, in float64) hypre.ScoredPred {
		p, err := hypre.NewScoredPred(pred, in)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cg, err := ctxpref.Build(model, []ctxpref.Entry{
		{State: ctxpref.State{"focused"}, Pref: mk(`dblp.venue="VLDB"`, 0.9)},
		{State: ctxpref.State{"browsing"}, Pref: mk(`dblp.venue="KDD"`, 0.8)},
		{State: ctxpref.State{ctxpref.All}, Pref: mk(`dblp.year>=2005`, 0.3)},
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		state     ctxpref.State
		wantVenue string
	}{
		{ctxpref.State{"focused"}, "VLDB"},
		{ctxpref.State{"browsing"}, "KDD"},
	} {
		prefs, err := cg.Resolve(tc.state)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := combine.BuildPairTable(prefs, sys.ev)
		if err != nil {
			t.Fatal(err)
		}
		res, err := combine.PEPS(prefs, pt, sys.ev, 5, Complete)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) == 0 {
			t.Fatalf("context %v: no results", tc.state)
		}
		if got := venueOf(sys, res.Tuples[0].PID); got != tc.wantVenue {
			t.Errorf("context %v: top venue %q, want %q", tc.state, got, tc.wantVenue)
		}
	}
}
