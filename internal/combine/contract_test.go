package combine

import (
	"testing"

	"hypre/internal/hypre"
	"hypre/internal/predicate"
	"hypre/internal/relstore"
)

// requireNothingPublished fails unless a failed MaterializeAll left the
// store with no resident predicate.
func requireNothingPublished(t *testing.T, ev *Evaluator, prefs []hypre.ScoredPred) {
	t.Helper()
	r, _ := ev.Resident(prefs)
	for i, b := range r.Bits {
		if b != nil {
			t.Fatalf("%s is resident after a failed materialization", prefs[i].Pred)
		}
	}
	if ev.cur.Load().anyResident() {
		t.Fatal("a failed materialization published a resident predicate")
	}
}

// TestMaterializeRejectsOffBaseTable: a base closure that routes one
// predicate's query to another table than the base table breaks the
// evaluator's contract, so MaterializeAll fails and publishes nothing — not
// even the well-formed predicate materialized beside it.
func TestMaterializeRejectsOffBaseTable(t *testing.T) {
	routed := mustSP(t, `dblp_author.aid=2`, 0.5)
	base := func(p predicate.Predicate) relstore.Query {
		if p == routed.P {
			return relstore.Query{From: "dblp_author", Where: p}
		}
		return baseQuery(p)
	}
	ev := NewEvaluator(testDB(t), base, "dblp.pid")
	prefs := []hypre.ScoredPred{mustSP(t, `dblp.venue="VLDB"`, 0.5), routed}
	if err := ev.MaterializeAll(prefs); err == nil {
		t.Fatal("MaterializeAll accepted a predicate whose query scans dblp_author")
	}
	requireNothingPublished(t, ev, prefs)
	if err := ev.MaterializeAll(prefs[:1]); err != nil {
		t.Fatalf("the well-formed predicate alone: %v", err)
	}
}

// TestMaterializeRejectsUnboundKey: a key attribute that does not bind to a
// column of the base table — one of the joined table, or of no table —
// breaks the evaluator's contract, so MaterializeAll fails and publishes
// nothing.
func TestMaterializeRejectsUnboundKey(t *testing.T) {
	for _, key := range []string{"dblp_author.aid", "nope"} {
		ev := NewEvaluator(testDB(t), baseQuery, key)
		prefs := []hypre.ScoredPred{mustSP(t, `dblp.venue="VLDB"`, 0.5), mustSP(t, `dblp_author.aid=2`, 0.5)}
		if err := ev.MaterializeAll(prefs); err == nil {
			t.Fatalf("key %q: MaterializeAll accepted a key attribute outside dblp", key)
		}
		requireNothingPublished(t, ev, prefs)
	}
}
