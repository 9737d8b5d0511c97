package cache

import (
	"fmt"
	"slices"
	"testing"

	"hypre/internal/combine"
	"hypre/internal/delta"
	"hypre/internal/hypre"
	"hypre/internal/predicate"
	"hypre/internal/topk"
	"hypre/internal/workload"
)

// TestServerPublishGate replays the interleaving the publish gate exists
// for: a miss ranks its answer from resident bitmaps at the stamp its
// lookup read, then a commit and its Sync complete before it publishes.
// The Sync's sweep ran before the entry existed, so nothing would ever
// repair it; the gate must keep the answer out of the cache.
func TestServerPublishGate(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Seed, cfg.NumPapers, cfg.NumAuthors, cfg.NumVenues = 7, 300, 80, 6
	net, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev := combine.NewEvaluator(net.DB, workload.BaseQuery, "dblp.pid")
	srv := NewServer(ev, Config{})
	m, err := delta.NewMaintainer(ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.AttachCache(srv)
	venueA, venueB := net.Venues[0], net.Venues[1]
	var prof []hypre.ScoredPred
	for i, venue := range []string{venueA, venueB} {
		p, err := hypre.NewScoredPred(fmt.Sprintf("dblp.venue=%q", venue), 0.4+0.2*float64(i))
		if err != nil {
			t.Fatal(err)
		}
		prof = append(prof, p)
	}
	c := combine.Canonicalize(prof)
	const k = 1000
	rank := func(ev *combine.Evaluator) []combine.ScoredTuple {
		if err := ev.MaterializeAll(c.Prefs()); err != nil {
			t.Fatal(err)
		}
		r, _ := ev.Resident(c.Prefs())
		return topk.RankResident(r, c.Prefs(), k, nil)
	}

	// The evaluation: lookup stamp, resident snapshot, ranking.
	stamp := net.DB.EpochStamp(srv.tables...)
	res := rank(ev)
	r, _ := ev.Resident(c.Prefs())

	// The commit moves a paper from venue A to B, and its Sync lands.
	dblp := net.DB.Table("dblp")
	row := 0
	for dblp.Value(row, "venue").AsString() != venueA {
		row++
	}
	if err := dblp.UpdateCol(row, "venue", predicate.String(venueB)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	want := rank(combine.NewEvaluator(net.DB, workload.BaseQuery, "dblp.pid"))
	if slices.Equal(res, want) {
		t.Fatal("the commit left the answer unchanged; the test cannot tell the states apart")
	}

	srv.publish(c.Prefs(), c.Fingerprint(), k, stamp, r.IDs, res)
	if got, ok := srv.Peek(prof, k); ok && !slices.Equal(got, want) {
		t.Fatalf("the cache holds the answer of the state before the Sync:\n got %v\nwant %v", got, want)
	}
}
