package cache_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hypre/internal/cache"
	"hypre/internal/combine"
	"hypre/internal/delta"
	"hypre/internal/hypre"
	"hypre/internal/obs"
	"hypre/internal/predicate"
	"hypre/internal/relstore"
	"hypre/internal/topk"
	"hypre/internal/workload"
)

// testNet generates a small citation network for serving tests.
func testNet(t testing.TB, seed int64) *workload.Network {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	cfg.NumPapers = 600
	cfg.NumAuthors = 150
	cfg.NumVenues = 12
	net, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func newServer(t testing.TB, net *workload.Network) (*cache.Server, *combine.Evaluator) {
	t.Helper()
	ev := combine.NewEvaluator(net.DB, workload.BaseQuery, "dblp.pid")
	return cache.NewServer(ev, cache.Config{}), ev
}

func sp(t testing.TB, pred string, in float64) hypre.ScoredPred {
	t.Helper()
	p, err := hypre.NewScoredPred(pred, in)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// venueProfile builds a profile over venue/year predicates of the network.
func venueProfile(t testing.TB, net *workload.Network, venues []int, year int) []hypre.ScoredPred {
	t.Helper()
	var out []hypre.ScoredPred
	for i, vi := range venues {
		out = append(out, sp(t, fmt.Sprintf("dblp.venue=%q", net.Venues[vi]), 0.2+0.1*float64(i)))
	}
	if year > 0 {
		out = append(out, sp(t, fmt.Sprintf("dblp.year=%d", year), 0.35))
	}
	return out
}

func sameRanking(a, b []combine.ScoredTuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// uncached evaluates the canonical profile on a fresh evaluator with
// BuildLists + TA — the reference answer every cached result must equal
// byte for byte.
func uncached(t testing.TB, net *workload.Network, prefs []hypre.ScoredPred, k int) []combine.ScoredTuple {
	t.Helper()
	canon, _ := combine.CanonicalProfile(prefs)
	lists, err := topk.BuildLists(combine.NewEvaluator(net.DB, workload.BaseQuery, "dblp.pid"), canon)
	if err != nil {
		t.Fatal(err)
	}
	return lists.TA(k)
}

// TestServerHitIdentical: second ask is a Hit and matches both the first
// answer and a fresh uncached evaluation.
func TestServerHitIdentical(t *testing.T) {
	net := testNet(t, 7)
	srv, _ := newServer(t, net)
	prof := venueProfile(t, net, []int{0, 2, 5}, 2001)

	first, out1, err := srv.TopKTraced(prof, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out1 != cache.Miss {
		t.Fatalf("cold ask outcome = %v, want Miss", out1)
	}
	second, out2, err := srv.TopKTraced(prof, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out2 != cache.Hit {
		t.Fatalf("warm ask outcome = %v, want Hit", out2)
	}
	if !sameRanking(first, second) {
		t.Fatalf("hit diverged from the evaluation it cached")
	}
	if want := uncached(t, net, prof, 10); !sameRanking(second, want) {
		t.Fatalf("cached answer diverged from uncached evaluation")
	}
	// A permutation of the profile is the same fingerprint → same entry.
	perm := []hypre.ScoredPred{prof[3], prof[1], prof[0], prof[2]}
	permuted, out3, err := srv.TopKTraced(perm, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out3 != cache.Hit || !sameRanking(permuted, second) {
		t.Fatalf("permuted profile missed the cache (outcome %v)", out3)
	}
}

// TestServerNewK: a different k for a known fingerprint is its own result
// entry and its own evaluation — there is no plan tier to re-rank from.
// Both asks rank from the resident bitmaps, on a cold evaluator (the first
// ask scans the profile's predicates, once) and with the profile pre-warmed
// into the evaluator's bitmap store (no scan) alike; the answers equal
// uncached evaluation and every miss evaluated once.
func TestServerNewK(t *testing.T) {
	for _, tc := range []struct {
		name  string
		warm  bool
		scans int64
	}{{"cold", false, 3}, {"prewarmed", true, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			net := testNet(t, 8)
			srv, ev := newServer(t, net)
			prof := venueProfile(t, net, []int{1, 3}, 1997)
			if tc.warm {
				if err := ev.MaterializeAll(prof); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range []int{10, 25} {
				tr := obs.NewTrace()
				got, out, err := srv.TopKTraced(prof, k, tr)
				if err != nil {
					t.Fatal(err)
				}
				if out != cache.Miss || tr.Exec != "resident" {
					t.Fatalf("k=%d: outcome %v exec %q; want Miss via \"resident\"", k, out, tr.Exec)
				}
				if want := uncached(t, net, prof, k); !sameRanking(got, want) {
					t.Fatalf("k=%d answer diverged from uncached evaluation", k)
				}
			}
			snap := srv.Counters().Snapshot()
			if snap.Misses != 2 || snap.Misses != snap.Evaluations || snap.FootprintScans != tc.scans {
				t.Fatalf("Misses %d, Evaluations %d, FootprintScans %d; want 2, 2 and %d",
					snap.Misses, snap.Evaluations, snap.FootprintScans, tc.scans)
			}
			if n, _ := srv.Cache().Stats(); n != 2 {
				t.Fatalf("cache holds %d entries, want one per (fingerprint, k)", n)
			}
		})
	}
}

// mutateVenue rewrites the venue of the first live paper in fromVenue and
// returns its pid.
func mutateVenue(t *testing.T, net *workload.Network, fromVenue, toVenue string) int64 {
	t.Helper()
	dblp := net.DB.Table("dblp")
	for row := 0; row < dblp.Len(); row++ {
		if !dblp.Alive(row) || dblp.Value(row, "venue").AsString() != fromVenue {
			continue
		}
		if err := dblp.UpdateCol(row, "venue", predicate.String(toVenue)); err != nil {
			t.Fatal(err)
		}
		return dblp.Value(row, "pid").AsInt()
	}
	t.Fatalf("no live paper in venue %q", fromVenue)
	return 0
}

// deletePaper tombstones the live paper with the given pid.
func deletePaper(t *testing.T, net *workload.Network, pid int64) {
	t.Helper()
	rows, err := net.DB.LookupRowIDs("dblp", "pid", predicate.Int(pid))
	if err != nil || len(rows) != 1 {
		t.Fatalf("pid %d: rows %v, err %v", pid, rows, err)
	}
	net.DB.Table("dblp").Delete(rows[0])
}

// commitOps commits each planned op as its own store commit, the way a
// one-op /v1/mutate request lands.
func commitOps(t *testing.T, db *relstore.DB, ops []workload.Op) {
	t.Helper()
	for _, op := range ops {
		if err := op.Do(db); err != nil {
			t.Fatal(err)
		}
	}
}

// zipfSequence draws n profile indices in [0, users), Zipf-skewed by s
// over a seeded shuffle of the indices, so a few hot profiles repeat while
// the tail keeps missing.
func zipfSequence(users, n int, seed int64, s float64) []int {
	pool := make([]int, users)
	for i := range pool {
		pool[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(users, func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	z := rand.NewZipf(rng, s, 1, uint64(users-1))
	seq := make([]int, n)
	for i := range seq {
		seq[i] = pool[z.Uint64()]
	}
	return seq
}

func containsPID(ts []combine.ScoredTuple, pid int64) bool {
	for _, t := range ts {
		if t.PID == pid {
			return true
		}
	}
	return false
}

// TestServerDeltaInvalidationPrecision: a mutation batch touches only the
// entries whose predicate membership moved. An unrelated entry keeps
// serving as it was; a moved one is repaired in place and still hits with
// the uncached answer; and a deleted member with nothing proven to replace
// it drops the entry, so the next ask re-evaluates.
func TestServerDeltaInvalidationPrecision(t *testing.T) {
	net := testNet(t, 9)
	srv, ev := newServer(t, net)
	m, err := delta.NewMaintainer(ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.AttachCache(srv)

	profA := venueProfile(t, net, []int{0}, 0) // venue[0] only
	profB := venueProfile(t, net, []int{1}, 0) // venue[1] only
	if _, _, err := srv.TopKTraced(profA, 10, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.TopKTraced(profB, 10, nil); err != nil {
		t.Fatal(err)
	}

	// Move a paper from venue[2] into venue[0]: profA's predicate gains a
	// row, profB's is untouched. Whether the paper enters profA's top 10
	// depends on its pid against the 10th (every grade ties), and either
	// way profA's entry is repaired rather than dropped.
	moved := mutateVenue(t, net, net.Venues[2], net.Venues[0])
	if _, err := m.Sync(); err != nil {
		t.Fatal(err)
	}

	gotB, outB, err := srv.TopKTraced(profB, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if outB != cache.Hit {
		t.Fatalf("unrelated entry was invalidated (outcome %v)", outB)
	}
	gotA, outA, err := srv.TopKTraced(profA, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if outA != cache.Hit {
		t.Fatalf("moved entry was not repaired (outcome %v)", outA)
	}
	wantA := uncached(t, net, profA, 10)
	if !sameRanking(gotA, wantA) {
		t.Fatalf("repaired answer for the moved profile diverged")
	}
	if want := uncached(t, net, profB, 10); !sameRanking(gotB, want) {
		t.Fatalf("surviving entry's answer diverged from the store")
	}
	snap := srv.Counters().Snapshot()
	wantRepaired := int64(0)
	if containsPID(wantA, moved) {
		wantRepaired = 1
	}
	if snap.Invalidated != 0 || snap.Repaired != wantRepaired {
		t.Fatalf("Invalidated %d, Repaired %d; want 0 and %d", snap.Invalidated, snap.Repaired, wantRepaired)
	}

	// Delete profA's top paper. Every venue[0] paper grades alike, so the
	// outsider that should take its place ranks below the old 10th and
	// nothing touched replaces it: the entry is dropped and re-evaluated.
	deletePaper(t, net, gotA[0].PID)
	if _, err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	gotA, outA, err = srv.TopKTraced(profA, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if outA != cache.Miss {
		t.Fatalf("entry that lost a member served outcome %v, want Miss", outA)
	}
	if want := uncached(t, net, profA, 10); !sameRanking(gotA, want) {
		t.Fatalf("re-evaluated answer diverged from uncached evaluation")
	}
	if inv := srv.Counters().Invalidated.Load(); inv != 1 {
		t.Fatalf("Invalidated = %d, want the one entry that lost a member", inv)
	}
	if _, outB, err = srv.TopKTraced(profB, 10, nil); err != nil || outB != cache.Hit {
		t.Fatalf("unrelated entry after the delete: outcome %v err %v, want Hit", outB, err)
	}
}

// TestServerWriteFence: a request that sees a Write's commit before its
// Sync waits for the Write and is answered from the repaired cache, traced
// or not, instead of as a stale bypass.
func TestServerWriteFence(t *testing.T) {
	net := testNet(t, 10)
	srv, ev := newServer(t, net)
	m, err := delta.NewMaintainer(ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.AttachCache(srv)
	prof := venueProfile(t, net, []int{0, 4}, 1995)
	if _, _, err := srv.TopKTraced(prof, 10, nil); err != nil {
		t.Fatal(err)
	}

	type answer struct {
		got []combine.ScoredTuple
		out cache.Outcome
		err error
	}
	done := make(chan answer, 2)
	err = srv.Write(func() error {
		mutateVenue(t, net, net.Venues[3], net.Venues[0])
		go func() {
			got, out, err := srv.TopKTraced(prof, 10, nil)
			done <- answer{got, out, err}
		}()
		go func() {
			got, out, err := srv.TopKTraced(prof, 10, obs.NewTrace())
			done <- answer{got, out, err}
		}()
		// Give both requests time to find the commit; neither may answer
		// before the Sync.
		select {
		case a := <-done:
			return fmt.Errorf("a request answered mid-write, outcome %v", a.out)
		case <-time.After(50 * time.Millisecond):
		}
		_, err := m.Sync()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := uncached(t, net, prof, 10)
	for range 2 {
		a := <-done
		if a.err != nil {
			t.Fatal(a.err)
		}
		if a.out == cache.StaleBypass {
			t.Fatalf("request during the write served as %v", a.out)
		}
		if !sameRanking(a.got, want) {
			t.Fatalf("request during the write diverged from the synced store")
		}
	}
	if n := srv.Counters().StaleBypasses.Load(); n != 0 {
		t.Fatalf("StaleBypasses = %d, want 0", n)
	}
}

// flipper moves ten papers between two store states, one batch per
// commit: X, where they are in venue A and year y0 (the year most of A's
// papers share), and Z, where they are in venue B and year y0+1. A batch
// rewrites both columns of all ten, so the store only ever holds X or Z,
// and a ranking that read some predicates at X and others at Z matches
// neither.
type flipper struct {
	net            *workload.Network
	venueA, venueB string
	y0             int64
	pids           []int64
	inZ            bool
}

func newFlipper(net *workload.Network) *flipper {
	f := &flipper{net: net, venueA: net.Venues[0], venueB: net.Venues[1]}
	dblp := net.DB.Table("dblp")
	years := map[int64]int{}
	for row := 0; row < dblp.Len(); row++ {
		if dblp.Value(row, "venue").AsString() == f.venueA {
			years[dblp.Value(row, "year").AsInt()]++
		}
	}
	for y, n := range years {
		if n > years[f.y0] || (n == years[f.y0] && y < f.y0) {
			f.y0 = y
		}
	}
	for row := 0; row < dblp.Len() && len(f.pids) < 10; row++ {
		if dblp.Value(row, "venue").AsString() == f.venueA && dblp.Value(row, "year").AsInt() == f.y0 {
			f.pids = append(f.pids, dblp.Value(row, "pid").AsInt())
		}
	}
	return f
}

// commit moves the papers to the other state in one batch.
func (f *flipper) commit() error {
	venue, year := f.venueB, f.y0+1
	if f.inZ {
		venue, year = f.venueA, f.y0
	}
	b := f.net.DB.NewBatch()
	for _, pid := range f.pids {
		b.UpdateColByKey("dblp", "pid", predicate.Int(pid), "venue", predicate.String(venue))
		b.UpdateColByKey("dblp", "pid", predicate.Int(pid), "year", predicate.Int(year))
	}
	if err := b.Commit(); err != nil {
		return err
	}
	f.inZ = !f.inZ
	return nil
}

// TestServerResidentVsUnsyncedCommit: misses ranked from resident bitmaps
// race commits made outside Write, each followed by a Sync. Every commit
// moves ten papers between two states in both columns a profile reads
// (venue A and year y0, or venue B and year y0+1), so the store only ever
// holds state X or state Z. Fresh profiles scan their venue predicate while
// the year predicate stays resident; a scan taken after a commit the year
// bitmap has not synced would mix the two states, which only the server's
// post-snapshot stamp check keeps out of the answer. Every returned
// answer must equal uncached evaluation at X or at Z.
func TestServerResidentVsUnsyncedCommit(t *testing.T) {
	const commits, readers = 40, 2
	net := testNet(t, 43)
	srv, ev := newServer(t, net)
	m, err := delta.NewMaintainer(ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.AttachCache(srv)
	f := newFlipper(net)
	venueA, y0 := f.venueA, f.y0
	commit := func() {
		if err := f.commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Readers build profiles too, so a parse error is reported with
	// t.Error, never t.Fatal.
	pref := func(pred string, in float64) hypre.ScoredPred {
		p, err := hypre.NewScoredPred(pred, in)
		if err != nil {
			t.Error(err)
		}
		return p
	}
	yearPref := pref(fmt.Sprintf("dblp.year=%d", y0), 0.3)
	// Asks alternate between a fresh profile (k 5 or 1000) and one whose
	// two predicates are resident, made a new fingerprint by its k (every
	// k from 1000 up holds all matches, so one answer per state serves).
	// An ask's class names the answer it must equal.
	profile := func(w, n int) (prof []hypre.ScoredPred, k, class int) {
		if n%2 == 1 {
			return []hypre.ScoredPred{pref(fmt.Sprintf("dblp.venue=%q", venueA), 0.5), yearPref}, 1000 + n, 2
		}
		// The never-matching alternatives make the predicate new and slow
		// enough to scan that a scan often follows a commit.
		pred := fmt.Sprintf("dblp.venue=%q", venueA)
		for i := 0; i < 8; i++ {
			pred += fmt.Sprintf(" OR dblp.venue=\"fresh-%d-%d-%d\"", w, n, i)
		}
		class = n / 2 % 2
		return []hypre.ScoredPred{pref(pred, 0.8), yearPref}, []int{5, 1000}[class], class
	}
	// Make the two resident predicates resident.
	prof, k, _ := profile(-1, 1)
	if _, _, err := srv.TopKTraced(prof, k, nil); err != nil {
		t.Fatal(err)
	}

	type ask struct {
		class int
		got   []combine.ScoredTuple
	}
	asks := make([][]ask, readers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				prof, k, class := profile(w, n)
				got, _, err := srv.TopKTraced(prof, k, nil)
				if err != nil {
					t.Error(err)
					return
				}
				asks[w] = append(asks[w], ask{class, got})
			}
		}(w)
	}
	for i := 0; i < commits; i++ {
		// The pause leaves misses that looked up before the commit time to
		// scan after it, before the Sync.
		commit()
		time.Sleep(200 * time.Microsecond)
		if _, err := m.Sync(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(stop)
	wg.Wait()

	// The answer of every class at both states.
	want := map[bool][3][]combine.ScoredTuple{}
	for range 2 {
		var byClass [3][]combine.ScoredTuple
		for class, n := range []int{0, 2, 1} {
			prof, k, _ := profile(-2, n)
			byClass[class] = uncached(t, net, prof, k)
		}
		want[f.inZ] = byClass
		commit()
	}
	checked := 0
	for w := range asks {
		for i, a := range asks[w] {
			if !sameRanking(a.got, want[false][a.class]) && !sameRanking(a.got, want[true][a.class]) {
				t.Fatalf("reader %d ask %d (class %d): answer matches neither committed state\n got %v\n  X %v\n  Z %v",
					w, i, a.class, a.got, want[false][a.class], want[true][a.class])
			}
			checked++
		}
	}
	snap := srv.Counters().Snapshot()
	if checked < 4*commits || snap.FootprintScans < commits || snap.StaleBypasses == 0 {
		t.Fatalf("%d answers, %d footprint scans, %d bypasses: the race never ran",
			checked, snap.FootprintScans, snap.StaleBypasses)
	}
}

// TestServerBypassVsCommitBurst: stale bypasses racing a burst of commits
// made outside Write. Nothing ever syncs, so every ask bypasses the cache
// and ranks on a throwaway evaluator that scans the profile's twelve
// predicates one by one. Each venue predicate carries never-matching
// alternatives, so its scan is slow and commits land between the scans of
// one ranking. The burst flips papers between states X and Z (flipper);
// every answer must equal uncached evaluation at X or at Z, which only the
// bypass's stamp re-check across its scans ensures.
func TestServerBypassVsCommitBurst(t *testing.T) {
	const commits, readers, k = 200, 2, 1000
	net := testNet(t, 43)
	srv, _ := newServer(t, net)
	f := newFlipper(net)
	var prof []hypre.ScoredPred
	for i, venue := range net.Venues[:8] {
		pred := fmt.Sprintf("dblp.venue=%q", venue)
		for j := 0; j < 8; j++ {
			pred += fmt.Sprintf(" OR dblp.venue=\"absent-%d-%d\"", i, j)
		}
		prof = append(prof, sp(t, pred, 0.2+0.08*float64(i)))
	}
	for i, y := range []int64{f.y0, f.y0 + 1, f.y0 - 1, f.y0 + 2} {
		prof = append(prof, sp(t, fmt.Sprintf("dblp.year=%d", y), 0.3+0.1*float64(i)))
	}
	// The first commit is made before any ask, so no ask is ever a miss.
	if err := f.commit(); err != nil {
		t.Fatal(err)
	}

	type answer struct {
		got []combine.ScoredTuple
		out cache.Outcome
	}
	answers := make([][]answer, readers)
	stop := make(chan struct{})
	var started, wg sync.WaitGroup
	started.Add(readers)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				got, out, err := srv.TopKTraced(prof, k, nil)
				if n == 0 {
					started.Done()
				}
				if err != nil {
					t.Error(err)
					return
				}
				answers[w] = append(answers[w], answer{got, out})
			}
		}(w)
	}
	// Burst once every reader has an answer, so each has asks in flight
	// across it.
	started.Wait()
	for i := 1; i < commits; i++ {
		if err := f.commit(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Microsecond)
	}
	close(stop)
	wg.Wait()

	want := map[bool][]combine.ScoredTuple{}
	for range 2 {
		want[f.inZ] = uncached(t, net, prof, k)
		if err := f.commit(); err != nil {
			t.Fatal(err)
		}
	}
	if sameRanking(want[false], want[true]) {
		t.Fatal("the two states rank alike; the test cannot tell them apart")
	}
	checked := 0
	for w := range answers {
		for i, a := range answers[w] {
			if a.out != cache.StaleBypass {
				t.Fatalf("reader %d ask %d: outcome %v with nothing synced, want StaleBypass", w, i, a.out)
			}
			if !sameRanking(a.got, want[false]) && !sameRanking(a.got, want[true]) {
				t.Fatalf("reader %d ask %d: answer matches neither committed state\n got %v\n  X %v\n  Z %v",
					w, i, a.got, want[false], want[true])
			}
			checked++
		}
	}
	if entries, _ := srv.Cache().Stats(); entries != 0 || checked < 2*readers {
		t.Fatalf("%d answers checked, %d cache entries; want ≥ %d and none", checked, entries, 2*readers)
	}
}

// TestServerStaleBypass: between a mutation and the maintainer's Sync the
// server serves uncached (ranked from the live store, whose commit the
// resident bitmaps do not reflect yet) and caches nothing; after Sync it
// serves the repaired entry again.
func TestServerStaleBypass(t *testing.T) {
	net := testNet(t, 10)
	srv, ev := newServer(t, net)
	m, err := delta.NewMaintainer(ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.AttachCache(srv)
	prof := venueProfile(t, net, []int{0, 4}, 1995)
	if _, _, err := srv.TopKTraced(prof, 10, nil); err != nil {
		t.Fatal(err)
	}

	mutateVenue(t, net, net.Venues[3], net.Venues[0])
	tr := obs.NewTrace()
	got, out, err := srv.TopKTraced(prof, 10, tr)
	if err != nil {
		t.Fatal(err)
	}
	if out != cache.StaleBypass || tr.Exec != "resident" {
		t.Fatalf("unsynced store served outcome %v via %q, want StaleBypass via \"resident\"", out, tr.Exec)
	}
	if want := uncached(t, net, prof, 10); !sameRanking(got, want) {
		t.Fatalf("bypass answer diverged from the live store")
	}
	if _, err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, out, err = srv.TopKTraced(prof, 10, nil); err != nil || out != cache.Hit {
		t.Fatalf("post-sync ask = (%v, %v), want the repaired entry's Hit", out, err)
	}
	if want := uncached(t, net, prof, 10); !sameRanking(got, want) {
		t.Fatalf("repaired answer diverged from the synced store")
	}
	if n := srv.Counters().Misses.Load(); n != 1 {
		t.Fatalf("Misses = %d, want only the cold ask", n)
	}
}

// TestServerSingleFlight: concurrent identical cold queries collapse to one
// evaluation and all receive the same answer.
func TestServerSingleFlight(t *testing.T) {
	net := testNet(t, 11)
	srv, _ := newServer(t, net)
	prof := venueProfile(t, net, []int{0, 1, 2, 3}, 2004)

	const n = 16
	results := make([][]combine.ScoredTuple, n)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			out, _, err := srv.TopKTraced(prof, 10, nil)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = out
		}(i)
	}
	close(gate)
	wg.Wait()
	snap := srv.Counters().Snapshot()
	if snap.Misses != 1 {
		t.Fatalf("%d evaluations for one cold fingerprint, want 1", snap.Misses)
	}
	if snap.Hits+snap.SharedWaits != n-1 {
		t.Fatalf("hits %d + shared %d != %d waiters", snap.Hits, snap.SharedWaits, n-1)
	}
	for i := 1; i < n; i++ {
		if !sameRanking(results[0], results[i]) {
			t.Fatalf("concurrent requester %d received a different answer", i)
		}
	}
}

// TestServerEquivalenceRandomized is the randomized acceptance suite:
// across seeds × mutation batches × zipf query mixes, every cached answer
// equals a fresh uncached evaluation of the same canonical profile.
func TestServerEquivalenceRandomized(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			net := testNet(t, seed)
			srv, ev := newServer(t, net)
			m, err := delta.NewMaintainer(ev, nil)
			if err != nil {
				t.Fatal(err)
			}
			m.AttachCache(srv)
			stream, err := workload.NewUpdateStream(net, workload.DefaultStreamConfig())
			if err != nil {
				t.Fatal(err)
			}

			// A pool of overlapping profiles: shared venue predicates make
			// invalidation hit several entries at once.
			rng := rand.New(rand.NewSource(seed))
			var pool [][]hypre.ScoredPred
			for i := 0; i < 8; i++ {
				nv := 1 + rng.Intn(3)
				venues := make([]int, nv)
				for j := range venues {
					venues[j] = rng.Intn(len(net.Venues))
				}
				year := 0
				if rng.Intn(2) == 0 {
					year = 1991 + rng.Intn(20)
				}
				pool = append(pool, venueProfile(t, net, venues, year))
			}
			mix := zipfSequence(len(pool), 60, seed, 1.4)

			ops := stream.PlanPartitions(1, 4*30)[0]
			for batch := 0; batch < 4; batch++ {
				for _, idx := range mix {
					got, _, err := srv.TopKTraced(pool[idx], 10, nil)
					if err != nil {
						t.Fatal(err)
					}
					if want := uncached(t, net, pool[idx], 10); !sameRanking(got, want) {
						t.Fatalf("batch %d profile %d: cached answer diverged from uncached", batch, idx)
					}
				}
				commitOps(t, net.DB, ops[batch*30:(batch+1)*30])
				if _, err := m.Sync(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestServerConcurrentServeAndMutate interleaves cache-hit serving with
// mutation batches and delta Syncs — the -race interleaving test. Served
// answers during the window only need to be error-free (they may be
// bypasses); after the final Sync every answer must match uncached
// evaluation again.
func TestServerConcurrentServeAndMutate(t *testing.T) {
	net := testNet(t, 13)
	srv, ev := newServer(t, net)
	m, err := delta.NewMaintainer(ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.AttachCache(srv)
	stream, err := workload.NewUpdateStream(net, workload.DefaultStreamConfig())
	if err != nil {
		t.Fatal(err)
	}

	var pool [][]hypre.ScoredPred
	for i := 0; i < 6; i++ {
		pool = append(pool, venueProfile(t, net, []int{i, (i + 3) % 12}, 1993+i))
	}
	// Warm the cache.
	for _, p := range pool {
		if _, _, err := srv.TopKTraced(p, 10, nil); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := w
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := srv.TopKTraced(pool[i%len(pool)], 10, nil); err != nil {
					t.Error(err)
					return
				}
				i++
			}
		}(w)
	}
	ops := stream.PlanPartitions(1, 6*20)[0]
	for batch := 0; batch < 6; batch++ {
		commitOps(t, net.DB, ops[batch*20:(batch+1)*20])
		if _, err := m.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if _, err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, p := range pool {
		got, _, err := srv.TopKTraced(p, 10, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := uncached(t, net, p, 10); !sameRanking(got, want) {
			t.Fatalf("profile %d: post-churn cached answer diverged from the store", i)
		}
	}
}
