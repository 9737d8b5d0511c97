package combine_test

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hypre/internal/combine"
	"hypre/internal/delta"
	"hypre/internal/hypre"
	"hypre/internal/predicate"
	"hypre/internal/relstore"
)

// gate is a predicate the engine cannot compile, so a scan or a touched-row
// re-match evaluates it row by row through Eval. It matches nothing. Once
// armed, the next Eval closes parked and blocks until open.
type gate struct {
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
	once    sync.Once
}

// open releases a parked Eval, and every later one; it may be called twice.
func (g *gate) open() { g.once.Do(func() { close(g.release) }) }

func newGate() *gate {
	return &gate{parked: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) Eval(predicate.Row) bool {
	if g.armed.CompareAndSwap(true, false) {
		close(g.parked)
		<-g.release
	}
	return false
}

func (g *gate) String() string                   { return "gate()" }
func (g *gate) Attributes(dst []string) []string { return dst }

func (g *gate) pref() hypre.ScoredPred {
	return hypre.ScoredPred{Pred: g.String(), P: g, Intensity: 0.5}
}

// gateBase is the test store's base query, except that a gate scans dblp
// without the join: a parked gate then holds only dblp's lock, so a commit
// to dblp_author goes through.
func gateBase(w predicate.Predicate) relstore.Query {
	q := combine.BaseQuery(w)
	if _, ok := w.(*gate); ok {
		q.Join = nil
	}
	return q
}

// gateFixture is the combine test store with an evaluator over gateBase,
// a maintainer over it, and the predicate dblp_author.aid=2.
func gateFixture(t *testing.T) (*relstore.DB, *combine.Evaluator, *delta.Maintainer, hypre.ScoredPred) {
	t.Helper()
	db := combine.BuildTestDBPids(func(pid int64) int64 { return pid })
	ev := combine.NewEvaluator(db, gateBase, "dblp.pid")
	m, err := delta.NewMaintainer(ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := hypre.NewScoredPred("dblp_author.aid=2", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return db, ev, m, p
}

// tupleSet is p's tuple set on a fresh evaluator over db.
func tupleSet(t *testing.T, db *relstore.DB, p hypre.ScoredPred) combine.IntSet {
	t.Helper()
	ev := combine.NewEvaluator(db, combine.BaseQuery, "dblp.pid")
	b, err := ev.PredBitmap(p)
	if err != nil {
		t.Fatal(err)
	}
	return ev.Dict().IntSet(b)
}

// TestResidentDuringParkedRefresh parks a Sync's refresh inside its
// re-match of one resident predicate. Resident must still answer for
// another: readers load the current version and never wait on a refresh.
func TestResidentDuringParkedRefresh(t *testing.T) {
	db, ev, m, p := gateFixture(t)
	g := newGate()
	defer g.open()
	if err := ev.MaterializeAll([]hypre.ScoredPred{p, g.pref()}); err != nil {
		t.Fatal(err)
	}
	g.armed.Store(true)
	// Paper 2 loses author 2; its dblp row is the batch's touched row.
	if err := db.Table("dblp_author").UpdateCol(2, "aid", predicate.Int(7)); err != nil {
		t.Fatal(err)
	}
	synced := make(chan error, 1)
	go func() {
		_, err := m.Sync()
		synced <- err
	}()
	<-g.parked

	answered := make(chan bool, 1)
	go func() {
		_, ok := ev.Resident([]hypre.ScoredPred{p})
		answered <- ok
	}()
	select {
	case ok := <-answered:
		if !ok {
			t.Error("Resident lost a resident predicate during the refresh")
		}
	case <-time.After(5 * time.Second):
		t.Error("Resident waited for the parked refresh")
	}
	g.open()
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
}

// TestRefreshWaitsOutMaterialization parks a materialization after it has
// scanned P and before it publishes, commits a change P's bitmap must
// show, and starts a Sync. The Sync's refresh must wait for the
// materialization to publish and then re-match P: a refresh that ran
// while P was not yet resident would leave P's pre-commit scan in the
// store.
func TestRefreshWaitsOutMaterialization(t *testing.T) {
	db, ev, m, p := gateFixture(t)
	ev.Workers = 1 // scan P, then the gate
	before := tupleSet(t, db, p)
	g := newGate()
	defer g.open()
	g.armed.Store(true)
	materialized := make(chan error, 1)
	go func() { materialized <- ev.MaterializeAll([]hypre.ScoredPred{p, g.pref()}) }()
	<-g.parked

	if err := db.Table("dblp_author").UpdateCol(2, "aid", predicate.Int(7)); err != nil {
		t.Fatal(err)
	}
	want := tupleSet(t, db, p)
	if slices.Equal(before, want) {
		t.Fatalf("the commit left %s at %v; the test cannot tell the states apart", p.Pred, want)
	}
	synced := make(chan error, 1)
	go func() {
		_, err := m.Sync()
		synced <- err
	}()
	// Release once the Sync has finished or waits on the refresh lock.
	for wait := true; wait && !ev.RefreshWaiting(); {
		select {
		case err := <-synced:
			synced <- err
			wait = false
		case <-time.After(50 * time.Microsecond):
		}
	}
	g.open()
	if err := <-materialized; err != nil {
		t.Fatal(err)
	}
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	b, err := ev.PredBitmap(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := ev.Dict().IntSet(b); !slices.Equal(got, want) {
		t.Fatalf("%s after the Sync: %v, a fresh evaluator says %v", p.Pred, got, want)
	}
}

// TestPlansSharedByRefreshAndMaterialize runs each predicate's one plan
// from many goroutines at once: two loops re-materialize an invalidated
// profile, so their scans run the interned plans side by side, while a
// third commits author changes and Syncs, re-matching the same plans over
// a refresh's worker pool. Under -race it proves a run writes nothing into
// a plan; afterwards every predicate must equal a fresh evaluation.
func TestPlansSharedByRefreshAndMaterialize(t *testing.T) {
	db := combine.BuildTestDBPids(func(pid int64) int64 { return pid })
	ev := combine.NewEvaluator(db, combine.BaseQuery, "dblp.pid")
	ev.Workers = 4
	m, err := delta.NewMaintainer(ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	profile := combine.MaterializeProfile(t)
	if err := ev.MaterializeAll(profile); err != nil {
		t.Fatal(err)
	}
	authors := db.Table("dblp_author")
	var stop atomic.Bool
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				ev.Invalidate()
				if err := ev.MaterializeAll(profile); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := range 30 {
		if err := authors.UpdateCol(i%authors.Len(), "aid", predicate.Int(int64(1+i%7))); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if _, err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, p := range profile {
		b, err := ev.PredBitmap(p)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ev.Dict().IntSet(b), tupleSet(t, db, p); !slices.Equal(got, want) {
			t.Fatalf("%s: %v, a fresh evaluator says %v", p.Pred, got, want)
		}
	}
}
