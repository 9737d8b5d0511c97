package cache_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"hypre/internal/cache"
	"hypre/internal/combine"
	"hypre/internal/delta"
	"hypre/internal/hypre"
	"hypre/internal/obs"
	"hypre/internal/workload"
)

func newEval(net *workload.Network) *combine.Evaluator {
	return combine.NewEvaluator(net.DB, workload.BaseQuery, "dblp.pid")
}

func mustOutcome(t *testing.T, srv *cache.Server, prof []hypre.ScoredPred, k int, want cache.Outcome) {
	t.Helper()
	_, out, err := srv.TopKTraced(prof, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out != want {
		t.Fatalf("outcome = %v, want %v", out, want)
	}
}

// TestServerObsCounterInvariant drives every route class through a real
// server and pins the counter discipline: every single-flight leader
// evaluates exactly once (Misses == Evaluations), a Sync repairs rather
// than drops, and the two plan-tier fields of the snapshot stay declared
// but read 0.
func TestServerObsCounterInvariant(t *testing.T) {
	net := testNet(t, 21)
	ev := newEval(net)
	reg := obs.NewRegistry()
	srv := cache.NewServer(ev, cache.Config{Registry: reg})
	m, err := delta.NewMaintainer(ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.AttachCache(srv)
	prof := venueProfile(t, net, []int{1, 3}, 1997)
	if err := ev.MaterializeAll(prof); err != nil {
		t.Fatal(err)
	}

	// Cold miss, warm hit, a new k (its own evaluation), stale bypass. The
	// Sync repairs both result entries, so the post-sync asks hit; an entry
	// counts as repaired only if its answer changed.
	before := map[int][]combine.ScoredTuple{}
	for _, k := range []int{10, 25} {
		got, out, err := srv.TopKTraced(prof, k, nil)
		if err != nil || out != cache.Miss {
			t.Fatalf("k=%d cold ask: outcome %v err %v, want Miss", k, out, err)
		}
		before[k] = got
	}
	mustOutcome(t, srv, prof, 10, cache.Hit)
	mutateVenue(t, net, net.Venues[4], net.Venues[1])
	mustOutcome(t, srv, prof, 10, cache.StaleBypass)
	if _, err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	wantRepaired := int64(0)
	for _, k := range []int{10, 25} {
		got, out, err := srv.TopKTraced(prof, k, nil)
		if err != nil || out != cache.Hit {
			t.Fatalf("k=%d post-sync ask: outcome %v err %v, want the repaired Hit", k, out, err)
		}
		want := uncached(t, net, prof, k)
		if !sameRanking(got, want) {
			t.Fatalf("k=%d repaired answer diverged from uncached evaluation", k)
		}
		if !sameRanking(before[k], want) {
			wantRepaired++
		}
	}

	snap := srv.Counters().Snapshot()
	if snap.Misses != 2 || snap.Misses != snap.Evaluations {
		t.Fatalf("Misses %d, Evaluations %d; want 2 and 2", snap.Misses, snap.Evaluations)
	}
	if snap.PlanHits != 0 || snap.PlanRepairs != 0 {
		t.Fatalf("PlanHits %d, PlanRepairs %d; nothing increments them", snap.PlanHits, snap.PlanRepairs)
	}
	if snap.StaleBypasses != 1 {
		t.Fatalf("StaleBypasses = %d, want 1", snap.StaleBypasses)
	}
	if snap.Invalidated != 0 || snap.Repaired != wantRepaired {
		t.Fatalf("Invalidated %d, Repaired %d; want 0 and %d", snap.Invalidated, snap.Repaired, wantRepaired)
	}

	// The registry saw the same traffic: per-route histograms and the
	// counter group render in the text exposition.
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`hypre_hist_count{name="serve_hit"} 3`,
		`hypre_hist_count{name="serve_miss"} 2`,
		`hypre_hist_count{name="serve_bypass"} 1`,
		`hypre_group{name="cache",field="evaluations"} 2`,
		fmt.Sprintf(`hypre_group{name="cache",field="repaired"} %d`, wantRepaired),
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics text missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "plan_") {
		t.Fatalf("metrics text still exposes a plan-tier field:\n%s", text)
	}
}

// TestServerTraceCoverage asserts the acceptance bound: on both the hit and
// the miss route, the contiguous top-level spans of a served query's trace
// sum to within 10% of the trace's own end-to-end total.
func TestServerTraceCoverage(t *testing.T) {
	net := testNet(t, 22)
	srv, _ := newServer(t, net)
	prof := venueProfile(t, net, []int{0, 2}, 2001)

	for _, route := range []string{"miss", "hit"} {
		tr := obs.NewTrace()
		if _, _, err := srv.TopKTraced(prof, 10, tr); err != nil {
			t.Fatal(err)
		}
		if tr.Route != route {
			t.Fatalf("route = %q, want %q", tr.Route, route)
		}
		if tr.Total <= 0 || len(tr.Spans) == 0 {
			t.Fatalf("%s trace not finished: total=%v spans=%d", route, tr.Total, len(tr.Spans))
		}
		cover := float64(tr.TopLevelSum()) / float64(tr.Total)
		if cover < 0.9 || cover > 1.1 {
			t.Fatalf("%s trace span coverage %.3f outside [0.9, 1.1]; spans: %+v",
				route, cover, tr.Spans)
		}
	}

	// A fresh miss trace carries the execution decision, the resident
	// ranking's span, and the query identity.
	tr := obs.NewTrace()
	if _, _, err := srv.TopKTraced(venueProfile(t, net, []int{5}, 0), 10, tr); err != nil {
		t.Fatal(err)
	}
	if tr.Exec != "resident" {
		t.Fatalf("miss trace exec = %q, want \"resident\"", tr.Exec)
	}
	if !slices.ContainsFunc(tr.Spans, func(s obs.Span) bool { return s.Name == obs.StageResident }) {
		t.Fatalf("miss trace has no %q span: %+v", obs.StageResident, tr.Spans)
	}
	if tr.Query == "" || tr.K != 10 {
		t.Fatalf("trace identity not stamped: query=%q k=%d", tr.Query, tr.K)
	}
}

// TestServerSlowLogCapture: with a zero threshold every request lands in
// the ring, traced requests carry their trace, and the route labels match
// the outcomes the server reported.
func TestServerSlowLogCapture(t *testing.T) {
	net := testNet(t, 23)
	ev := newEval(net)
	slow := obs.NewSlowLog(0, 8)
	srv := cache.NewServer(ev, cache.Config{SlowLog: slow})
	prof := venueProfile(t, net, []int{1}, 1999)

	if _, _, err := srv.TopKTraced(prof, 10, nil); err != nil { // untraced miss
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	if _, _, err := srv.TopKTraced(prof, 10, tr); err != nil { // traced hit
		t.Fatal(err)
	}

	entries := slow.Snapshot()
	if len(entries) != 2 {
		t.Fatalf("slow log holds %d entries, want 2", len(entries))
	}
	if entries[0].Route != "miss" || entries[1].Route != "hit" {
		t.Fatalf("routes = %q, %q; want miss, hit", entries[0].Route, entries[1].Route)
	}
	for i, e := range entries {
		if e.Query == "" || e.K != 10 || e.TotalNs < 0 {
			t.Fatalf("entry %d incomplete: %+v", i, e)
		}
	}
	if entries[0].Trace != nil {
		t.Fatalf("untraced request logged a trace")
	}
	if entries[1].Trace == nil || entries[1].Trace.Route != "hit" {
		t.Fatalf("traced request lost its trace: %+v", entries[1].Trace)
	}
}

// TestServerTracedServeVsMutate interleaves traced serving with mutation
// batches and maintainer syncs — the -race proof that per-query traces,
// histograms, and the slow log add no shared mutable state to the serve
// path. Every traced request must still satisfy the span-coverage bound.
func TestServerTracedServeVsMutate(t *testing.T) {
	net := testNet(t, 24)
	ev := newEval(net)
	reg := obs.NewRegistry()
	slow := obs.NewSlowLog(50*time.Microsecond, 32)
	srv := cache.NewServer(ev, cache.Config{Registry: reg, SlowLog: slow})
	m, err := delta.NewMaintainer(ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.AttachCache(srv)
	stream, err := workload.NewUpdateStream(net, workload.DefaultStreamConfig())
	if err != nil {
		t.Fatal(err)
	}

	pool := [][]int{{0}, {1, 2}, {3}, {0, 4}}
	const rounds = 40
	var wg sync.WaitGroup
	for g := 0; g < len(pool); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			prof := venueProfile(t, net, pool[g], 0)
			for i := 0; i < rounds; i++ {
				tr := obs.NewTrace()
				if _, _, err := srv.TopKTraced(prof, 10, tr); err != nil {
					t.Error(err)
					return
				}
				if cover := float64(tr.TopLevelSum()) / float64(tr.Total); tr.Total > 0 && (cover < 0.9 || cover > 1.1) {
					t.Errorf("goroutine %d round %d: span coverage %.3f spans %+v", g, i, cover, tr.Spans)
					return
				}
			}
		}(g)
	}
	ops := stream.PlanPartitions(1, 6*20)[0]
	for batch := 0; batch < 6; batch++ {
		commitOps(t, net.DB, ops[batch*20:(batch+1)*20])
		if _, err := m.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	var total int64
	for _, name := range []string{"serve_hit", "serve_miss", "serve_shared", "serve_bypass"} {
		total += reg.Histogram(name).Snapshot().Count
	}
	if want := int64(len(pool) * rounds); total != want {
		t.Fatalf("histograms recorded %d requests, want %d", total, want)
	}
	snap := srv.Counters().Snapshot()
	if snap.Misses != snap.Evaluations || snap.PlanHits != 0 || snap.PlanRepairs != 0 {
		t.Fatalf("under concurrency: Misses %d, Evaluations %d, PlanHits %d, PlanRepairs %d",
			snap.Misses, snap.Evaluations, snap.PlanHits, snap.PlanRepairs)
	}
}
