package relstore

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"hypre/internal/predicate"
)

// refIndex is the reference hash index: indexKey-canonical value → row ids,
// kept by the rules the store documents. A build lists the live rows
// ascending; insert appends; an update that changes the key removes the id
// from the old list (order of the rest kept) and appends it to the new one;
// a delete leaves the id where it is. built=false models the index a
// compaction dropped: mutations leave it alone, and the next use rebuilds it.
type refIndex struct {
	vals  []predicate.Value // current indexed value per row id
	dead  map[int]bool
	ids   map[predicate.Value][]int
	built bool
}

func (r *refIndex) build() {
	r.ids = make(map[predicate.Value][]int)
	for id, v := range r.vals {
		if !r.dead[id] {
			k := indexKey(v)
			r.ids[k] = append(r.ids[k], id)
		}
	}
	r.built = true
}

func (r *refIndex) insert(v predicate.Value) {
	id := len(r.vals)
	r.vals = append(r.vals, v)
	if r.built {
		k := indexKey(v)
		r.ids[k] = append(r.ids[k], id)
	}
}

func (r *refIndex) update(id int, v predicate.Value) {
	oldK, newK := indexKey(r.vals[id]), indexKey(v)
	r.vals[id] = v
	if !r.built || oldK == newK {
		return
	}
	i := slices.Index(r.ids[oldK], id)
	r.ids[oldK] = slices.Delete(r.ids[oldK], i, i+1)
	r.ids[newK] = append(r.ids[newK], id)
}

// live is the key's list with tombstoned ids filtered, order kept.
func (r *refIndex) live(v predicate.Value) []int {
	var out []int
	for _, id := range r.ids[indexKey(v)] {
		if !r.dead[id] {
			out = append(out, id)
		}
	}
	return out
}

// compact renumbers the live rows densely in ascending order and drops the
// index, as compactLocked does.
func (r *refIndex) compact() {
	var vals []predicate.Value
	for id, v := range r.vals {
		if !r.dead[id] {
			vals = append(vals, v)
		}
	}
	r.vals, r.dead, r.ids, r.built = vals, map[int]bool{}, nil, false
}

// TestHashIndexMatchesReference runs a seeded mix of Insert, Update,
// UpdateCol, Delete, DeleteByKey and one compaction over a column holding
// ints, integral floats (-0.0 among them), non-integral floats, strings and
// NULL, and checks after each op that every probe's index postings —
// Table.lookup's raw list, LookupRowIDs' live list, DeleteByKey's match —
// hold the reference's rows in the reference's order.
func TestHashIndexMatchesReference(t *testing.T) {
	domain := []predicate.Value{
		predicate.Int(0), predicate.Int(1), predicate.Int(2), predicate.Int(-3),
		predicate.Int(1 << 40),
		predicate.Float(0), predicate.Float(math.Copysign(0, -1)), predicate.Float(1),
		predicate.Float(-3), predicate.Float(1 << 40),
		predicate.Float(0.5), predicate.Float(2.5),
		predicate.String("a"), predicate.String("b"), predicate.String("1"),
		predicate.Null(),
	}
	probes := append(slices.Clone(domain), predicate.Int(7), predicate.String("zz"),
		predicate.Float(-0.5))

	db := NewDB()
	tab, err := db.CreateTable("t", Column{Name: "k", Kind: predicate.KindInt},
		Column{Name: "tag", Kind: predicate.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	pos := tab.ColumnIndex("k")
	rng := rand.New(rand.NewSource(42))
	pick := func() predicate.Value { return domain[rng.Intn(len(domain))] }
	ref := &refIndex{dead: map[int]bool{}}

	for i := 0; i < 200; i++ {
		v := pick()
		if _, err := tab.Insert(v, predicate.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
		ref.insert(v)
	}
	if err := tab.BuildIndex("k"); err != nil {
		t.Fatal(err)
	}
	ref.build()

	liveID := func() (int, bool) {
		for try := 0; try < 50 && len(ref.vals) > 0; try++ {
			if id := rng.Intn(len(ref.vals)); !ref.dead[id] {
				return id, true
			}
		}
		return 0, false
	}
	// check compares every probe's raw postings; full adds LookupRowIDs,
	// which builds a missing index as a side effect.
	check := func(step int, op string, full bool) {
		t.Helper()
		for _, v := range probes {
			tab.state.RLock()
			got, found := tab.lookup(pos, v)
			tab.state.RUnlock()
			if found != ref.built {
				t.Fatalf("step %d (%s): lookup(%v) found=%v, want %v", step, op, v, found, ref.built)
			}
			if found {
				want := ref.ids[indexKey(v)]
				if !slices.Equal(int32s(want), got) {
					t.Fatalf("step %d (%s): lookup(%v) = %v, want %v", step, op, v, got, want)
				}
			}
		}
		if !full {
			return
		}
		for _, v := range probes {
			got, err := db.LookupRowIDs("t", "k", v)
			if err != nil {
				t.Fatal(err)
			}
			if !ref.built {
				ref.build() // LookupRowIDs built the index the compaction dropped
			}
			if want := ref.live(v); !slices.Equal(got, want) {
				t.Fatalf("step %d (%s): LookupRowIDs(%v) = %v, want %v", step, op, v, got, want)
			}
		}
	}

	const steps = 3000
	for step := 0; step < steps; step++ {
		var op string
		switch r := rng.Intn(100); {
		case step == steps/2:
			op = "compact"
			tab.state.Lock()
			tab.compactLocked()
			tab.state.Unlock()
			ref.compact()
		case r < 30:
			op = "insert"
			v := pick()
			if _, err := tab.Insert(v, predicate.Int(int64(step))); err != nil {
				t.Fatal(err)
			}
			ref.insert(v)
		case r < 50:
			op = "update"
			if id, ok := liveID(); ok {
				v := pick()
				if err := tab.Update(id, v, predicate.Int(int64(-step))); err != nil {
					t.Fatal(err)
				}
				ref.update(id, v)
			}
		case r < 75:
			op = "updatecol"
			if id, ok := liveID(); ok {
				v := pick()
				if err := tab.UpdateCol(id, "k", v); err != nil {
					t.Fatal(err)
				}
				ref.update(id, v)
			}
		case r < 92:
			op = "delete"
			if id, ok := liveID(); ok {
				if !tab.Delete(id) {
					t.Fatalf("step %d: Delete(%d) refused a live row", step, id)
				}
				ref.dead[id] = true
			}
		default:
			op = "deletebykey"
			v := pick()
			tab.state.Lock()
			got := tab.matchLiveLocked(pos, v)
			tab.state.Unlock()
			if !ref.built {
				ref.build()
			}
			want := ref.live(v)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: DeleteByKey(%v) matches %v, want %v", step, v, got, want)
			}
			if err := db.NewBatch().DeleteByKey("t", "k", v).Commit(); err != nil {
				t.Fatal(err)
			}
			for _, id := range want {
				if tab.Alive(id) {
					t.Fatalf("step %d: DeleteByKey(%v) left row %d alive", step, v, id)
				}
				ref.dead[id] = true
			}
		}
		// For a while after the compaction only the raw lookups run, so
		// mutations land while no index exists and the next use rebuilds
		// it.
		check(step, op, step < steps/2 || step > steps/2+40)
	}
}

func int32s(ids []int) []int32 {
	out := make([]int32, len(ids))
	for i, id := range ids {
		out[i] = int32(id)
	}
	return out
}

// BenchmarkBuildIndex builds the hash index over the two int-key shapes the
// workload indexes: a unique key (like dblp.pid, 32k rows) and a key shared
// by ~2.5 consecutive rows (like dblp_author.pid, 80k rows). B/op is what one
// build allocates; live-B/row is what the finished index keeps reachable,
// the heap after runtime.GC() with the index minus the heap without it.
func BenchmarkBuildIndex(b *testing.B) {
	for _, bc := range []struct {
		name string
		rows int
		key  func(i int) int64
	}{
		{"unique-32k", 32000, func(i int) int64 { return int64(i) }},
		{"dup2.5-80k", 80000, func(i int) int64 { return int64(i * 2 / 5) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			db := NewDB()
			tab, err := db.CreateTable("t", Column{Name: "k", Kind: predicate.KindInt})
			if err != nil {
				b.Fatal(err)
			}
			batch := db.NewBatch()
			for i := 0; i < bc.rows; i++ {
				batch.Insert("t", predicate.Int(bc.key(i)))
			}
			if err := batch.Commit(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tab.BuildIndex("k"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			with := liveHeap()
			tab.mu.Lock()
			delete(tab.indexes, tab.ColumnIndex("k"))
			tab.mu.Unlock()
			without := liveHeap()
			runtime.KeepAlive(tab) // the table itself counts on neither side
			b.ReportMetric(float64(int64(with)-int64(without))/float64(bc.rows), "live-B/row")
		})
	}
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
