package combine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hypre/internal/bitset"
	"hypre/internal/hypre"
	"hypre/internal/predicate"
	"hypre/internal/relstore"
)

// randomSetFamily draws sets of every container shape over [0, universe):
// empty, sparse, dense, one run, everything, and repeats of earlier sets.
func randomSetFamily(rng *rand.Rand, universe, n int) []*bitset.Set {
	sets := make([]*bitset.Set, n)
	for i := range sets {
		s := bitset.New()
		switch shape := rng.Intn(6); {
		case shape == 0: // empty
		case shape == 1 && i > 0:
			s = sets[rng.Intn(i)].Clone()
		case shape == 2:
			lo := rng.Intn(universe)
			s.AddRange(lo, lo+rng.Intn(universe-lo))
		case shape == 3:
			s.AddRange(0, universe-1)
		default:
			p := []float64{0.002, 0.05, 0.5, 0.95}[rng.Intn(4)]
			for id := 0; id < universe; id++ {
				if rng.Float64() < p {
					s.Add(id)
				}
			}
		}
		sets[i] = s
	}
	return sets
}

// TestClassifyPartitionsBySignature is the classifier's contract over random
// set families: the classes are exactly the distinct non-empty membership
// signatures, the weights count their members, mask i holds class c iff c's
// members are in set i, and the numbering repeats for the same input.
func TestClassifyPartitionsBySignature(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		universe := []int{1, 63, 64, 65, 1000, 70000}[trial%6]
		sets := randomSetFamily(rng, universe, rng.Intn(11))
		cp := classify(sets, universe)
		tag := fmt.Sprintf("trial %d (universe %d, %d sets)", trial, universe, len(sets))

		if len(cp.classOf) != universe || len(cp.masks) != len(sets) {
			t.Fatalf("%s: %d ids, %d masks", tag, len(cp.classOf), len(cp.masks))
		}
		members := make([]int, len(cp.weight))
		bySignature := map[string]int32{}
		for id, c := range cp.classOf {
			sig := make([]byte, len(sets))
			inAny := false
			for i, s := range sets {
				if s.Contains(id) {
					sig[i], inAny = 1, true
				}
			}
			if !inAny {
				if c != -1 {
					t.Fatalf("%s: id %d is in no set but in class %d", tag, id, c)
				}
				continue
			}
			if c < 0 || int(c) >= len(cp.weight) {
				t.Fatalf("%s: id %d (in a set) has class %d of %d", tag, id, c, len(cp.weight))
			}
			members[c]++
			if prev, ok := bySignature[string(sig)]; ok && prev != c {
				t.Fatalf("%s: signature %v split over classes %d and %d", tag, sig, prev, c)
			}
			bySignature[string(sig)] = c
			for i := range sets {
				if inMask := cp.masks[i][c>>6]>>(c&63)&1 == 1; inMask != (sig[i] == 1) {
					t.Fatalf("%s: id %d class %d: mask %d says %v, set says %v", tag, id, c, i, inMask, sig[i] == 1)
				}
			}
		}
		if len(bySignature) != len(cp.weight) {
			t.Fatalf("%s: %d classes for %d signatures", tag, len(cp.weight), len(bySignature))
		}
		union := bitset.New()
		for _, s := range sets {
			union = union.Or(s)
		}
		total := 0
		for c, w := range cp.weight {
			if w != members[c] || w == 0 {
				t.Fatalf("%s: class %d weighs %d, has %d members", tag, c, w, members[c])
			}
			total += w
		}
		if total != union.Len() {
			t.Fatalf("%s: weights sum to %d, union holds %d", tag, total, union.Len())
		}
		for i, m := range cp.masks {
			if len(m) != (len(cp.weight)+63)/64 {
				t.Fatalf("%s: mask %d is %d words for %d classes", tag, i, len(m), len(cp.weight))
			}
			if tail := len(cp.weight) & 63; tail != 0 && m[len(m)-1]>>tail != 0 {
				t.Fatalf("%s: mask %d has bits past class %d", tag, i, len(cp.weight))
			}
		}
		if again := classify(sets, universe); !reflect.DeepEqual(cp, again) {
			t.Fatalf("%s: a second run numbered the classes differently", tag)
		}
	}
}

// intColsDB builds a joinless store dblp(pid, c0..c{cols-1}) whose cell
// values the caller dictates — the signature of every row is then known by
// construction.
func intColsDB(tb testing.TB, cols, rows int, val func(row, col int) int64) *relstore.DB {
	tb.Helper()
	db := relstore.NewDB()
	schema := []relstore.Column{{Name: "pid", Kind: predicate.KindInt}}
	for c := 0; c < cols; c++ {
		schema = append(schema, relstore.Column{Name: fmt.Sprintf("c%d", c), Kind: predicate.KindInt})
	}
	tbl, err := db.CreateTable("dblp", schema...)
	if err != nil {
		tb.Fatal(err)
	}
	vals := make([]predicate.Value, cols+1)
	for r := 0; r < rows; r++ {
		vals[0] = predicate.Int(int64(r))
		for c := 0; c < cols; c++ {
			vals[c+1] = predicate.Int(val(r, c))
		}
		if _, err := tbl.Insert(vals...); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// bitsDB is the store where row r's columns spell r mod 2^bits in binary:
// under bitsProfile every residue but 0 is a signature class of its own.
func bitsDB(tb testing.TB, bits, rows int) *relstore.DB {
	return intColsDB(tb, bits, rows, func(r, c int) int64 { return int64(r >> c & 1) })
}

func bitsProfile(tb testing.TB, bits int) []hypre.ScoredPred {
	specs := make([]string, bits)
	for c := range specs {
		specs[c] = fmt.Sprintf("dblp.c%d=1", c)
	}
	return descendingProfile(tb, 0.6, 0.9, specs...)
}

// descendingProfile scores the predicates first, first·step, first·step², …
func descendingProfile(tb testing.TB, first, step float64, preds ...string) []hypre.ScoredPred {
	tb.Helper()
	out := make([]hypre.ScoredPred, len(preds))
	for i, p := range preds {
		out[i] = mustSP(tb, p, first)
		first *= step
	}
	return out
}

// assertShardedMatchesPEPS sweeps workers × k × variant over one store and
// profile: PEPSSharded must return serial PEPS's Tuples and AnchorsUsed.
// PEPS does not read ev.Workers, so the first width's oracle runs serve all.
func assertShardedMatchesPEPS(t *testing.T, tag string, db *relstore.DB, profile []hypre.ScoredPred, ks []int) {
	t.Helper()
	type cell struct {
		k int
		v Variant
	}
	want := map[cell]TopKResult{}
	for _, workers := range shardWorkerCounts() {
		ev := bigShardEvaluator(t, db, workers)
		pt, err := BuildPairTable(profile, ev)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range ks {
			for _, v := range []Variant{Complete, Approximate} {
				if _, ok := want[cell{k, v}]; !ok {
					if want[cell{k, v}], err = PEPS(profile, pt, ev, k, v); err != nil {
						t.Fatal(err)
					}
				}
				got, err := PEPSSharded(profile, pt, ev, k, v)
				if err != nil {
					t.Fatal(err)
				}
				assertSameTopK(t, fmt.Sprintf("%s workers=%d k=%d %s", tag, workers, k, v), want[cell{k, v}], got)
			}
		}
	}
}

// TestPEPSShardedClassShapes runs the class kernel against the tuple-level
// oracle on the shapes where the partition degenerates or the weighted
// selection has to break ties the way the tuple sort does.
func TestPEPSShardedClassShapes(t *testing.T) {
	const rows = 600
	ks := []int{1, 2, 3, 7, 50, rows - 1, rows, 1 << 20} // the last exceeds any credited count
	mixed := func(r, c int) int64 { return int64((r*(c+2) + r/7) % (c + 3)) }
	shapes := []struct {
		name    string
		db      *relstore.DB
		profile []hypre.ScoredPred
	}{
		{"identical bitmaps", intColsDB(t, 3, rows, mixed), descendingProfile(t, 0.8, 0.85,
			`dblp.c0=1`, `dblp.c0 BETWEEN 1 AND 1`, `dblp.c1>=2`, `NOT (dblp.c1<2)`, `dblp.c2=0`)},
		{"empty predicates", intColsDB(t, 3, rows, mixed), descendingProfile(t, 0.9, 0.8,
			`dblp.c0=99`, `dblp.c1=1`, `dblp.c2<0`, `dblp.c2>=2`, `dblp.c0=0`)},
		{"only empty predicates", intColsDB(t, 3, rows, mixed), descendingProfile(t, 0.9, 0.8,
			`dblp.c0=99`, `dblp.c1<0`)},
		{"one class", intColsDB(t, 3, rows, func(int, int) int64 { return 1 }), descendingProfile(t, 0.7, 0.9,
			`dblp.c0=1`, `dblp.c1>=0`, `dblp.c2 BETWEEN 0 AND 5`, `dblp.c0<2`)},
		{"every tuple its own class", bitsDB(t, 9, 1<<9), bitsProfile(t, 9)},
		// Even rows match c0 only, odd rows c1 only, at one shared intensity;
		// every fifth row of either kind also matches c2. Each intensity level
		// is two classes whose pids interleave, so any k cuts through a tie
		// that only the pid order resolves.
		{"k-th intensity tied across classes", intColsDB(t, 3, rows, func(r, c int) int64 {
			switch c {
			case 0:
				return int64(1 - r%2)
			case 1:
				return int64(r % 2)
			}
			return int64(r % 5 / 4)
		}), descendingProfile(t, 0.5, 1, `dblp.c2=1`, `dblp.c0=1`, `dblp.c1=1`)},
		// Rows 100–199 match the first and third preference, rows 0–99 the
		// second and fourth, and the two chains multiply the same factors:
		// when the second anchor opens, its only chain's bound EQUALS the
		// k-th intensity the first anchor proved, and its tuples have the
		// lower pids — pruning on equality would lose them.
		{"chain bound equal to the proven k-th", intColsDB(t, 1, rows, func(r, _ int) int64 {
			return int64(max(0, 2-r/100))
		}), []hypre.ScoredPred{
			mustSP(t, `dblp.c0=1`, 0.5), mustSP(t, `dblp.c0=2`, 0.5),
			mustSP(t, `dblp.c0 BETWEEN 1 AND 1`, 0.4), mustSP(t, `dblp.c0 BETWEEN 2 AND 2`, 0.4)}},
	}
	for _, s := range shapes {
		assertShardedMatchesPEPS(t, s.name, s.db, s.profile, ks)
	}
}
