package combine

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func bitmapFromPids(d *PidDict, pids []int64) *Bitmap {
	b := NewBitmap()
	seen := map[int64]bool{}
	for _, p := range pids {
		if seen[p] {
			continue
		}
		seen[p] = true
		b.Set(d.Add(p))
	}
	return b
}

func TestPidDictRoundTrip(t *testing.T) {
	d := NewPidDict()
	pids := []int64{42, 7, 42, 9000000000, 7, 0}
	for _, p := range pids {
		d.Add(p)
	}
	if d.Size() != 4 {
		t.Fatalf("size = %d, want 4", d.Size())
	}
	for _, p := range []int64{42, 7, 9000000000, 0} {
		if d.PID(d.Add(p)) != p {
			t.Errorf("round trip broke for %d", p)
		}
	}
}

// TestPidDictMatchesMap drives PidDict and a plain map through seeded
// random sequences that mix an ascending dense run, a shuffled dense run, 0
// and negative pids, pids one below, at and one past the window's edge and
// its growth bound, pids of order 2^40 and math.MaxInt64, and repeats; half
// the dictionaries are presized by Reserve, and a quarter reserved again
// halfway. After every step Add's index,
// Find (the added pid, an earlier pid, and pids absent inside the window),
// PID and Size must agree with the map, and the window must stay within its
// bound; every window growth is followed by a sweep over every pid.
func TestPidDictMatchesMap(t *testing.T) {
	const steps = 4000
	for seed := int64(0); seed < 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := NewPidDict()
		if seed%2 == 1 {
			d.Reserve(1 + rng.Intn(steps))
		}
		ref := map[int64]int{}
		var order []int64
		next := int64(rng.Intn(3))
		perm := rng.Perm(2 * steps)
		find := func(step int, pid int64) {
			t.Helper()
			want, in := ref[pid]
			got, ok := d.Find(pid)
			if ok != in || (in && got != want) {
				t.Fatalf("seed %d step %d: Find(%d) = %d, %v; want %d, %v", seed, step, pid, got, ok, want, in)
			}
		}
		sweep := func(step int) {
			t.Helper()
			for _, pid := range order {
				find(step, pid)
			}
		}
		for step := 0; step < steps; step++ {
			var pid int64
			switch k := rng.Intn(10); {
			case k < 3:
				pid, next = next, next+1
			case k < 5:
				pid = int64(perm[step%len(perm)])
			case k == 5:
				edge := int64(len(d.slot))
				if rng.Intn(2) == 0 {
					edge = int64(2*cap(d.pids) + windowSlack)
				}
				pid = edge - 1 + int64(rng.Intn(3))
			case k == 6:
				pid = []int64{0, -1, -1 - rng.Int63n(1<<20), math.MinInt64}[rng.Intn(4)]
			case k == 7:
				pid = []int64{1<<40 + rng.Int63n(1<<20), math.MaxInt64, math.MaxInt64 - 1}[rng.Intn(3)]
			default:
				if len(order) > 0 {
					pid = order[rng.Intn(len(order))]
				}
			}
			if seed%4 == 0 && step == steps/2 {
				d.Reserve(len(order) + steps)
			}
			window := len(d.slot)
			want, in := ref[pid]
			if !in {
				want = len(order)
				ref[pid] = want
				order = append(order, pid)
			}
			if got := d.Add(pid); got != want {
				t.Fatalf("seed %d step %d: Add(%d) = %d, want %d", seed, step, pid, got, want)
			}
			if d.Size() != len(order) {
				t.Fatalf("seed %d step %d: Size = %d, want %d", seed, step, d.Size(), len(order))
			}
			if got := d.PID(want); got != pid {
				t.Fatalf("seed %d step %d: PID(%d) = %d, want %d", seed, step, want, got, pid)
			}
			if lim := 2*cap(d.pids) + windowSlack; len(d.slot) > lim {
				t.Fatalf("seed %d step %d: window %d past its bound %d", seed, step, len(d.slot), lim)
			}
			find(step, pid)
			find(step, order[rng.Intn(len(order))])
			for i := 0; i < 4 && len(d.slot) > 0; i++ {
				find(step, rng.Int63n(int64(len(d.slot))))
			}
			find(step, math.MinInt64+1)
			if len(d.slot) != window {
				sweep(step)
			}
		}
		sweep(steps)
		for i, pid := range order {
			if d.PID(i) != pid {
				t.Fatalf("seed %d: PID(%d) = %d, want %d", seed, i, d.PID(i), pid)
			}
		}
	}
}

func TestBitmapBasicOps(t *testing.T) {
	d := NewPidDict()
	a := bitmapFromPids(d, []int64{1, 2, 3, 4})
	b := bitmapFromPids(d, []int64{3, 4, 5})
	if got := a.And(b).Len(); got != 2 {
		t.Errorf("And len = %d", got)
	}
	if got := a.AndCard(b); got != 2 {
		t.Errorf("AndCard = %d", got)
	}
	if got := a.Or(b).Len(); got != 5 {
		t.Errorf("Or len = %d", got)
	}
	if !a.Any(b) {
		t.Error("Any false negative")
	}
	c := bitmapFromPids(d, []int64{9, 10})
	if a.Any(c) {
		t.Error("Any false positive")
	}
	if a.AndCard(NewBitmap()) != 0 || NewBitmap().Any(a) {
		t.Error("empty operand")
	}
	set := a.ToIntSet(d)
	want := IntSet{1, 2, 3, 4}
	if set.Len() != 4 {
		t.Fatalf("ToIntSet = %v", set)
	}
	for i := range want {
		if set[i] != want[i] {
			t.Fatalf("ToIntSet = %v, want %v", set, want)
		}
	}
}

// TestBitmapSetContains exercises growth across word boundaries and the
// cardinality cache.
func TestBitmapSetContains(t *testing.T) {
	b := NewBitmap()
	for _, i := range []int{0, 63, 64, 127, 500} {
		b.Set(i)
		b.Set(i) // idempotent
	}
	if b.Len() != 5 {
		t.Fatalf("card = %d", b.Len())
	}
	for _, i := range []int{0, 63, 64, 127, 500} {
		if !b.Contains(i) {
			t.Errorf("missing %d", i)
		}
	}
	for _, i := range []int{1, 62, 65, 501, 10000} {
		if b.Contains(i) {
			t.Errorf("phantom %d", i)
		}
	}
}

// TestBitmapMatchesIntSetProperty is the load-bearing agreement property of
// the set layer: Bitmap and slice IntSet must produce identical results for
// Union/Intersect and their cardinality over randomized inputs, including
// operands built against a shared dictionary at different growth stages
// (different word lengths).
func TestBitmapMatchesIntSetProperty(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		ax := make([]int64, len(xs))
		for i, x := range xs {
			ax[i] = int64(x)
		}
		ay := make([]int64, len(ys))
		for i, y := range ys {
			ay[i] = int64(y)
		}
		sa, sb := NewIntSet(ax), NewIntSet(ay)

		d := NewPidDict()
		ba := bitmapFromPids(d, ax)
		bb := bitmapFromPids(d, ay)

		eq := func(bm *Bitmap, s IntSet) bool {
			got := bm.ToIntSet(d)
			if len(got) != len(s) || bm.Len() != s.Len() {
				return false
			}
			for i := range s {
				if got[i] != s[i] {
					return false
				}
			}
			return true
		}
		return eq(ba.And(bb), sa.Intersect(sb)) &&
			eq(ba.Or(bb), unionSets(sa, sb)) &&
			ba.Any(bb) == (sa.Intersect(sb).Len() > 0) &&
			ba.AndCard(bb) == sa.Intersect(sb).Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestGallopingIntersectLopsided forces the galloping path (large/small
// ratio beyond gallopFactor) and checks it against the linear merge result
// and the bitmap path.
func TestGallopingIntersectLopsided(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		small := make([]int64, 1+rng.Intn(10))
		for i := range small {
			small[i] = int64(rng.Intn(100000))
		}
		large := make([]int64, gallopFactor*len(small)+1+rng.Intn(5000))
		for i := range large {
			large[i] = int64(rng.Intn(100000))
		}
		a, b := NewIntSet(small), NewIntSet(large)
		if len(b) < gallopFactor*len(a) {
			continue // dedupe may have shrunk below the gallop threshold
		}

		// Reference: map-based intersection.
		in := map[int64]bool{}
		for _, v := range a {
			in[v] = true
		}
		var want []int64
		for _, v := range b {
			if in[v] {
				want = append(want, v)
			}
		}
		ref := NewIntSet(want)

		got := a.Intersect(b)
		if got.Len() != ref.Len() {
			t.Fatalf("trial %d: gallop len=%d want %d", trial, got.Len(), ref.Len())
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("trial %d: gallop mismatch at %d", trial, i)
			}
		}
		// Symmetric call hits the same path via the small/large swap.
		got2 := b.Intersect(a)
		if got2.Len() != ref.Len() {
			t.Fatalf("trial %d: swapped gallop len=%d", trial, got2.Len())
		}
	}
}

func TestGallopSearch(t *testing.T) {
	s := IntSet{2, 4, 4, 8, 16, 32, 64, 128}
	cases := []struct {
		from int
		v    int64
		want int
	}{
		{0, 1, 0}, {0, 2, 0}, {0, 3, 1}, {0, 128, 7}, {0, 129, 8},
		{3, 5, 3}, {8, 1, 8},
	}
	for _, c := range cases {
		if got := gallopSearch(s, c.from, c.v); got != c.want {
			t.Errorf("gallopSearch(from=%d, v=%d) = %d, want %d", c.from, c.v, got, c.want)
		}
	}
}
