package combine

import (
	"testing"
	"testing/quick"
)

func TestNewIntSetSortsAndDedupes(t *testing.T) {
	s := NewIntSet([]int64{5, 1, 3, 1, 5, 2})
	want := IntSet{1, 2, 3, 5}
	if len(s) != len(want) {
		t.Fatalf("s = %v", s)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("s = %v", s)
		}
	}
	if NewIntSet(nil).Len() != 0 {
		t.Error("empty set")
	}
}

func TestIntSetContains(t *testing.T) {
	s := NewIntSet([]int64{2, 4, 6})
	for _, v := range []int64{2, 4, 6} {
		if !s.Contains(v) {
			t.Errorf("missing %d", v)
		}
	}
	for _, v := range []int64{1, 3, 5, 7} {
		if s.Contains(v) {
			t.Errorf("phantom %d", v)
		}
	}
	if (IntSet{}).Contains(1) {
		t.Error("empty contains")
	}
}

func TestIntSetOps(t *testing.T) {
	a := NewIntSet([]int64{1, 2, 3, 4})
	b := NewIntSet([]int64{3, 4, 5})
	if got := a.Intersect(b); got.Len() != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Intersect(IntSet{}); got.Len() != 0 {
		t.Errorf("empty intersect = %v", got)
	}
}

// unionSets is a ∪ b, the oracle Bitmap.Or is checked against.
func unionSets(a, b IntSet) IntSet {
	return NewIntSet(append(append([]int64(nil), a...), b...))
}

func toSet(m map[int64]bool) IntSet {
	var vals []int64
	for v, in := range m {
		if in {
			vals = append(vals, v)
		}
	}
	return NewIntSet(vals)
}

// Property: set algebra agrees with map-based reference semantics.
func TestIntSetAlgebraProperty(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		ma, mb := map[int64]bool{}, map[int64]bool{}
		for _, x := range xs {
			ma[int64(x)] = true
		}
		for _, y := range ys {
			mb[int64(y)] = true
		}
		a, b := toSet(ma), toSet(mb)

		inter, union := map[int64]bool{}, map[int64]bool{}
		for v := range ma {
			union[v] = true
			if mb[v] {
				inter[v] = true
			}
		}
		for v := range mb {
			union[v] = true
		}
		eq := func(s IntSet, m map[int64]bool) bool {
			if s.Len() != len(m) {
				return false
			}
			for _, v := range s {
				if !m[v] {
					return false
				}
			}
			return true
		}
		return eq(a.Intersect(b), inter) && eq(unionSets(a, b), union)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: sets are always sorted and deduplicated after operations.
func TestIntSetInvariantProperty(t *testing.T) {
	sortedUnique := func(s IntSet) bool {
		for i := 1; i < len(s); i++ {
			if s[i] <= s[i-1] {
				return false
			}
		}
		return true
	}
	f := func(xs, ys []uint8) bool {
		var ax, ay []int64
		for _, x := range xs {
			ax = append(ax, int64(x))
		}
		for _, y := range ys {
			ay = append(ay, int64(y))
		}
		a, b := NewIntSet(ax), NewIntSet(ay)
		return sortedUnique(a) && sortedUnique(b) &&
			sortedUnique(a.Intersect(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
