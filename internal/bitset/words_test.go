package bitset

import (
	"math/rand"
	"slices"
	"testing"
)

// checkWords verifies ForEachWord against ForEach: the same keys OR-ed into
// words, every visited word non-zero, word indices strictly ascending.
func checkWords(t *testing.T, tag string, s *Set) {
	t.Helper()
	want := map[int]uint64{}
	var order []int
	s.ForEach(func(i int) bool {
		if want[i>>6] == 0 {
			order = append(order, i>>6)
		}
		want[i>>6] |= 1 << (uint(i) & 63)
		return true
	})
	var got []int
	s.ForEachWord(func(wi int, w uint64) {
		if w == 0 {
			t.Fatalf("%s: word %d visited empty", tag, wi)
		}
		if len(got) > 0 && wi <= got[len(got)-1] {
			t.Fatalf("%s: word %d visited after word %d", tag, wi, got[len(got)-1])
		}
		if w != want[wi] {
			t.Fatalf("%s: word %d = %#x, ForEach gives %#x", tag, wi, w, want[wi])
		}
		got = append(got, wi)
	})
	if !slices.Equal(got, order) {
		t.Fatalf("%s: ForEachWord visited words %v, ForEach touches %v", tag, got, order)
	}
}

// TestForEachWordMatchesForEach checks the word walk on each container
// encoding (asserted, so a shape that stops producing its encoding fails
// here rather than going untested), on sets spanning several containers
// with gaps between their high keys, and on random mixed sets.
func TestForEachWordMatchesForEach(t *testing.T) {
	span := func(hk int) int { return hk * containerSpan }
	cases := []struct {
		tag   string
		build func(s *Set)
		types []ctype // one per container, in key order
	}{
		{"empty", func(s *Set) {}, nil},
		{"array", func(s *Set) {
			for _, v := range []int{0, 1, 63, 64, 130, 131, 4000, 65535} {
				s.Add(v)
			}
		}, []ctype{ctArray}},
		{"truncated bitmap", func(s *Set) {
			for v := 0; v < 5000; v += 3 {
				if v < 1000 || v > 3000 { // a gap of all-zero words
					s.Add(v)
				}
			}
		}, []ctype{ctBitmap}},
		{"runs", func(s *Set) {
			s.AddRange(5, 20)     // inside one word
			s.AddRange(30, 40)    // shares that word with the run before
			s.AddRange(63, 64)    // the last bit of a word alone
			s.AddRange(100, 1000) // spans full words
			s.AddRange(1024, 1088)
			s.AddRange(65000, containerSpan) // ends at 65535
		}, []ctype{ctRun}},
		{"several containers", func(s *Set) {
			for v := 10; v < 300; v += 7 {
				s.Add(v) // array in container 0
			}
			for v := span(2); v < span(2)+20000; v += 2 {
				s.Add(v) // bitmap in container 2
			}
			s.AddRange(span(5)+70, span(5)+9000)  // run in container 5
			s.AddRange(span(6)+65530, span(7)+10) // runs across the 6|7 boundary
		}, []ctype{ctArray, ctBitmap, ctRun, ctRun, ctRun}},
	}
	for _, c := range cases {
		s := New()
		c.build(s)
		var types []ctype
		for i := range s.cs {
			types = append(types, s.cs[i].typ)
		}
		if !slices.Equal(types, c.types) {
			t.Fatalf("%s: container encodings %v, want %v", c.tag, types, c.types)
		}
		checkWords(t, c.tag, s)
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		s, _ := genSet(rng, 1+rng.Intn(4*containerSpan))
		if trial%2 == 1 {
			s.Optimize()
		}
		checkWords(t, "random", s)
	}
}
