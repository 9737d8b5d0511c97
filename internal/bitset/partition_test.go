package bitset

import (
	"math/rand"
	"testing"
)

// TestPartitionInvariants is the randomized suite for the span layer:
// SpanUnion is the sorted union of both operands' populated spans, and
// per-span intersection counts sum to the global count.
func TestPartitionInvariants(t *testing.T) {
	const max = 4 * containerSpan
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		s, _ := genSet(rng, max)
		o, _ := genSet(rng, max)

		union := SpanUnion(s, o)
		sum := 0
		for _, span := range union {
			sum += s.AndCardSpan(o, span)
		}
		if want := s.AndCard(o); sum != want {
			t.Fatalf("trial %d: Σ AndCardSpan=%d, AndCard=%d", trial, sum, want)
		}
		// SpanUnion covers both operands' spans, sorted.
		seen := map[Span]bool{}
		for i, sp := range union {
			if i > 0 && union[i-1] >= sp {
				t.Fatalf("trial %d: SpanUnion not ascending: %v", trial, union)
			}
			seen[sp] = true
		}
		for _, set := range []*Set{s, o} {
			for k, ok := set.NextSet(0); ok; k, ok = set.NextSet((k>>16 + 1) << 16) {
				if !seen[Span(k>>16)] {
					t.Fatalf("trial %d: SpanUnion missing span %d", trial, k>>16)
				}
			}
		}
	}
}
