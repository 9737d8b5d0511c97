package metrics

import "testing"

// Pins the counter semantics the serving tier maintains: every miss is one
// evaluation, a stale bypass is neither, and HitRate counts result-cache
// hits over hits + misses + shared waits.
func TestCacheCounterSemantics(t *testing.T) {
	var c CacheCounters
	// 6 result hits, 4 misses (each evaluated), 2 shared waits, 1 stale
	// bypass (an evaluation, but not a miss evaluation).
	c.Hits.Add(6)
	c.Misses.Add(4)
	c.Evaluations.Add(4)
	c.SharedWaits.Add(2)
	c.StaleBypasses.Add(1)

	s := c.Snapshot()
	if s.Misses != s.Evaluations {
		t.Fatalf("misses=%d, evaluations=%d; want equal", s.Misses, s.Evaluations)
	}
	// HitRate: 6 / (6+4+2).
	if got, want := s.HitRate(), 6.0/12.0; got != want {
		t.Fatalf("HitRate = %v, want %v", got, want)
	}

	var empty CacheSnapshot
	if empty.HitRate() != 0 {
		t.Fatal("empty snapshot rate must be 0")
	}
}
