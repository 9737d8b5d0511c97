package obs

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// Buckets must tile the value range: every value lands in exactly one
// bucket whose [low, nextLow) range contains it, and bucket lows are
// strictly increasing.
func TestHistBucketsTile(t *testing.T) {
	for i := 1; i < histBuckets; i++ {
		if bucketLow(i) <= bucketLow(i-1) {
			t.Fatalf("bucketLow not increasing at %d: %d <= %d", i, bucketLow(i), bucketLow(i-1))
		}
	}
	vals := []int64{0, 1, 15, 16, 17, 31, 32, 33, 1000, 123456, 1 << 30, 1 << 41, 1<<41 + 12345, 1 << 50}
	for i := 0; i < 4096; i++ {
		vals = append(vals, rand.Int63n(1<<42))
	}
	for _, v := range vals {
		b := bucketOf(v)
		if b < 0 || b >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, b)
		}
		if v >= 1<<42 {
			continue // clamped into the last bucket by design
		}
		lo := bucketLow(b)
		hi := bucketLow(b + 1)
		if v < lo || v >= hi {
			t.Fatalf("value %d landed in bucket %d [%d, %d)", v, b, lo, hi)
		}
	}
}

// The histogram quantile must agree with the exact nearest-rank percentile
// within the log-linear bucket width (1/16 of an octave — use 10% slack to
// cover the midpoint convention).
func TestHistQuantileVsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	lats := make([]time.Duration, 0, 5000)
	for i := 0; i < 5000; i++ {
		// Log-uniform latencies from ~100ns to ~100ms, the serving range.
		d := time.Duration(100 * math.Pow(10, rng.Float64()*6))
		lats = append(lats, d)
		h.RecordDuration(d)
	}
	s := h.Snapshot()
	if s.Count != int64(len(lats)) {
		t.Fatalf("count = %d, want %d", s.Count, len(lats))
	}
	slices.Sort(lats)
	for _, p := range []float64{0.5, 0.9, 0.99} {
		exact := lats[int(p*float64(len(lats)-1))] // nearest rank
		approx := time.Duration(s.Quantile(p))
		lo := float64(exact) * 0.90
		hi := float64(exact) * 1.10
		if float64(approx) < lo || float64(approx) > hi {
			t.Fatalf("p%.0f: hist %v vs exact %v beyond bucket tolerance", p*100, approx, exact)
		}
	}
}

// 16 goroutines recording while others snapshot: no lost counts at the end,
// no races (run under -race by CI).
func TestHistConcurrentRecordSnapshot(t *testing.T) {
	var h Histogram
	const (
		workers = 16
		perW    = 5000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ { // concurrent snapshotters
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = h.Snapshot()
				}
			}
		}()
	}
	var rec sync.WaitGroup
	for w := 0; w < workers; w++ {
		rec.Add(1)
		go func(w int) {
			defer rec.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perW; i++ {
				h.Record(rng.Int63n(1 << 32))
			}
		}(w)
	}
	rec.Wait()
	close(stop)
	wg.Wait()
	s := h.Snapshot()
	if want := int64(workers * perW); s.Count != want {
		t.Fatalf("lost samples: count = %d, want %d", s.Count, want)
	}
	var sum int64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != s.Count {
		t.Fatalf("bucket sum %d != count %d", sum, s.Count)
	}
}
