package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a lock-free log-linear latency histogram: each power-of-two
// octave splits into 16 linear sub-buckets (HDR-style), so relative bucket
// error is bounded by 1/16 everywhere while the whole range from 1 ns to
// ~35 minutes fits in a few hundred counters. Counters are sharded to keep
// concurrent recorders off each other's cache lines; Record is one hash,
// one index computation, and one atomic add.
//
// The zero value is ready to use.
type Histogram struct {
	shards [histShards]histShard
}

const (
	histSubBits = 4
	histSub     = 1 << histSubBits // linear sub-buckets per octave

	// maxExp caps the tracked range at 2^(maxExp+1)-1 ns (~36.6 min);
	// larger values clamp into the last bucket. The cap keeps each shard's
	// counter array a few KB instead of tracking the full int64 range.
	maxExp      = 41
	histBuckets = (maxExp - histSubBits + 2) * histSub

	histShards    = 4
	histShardMask = histShards - 1
)

type histShard struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	_      [48]byte // keep neighbouring shards' hot tails off one line
}

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v int64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1
	if exp > maxExp {
		return histBuckets - 1
	}
	sub := int((uint64(v) >> (uint(exp) - histSubBits)) & (histSub - 1))
	return (exp-histSubBits+1)*histSub + sub
}

// bucketLow is the smallest value mapping to bucket i.
func bucketLow(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	oct := i / histSub
	sub := i % histSub
	return int64(histSub+sub) << uint(oct-1)
}

// Record adds one sample (negative values clamp to 0). Nil histograms drop
// the sample — same discipline as Counter.Add, so callers wired to an
// optional registry need no branch of their own.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	// Spread concurrent recorders over shards by a cheap value hash; equal
	// values from different goroutines usually still split because latency
	// samples rarely collide exactly.
	s := &h.shards[(uint64(v)*0x9E3779B97F4A7C15)>>62&histShardMask]
	s.counts[bucketOf(v)].Add(1)
	s.count.Add(1)
	s.sum.Add(v)
}

// RecordDuration adds one latency sample.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// HistSnapshot is a merged point-in-time copy of a histogram: plain values,
// safe to aggregate, quantile, and serialize.
type HistSnapshot struct {
	Counts [histBuckets]int64
	Count  int64
	Sum    int64
}

// Snapshot merges the shards into plain counters. Individual loads are
// atomic; the snapshot as a whole is approximate under concurrent traffic,
// which is what a metrics export needs.
func (h *Histogram) Snapshot() HistSnapshot {
	var out HistSnapshot
	for i := range h.shards {
		s := &h.shards[i]
		for b := range s.counts {
			out.Counts[b] += s.counts[b].Load()
		}
		out.Count += s.count.Load()
		out.Sum += s.sum.Load()
	}
	return out
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) by nearest rank over the
// buckets, reporting the midpoint of the selected bucket — within the
// 1/16-octave bucket width of the exact sample quantile.
func (s *HistSnapshot) Quantile(p float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	// Nearest rank: index p*(n-1) of the sorted sample, so an exact
	// percentile and this agree up to bucket resolution.
	target := int64(p * float64(s.Count-1))
	var cum int64
	for b, c := range s.Counts {
		cum += c
		if cum > target {
			lo := bucketLow(b)
			hi := bucketLow(b+1) - 1
			return lo + (hi-lo)/2
		}
	}
	return bucketLow(histBuckets - 1) // unreachable unless counts raced
}
