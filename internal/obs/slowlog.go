package obs

import (
	"sync"
	"time"
)

// SlowEntry is one logged slow query. Trace is present only when the query
// ran with tracing enabled (forced traces, the /debug/trace endpoint);
// untraced slow queries still log their summary line.
type SlowEntry struct {
	Seq     uint64        `json:"seq"`
	Route   string        `json:"route"`
	Query   string        `json:"query,omitempty"`
	K       int           `json:"k"`
	TotalNs int64         `json:"total_ns"`
	At      time.Time     `json:"at"`
	Trace   *Trace        `json:"trace,omitempty"`
	Total   time.Duration `json:"-"`
}

// SlowLog is a threshold-gated ring buffer of slow queries: queries at or
// above Threshold are kept, newest overwriting oldest once the ring wraps.
// The fast path for a below-threshold query is one duration compare.
type SlowLog struct {
	threshold time.Duration

	mu   sync.Mutex
	ring []SlowEntry
	seq  uint64 // total entries ever logged; ring[(seq-1) % len] is newest
}

// NewSlowLog builds a ring of the given capacity (minimum 1) keeping
// queries slower than or equal to threshold.
func NewSlowLog(threshold time.Duration, capacity int) *SlowLog {
	if capacity < 1 {
		capacity = 1
	}
	return &SlowLog{threshold: threshold, ring: make([]SlowEntry, 0, capacity)}
}

// Threshold returns the gating duration, so callers can skip building an
// entry (formatting the query string) for fast queries.
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 1<<63 - 1
	}
	return l.threshold
}

// Observe logs one served query if it is slow enough. tr may be nil.
func (l *SlowLog) Observe(route, query string, k int, total time.Duration, tr *Trace) {
	if l == nil || total < l.threshold {
		return
	}
	e := SlowEntry{
		Route:   route,
		Query:   query,
		K:       k,
		TotalNs: total.Nanoseconds(),
		Total:   total,
		At:      time.Now(),
		Trace:   tr,
	}
	l.mu.Lock()
	l.seq++
	e.Seq = l.seq
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, e)
	} else {
		l.ring[int((l.seq-1)%uint64(cap(l.ring)))] = e
	}
	l.mu.Unlock()
}

// TotalLogged reports how many queries have ever crossed the threshold
// (entries beyond the ring capacity were overwritten).
func (l *SlowLog) TotalLogged() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Snapshot copies the retained entries oldest-first.
func (l *SlowLog) Snapshot() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowEntry, 0, len(l.ring))
	if len(l.ring) < cap(l.ring) {
		out = append(out, l.ring...)
		return out
	}
	// Full ring: the oldest entry sits right after the newest write slot.
	start := int(l.seq % uint64(cap(l.ring)))
	out = append(out, l.ring[start:]...)
	out = append(out, l.ring[:start]...)
	return out
}
