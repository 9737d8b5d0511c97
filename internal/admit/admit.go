// Package admit is the serving tier's admission-control layer: one
// token-bucket + bounded-queue gate per route class. A burst beyond the
// configured rate queues arrivals (degrading latency, never correctness) up
// to the point where the projected queue delay would blow the latency SLO;
// past that point arrivals are shed immediately with a Retry-After hint, so
// the queue's delay stays bounded by construction and admitted requests keep
// their latency budget no matter how hard the offered load overshoots.
//
// The gate is reservation-based: the token count may go negative, encoding
// the backlog of queued admissions, and a new arrival's projected delay is
// exactly the time the bucket needs to refill back to one token. Shedding is
// therefore a pure arithmetic decision under one short lock — no shed
// request ever occupies a queue slot or a goroutine.
package admit

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hypre/internal/metrics"
	"hypre/internal/obs"
)

// Config shapes one route class's gate. The zero value (Rate <= 0) is an
// unlimited gate that admits everything immediately — route classes opt in
// to throttling, they are never throttled by default.
type Config struct {
	// Rate is the sustained admission rate in arrivals per second.
	Rate float64
	// Burst is the token bucket depth: how many arrivals are admitted
	// instantly after an idle period (minimum 1).
	Burst int
	// MaxQueue bounds how many arrivals may wait concurrently (default 256).
	MaxQueue int
	// SLO is the queue-delay objective: an arrival whose projected wait
	// exceeds it is shed instead of queued (default 50ms).
	SLO time.Duration
}

// Decision reports how one arrival was admitted.
type Decision struct {
	// Queued is true when the arrival waited for a token.
	Queued bool
	// QueueDelay is the wait the reservation imposed (0 when not queued).
	QueueDelay time.Duration
}

// ShedError is the load-shedding rejection: the caller should answer 429
// and relay RetryAfter, after which the backlog will have drained enough
// that a retry projects within the SLO again.
type ShedError struct {
	Class      string
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("admit: %s overloaded, retry after %v", e.Class, e.RetryAfter)
}

// RetryAfterSeconds renders the hint for an HTTP Retry-After header
// (whole seconds, minimum 1).
func (e *ShedError) RetryAfterSeconds() int {
	s := int((e.RetryAfter + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// Gate is one route class's admission gate. A nil *Gate admits everything —
// callers hold gates for their classes and need no nil checks.
type Gate struct {
	class    string
	cfg      Config
	counters *metrics.AdmitCounters

	// queueHist observes the queue delay of every admission (0 for
	// immediate ones); shedCtr counts rejections. Both are nil-safe.
	queueHist *obs.Histogram
	shedCtr   *obs.Counter

	now func() time.Time // injectable clock for tests

	mu     sync.Mutex
	tokens float64 // may go negative: queued reservations
	last   time.Time
	queued int
}

// New builds a gate for one class. reg may be nil (no observability); the
// gate then still keeps its counters.
func New(class string, cfg Config, reg *obs.Registry) *Gate {
	if cfg.Rate > 0 {
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
		if cfg.MaxQueue <= 0 {
			cfg.MaxQueue = 256
		}
		if cfg.SLO <= 0 {
			cfg.SLO = 50 * time.Millisecond
		}
	}
	g := &Gate{
		class:    class,
		cfg:      cfg,
		counters: &metrics.AdmitCounters{},
		now:      time.Now,
	}
	if reg != nil {
		g.queueHist = reg.Histogram("admit_queue_" + class)
		g.shedCtr = reg.Counter("serve_shed_" + class)
		counters := g.counters
		reg.RegisterGroup("admit_"+class, func() map[string]int64 {
			snap := counters.Snapshot()
			return map[string]int64{
				"admitted": snap.Admitted,
				"queued":   snap.Queued,
				"shed":     snap.Shed,
				"canceled": snap.Canceled,
			}
		})
	}
	return g
}

// Counters exposes the class's traffic ledger.
func (g *Gate) Counters() *metrics.AdmitCounters {
	if g == nil {
		return nil
	}
	return g.counters
}

// Admit decides one arrival: immediate admission when a token is free, a
// bounded wait when the backlog still projects within the SLO, and a
// *ShedError when it does not (or the queue is full). A ctx that ends while
// queued returns ctx.Err() and hands the reservation back. Admit never
// blocks shed traffic — rejection is decided and returned immediately.
func (g *Gate) Admit(ctx context.Context) (Decision, error) {
	if g == nil || g.cfg.Rate <= 0 {
		if g != nil {
			g.counters.Admitted.Add(1)
		}
		return Decision{}, nil
	}

	g.mu.Lock()
	now := g.now()
	if g.last.IsZero() {
		g.last = now
		g.tokens = float64(g.cfg.Burst)
	}
	g.tokens += now.Sub(g.last).Seconds() * g.cfg.Rate
	if g.tokens > float64(g.cfg.Burst) {
		g.tokens = float64(g.cfg.Burst)
	}
	g.last = now

	if g.tokens >= 1 {
		g.tokens--
		g.mu.Unlock()
		g.counters.Admitted.Add(1)
		g.queueHist.Record(0)
		return Decision{}, nil
	}

	// No token: the projected wait is the refill time back to one token,
	// which already accounts for every queued reservation ahead of us
	// (each drove tokens one further below zero).
	delay := time.Duration((1 - g.tokens) / g.cfg.Rate * float64(time.Second))
	if delay > g.cfg.SLO || g.queued >= g.cfg.MaxQueue {
		g.mu.Unlock()
		g.counters.Shed.Add(1)
		g.shedCtr.Add(1)
		retry := delay - g.cfg.SLO
		if retry <= 0 {
			retry = delay
		}
		return Decision{}, &ShedError{Class: g.class, RetryAfter: retry}
	}
	g.tokens-- // reserve (tokens go negative)
	g.queued++
	g.mu.Unlock()

	t := time.NewTimer(delay)
	select {
	case <-t.C:
		g.mu.Lock()
		g.queued--
		g.mu.Unlock()
		g.counters.Queued.Add(1)
		g.queueHist.RecordDuration(delay)
		return Decision{Queued: true, QueueDelay: delay}, nil
	case <-ctx.Done():
		t.Stop()
		g.mu.Lock()
		g.queued--
		g.tokens++ // hand the reservation back
		if g.tokens > float64(g.cfg.Burst) {
			g.tokens = float64(g.cfg.Burst)
		}
		g.mu.Unlock()
		g.counters.Canceled.Add(1)
		return Decision{}, ctx.Err()
	}
}

// Controller is the per-route-class gate set of one server.
type Controller struct {
	mu    sync.RWMutex
	reg   *obs.Registry
	gates map[string]*Gate
}

// NewController builds an empty controller wired to reg (nil disables
// observability for every class).
func NewController(reg *obs.Registry) *Controller {
	return &Controller{reg: reg, gates: make(map[string]*Gate)}
}

// AddClass registers a class's gate, replacing any previous one.
func (c *Controller) AddClass(class string, cfg Config) *Gate {
	g := New(class, cfg, c.reg)
	c.mu.Lock()
	c.gates[class] = g
	c.mu.Unlock()
	return g
}
