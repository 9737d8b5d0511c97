package metrics

import "sync/atomic"

// AdmitCounters is one admission-control route class's traffic ledger. The
// gate increments these lock-free on every arrival; the serving tier exposes
// them per class through the obs registry and the serve experiment snapshots
// them into the BENCH record.
type AdmitCounters struct {
	// Admitted counts arrivals that found a token and entered immediately.
	Admitted atomic.Int64
	// Queued counts arrivals admitted after waiting in the bounded queue.
	Queued atomic.Int64
	// Shed counts arrivals rejected because their projected queue delay
	// exceeded the SLO or the queue was full (HTTP 429 + Retry-After).
	Shed atomic.Int64
	// Canceled counts queued arrivals whose context ended before their
	// turn (client disconnects); their reservation is returned.
	Canceled atomic.Int64
}

// AdmitSnapshot is a plain-value copy of the counters.
type AdmitSnapshot struct {
	Admitted int64 `json:"admitted"`
	Queued   int64 `json:"queued"`
	Shed     int64 `json:"shed"`
	Canceled int64 `json:"canceled"`
}

// Snapshot reads every counter once; approximate under concurrent traffic,
// which is all a metrics export needs.
func (c *AdmitCounters) Snapshot() AdmitSnapshot {
	return AdmitSnapshot{
		Admitted: c.Admitted.Load(),
		Queued:   c.Queued.Load(),
		Shed:     c.Shed.Load(),
		Canceled: c.Canceled.Load(),
	}
}

// Offered is every arrival the gate decided on (canceled waiters included —
// they were offered and queued before giving up).
func (s AdmitSnapshot) Offered() int64 {
	return s.Admitted + s.Queued + s.Shed + s.Canceled
}
