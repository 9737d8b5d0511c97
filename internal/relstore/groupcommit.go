package relstore

import (
	"runtime"
	"sync"
)

// This file is the multi-writer group-commit path (relstore.WithGroupCommit).
//
// The serial write path pays one exclusive state-lock acquisition, one epoch
// bump, and one exact zone-map rebuild per mutation — fine for a single
// writer, but under N concurrent writers the exclusive lock serializes them
// one op at a time, every reader gap is re-fought N times, and the exact
// per-update zone rebuild (a fold over the touched block's rows) dominates
// the stream's CPU. The commit queue amortizes all three costs: the first
// writer to arrive becomes the *leader*, locks the store once, and applies
// every op that queues behind it — round after round — as one *hold*; the
// deferred zone-repair pass then fixes each dirtied block once per hold
// instead of once per update, and the whole hold shares one epoch bump per
// touched table. A writer with no concurrent peers is a leader whose queue
// stays empty: lock, apply, one free yield, unlock — the serial path plus a
// queue-mutex hop.
//
// The queue is store-wide, not per-table, for two reasons. First, an op
// stream that alternates tables (insert a paper, then its links) would
// starve per-table queues — each writer's next mutation lands in the other
// table's queue, so neither chain sustains. Second, it makes multi-table
// atomic batches (Batch) possible: a paper insert and its authorship links
// commit as one unit, invisible in any intermediate state. The price is
// that a hold pins every table of the store; maxHoldOps bounds how long.
//
// Semantics are identical to applying the queued ops serially in admission
// order: the hold runs under every table's exclusive state lock (taken in
// creation order, the same order scans use, so there is no deadlock), no
// scan observes an intermediate state, and each op's change-log entries
// carry its table's hold-shared epoch (epochs stay non-decreasing, which is
// all SnapshotSince needs). Each op still performs its own eager index
// repair; only the zone repair and the epoch bump are hold-batched.
//
// Tables must be created before group-commit traffic starts: a hold locks
// the table set captured at its start, so CreateTable racing with committing
// writers is not supported (the same load-then-serve discipline the lazy
// index maps already assume).

// maxHoldOps bounds one lock hold: the leader ends the hold (repairing
// zones, letting waiting readers in) at least every maxHoldOps applied op
// groups, so reader admission latency stays bounded no matter how hard the
// writers push.
const maxHoldOps = 256

// holdPatience is how many consecutive empty queue drains (each preceded by
// one processor yield) the leader tolerates before concluding the stream
// went quiet and ending the hold. A woken follower needs a few scheduler
// slots to return from its previous commit, plan its next op, and enqueue
// it; a too-eager break ends holds the stream could still extend.
const holdPatience = 2

// commitQueue is the store-wide coalescing point, shared by every table of
// one DB.
type commitQueue struct {
	mu      sync.Mutex
	tables  []*Table // every table of the store, creation (seq) order
	pending []*pendingOp
	active  bool // a leader is draining; arrivals must enqueue
}

// tableMut is one planned mutation: a closure that applies it to its table
// under the exclusive state lock (capturing its own result vars).
type tableMut struct {
	t  *Table
	do func()
}

// pendingOp is one queued op group — one or more mutations that commit as a
// unit; done signals completion. If the leader ends its tenure with the
// queue non-empty it promotes the head op instead of applying it: promoted
// is set before done is closed (the close is the happens-before edge), and
// the woken owner leads the next hold starting from its own muts.
type pendingOp struct {
	muts     []tableMut
	promoted bool
	done     chan struct{}
}

// register adds a newly created table to the hold's lock set.
func (q *commitQueue) register(t *Table) {
	q.mu.Lock()
	q.tables = append(q.tables, t)
	q.mu.Unlock()
}

// commit runs an op group through the group-commit queue: as leader if none
// is active, otherwise by enqueueing and waiting — either for a leader to
// apply the group, or for a promotion, in which case this writer leads the
// next hold itself.
func (q *commitQueue) commit(muts []tableMut) {
	q.mu.Lock()
	if q.active {
		p := &pendingOp{muts: muts, done: make(chan struct{})}
		q.pending = append(q.pending, p)
		q.mu.Unlock()
		<-p.done
		if p.promoted {
			q.lead(p.muts)
		}
		return
	}
	q.active = true
	q.mu.Unlock()
	q.lead(muts)
}

// commit routes one single-table mutation through the store's commit queue.
func (t *Table) commit(do func()) {
	t.cfg.cq.commit([]tableMut{{t: t, do: do}})
}

// lead runs one hold: lock every table once, apply the leader's own op
// group plus every group that queues behind it — round after round — then
// run the deferred zone-repair pass and release the locks. Three details
// make holds coalesce instead of degenerating to one op each:
//
//   - Completion signals (close(p.done)) fire while the leader still holds
//     the locks. An op is committed the moment its closures run — any read
//     that could observe the store serializes behind the hold anyway — so
//     waking followers early lets them submit their next op into the queue
//     while the current hold is still open.
//   - When a drain comes up empty the leader yields the processor and
//     retries, up to holdPatience times, before concluding the stream went
//     quiet. Woken followers enqueue during the yields; readers that get
//     scheduled park on the held state locks almost immediately, so a yield
//     costs a few context switches, not a reader timeslice.
//   - Tenure lasts one hold. A leader that kept draining would starve its
//     own op stream — it would sit in the queue applying everyone else's
//     ops until the followers ran dry, then trickle out its own backlog one
//     solo hold at a time. Instead, a leader that ends its hold with the
//     queue non-empty hands leadership to the longest-waiting follower
//     (promotion: woken with its muts unapplied) and goes back to being an
//     ordinary writer.
//
// The hold therefore adapts to contention: a solo writer pays one lock
// round, one epoch bump, one zone rebuild and one (free) yield per op,
// while N saturating writers rotate leadership and share one lock round,
// one epoch per touched table and one zone-repair pass per maxHoldOps op
// groups — which is what turns the per-update exact zone rebuild from the
// stream's dominant cost into a per-hold one.
func (q *commitQueue) lead(muts []tableMut) {
	q.mu.Lock()
	tabs := q.tables
	q.mu.Unlock()
	var counters *StoreCounters
	if len(tabs) > 0 {
		counters = tabs[0].cfg.counters
	}
	for _, t := range tabs {
		t.state.Lock()
	}
	for _, t := range tabs {
		t.beginBatchLocked()
	}
	applied := 0
	for _, m := range muts {
		m.do()
	}
	applied++
	empties := 0
	for applied < maxHoldOps {
		q.mu.Lock()
		batch := q.pending
		q.pending = nil
		q.mu.Unlock()
		if len(batch) == 0 {
			if empties >= holdPatience {
				break
			}
			empties++
			runtime.Gosched()
			continue
		}
		empties = 0
		for _, p := range batch {
			for _, m := range p.muts {
				m.do()
			}
			close(p.done)
		}
		applied += len(batch)
	}
	for _, t := range tabs {
		t.endBatchLocked()
		t.maybeCompactLocked()
	}
	for i := len(tabs) - 1; i >= 0; i-- {
		tabs[i].state.Unlock()
	}
	if counters != nil {
		counters.GroupCommitBatches.Add(1)
		counters.GroupCommitOps.Add(int64(applied))
	}
	q.mu.Lock()
	if len(q.pending) == 0 {
		q.active = false
		q.mu.Unlock()
		return
	}
	p := q.pending[0]
	q.pending = q.pending[1:]
	q.mu.Unlock()
	p.promoted = true
	close(p.done)
}

// applyBatch is the in-flight hold context for one table: the shared epoch
// every op in the hold commits at (assigned lazily on the table's first
// mutation, so untouched tables keep their epoch), and the zone blocks the
// hold dirtied (repaired once in endBatchLocked instead of once per set).
type applyBatch struct {
	epoch   uint64
	touched []zoneTouch
}

type zoneTouch struct {
	c   *column
	blk int
}

// beginBatchLocked opens a hold on this table. The epoch is not bumped here:
// commitEpochLocked assigns it on the first mutation, so a hold that never
// touches the table leaves its epoch (and every derived cache keyed on it)
// alone. Caller holds the state lock exclusively.
func (t *Table) beginBatchLocked() {
	t.batch = &applyBatch{}
}

// endBatchLocked repairs every zone block the hold dirtied — each block
// once, and each touched column's NaN shortcut once — then closes the hold.
// Caller holds the state lock exclusively.
func (t *Table) endBatchLocked() {
	b := t.batch
	t.batch = nil
	if len(b.touched) == 0 {
		return
	}
	type colBlk struct {
		c   *column
		blk int
	}
	seen := make(map[colBlk]struct{}, len(b.touched))
	cols := make(map[*column]struct{})
	for _, z := range b.touched {
		k := colBlk{z.c, z.blk}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		z.c.rebuildZoneOnly(z.blk)
		cols[z.c] = struct{}{}
	}
	for c := range cols {
		c.refreshNaN()
	}
}
