// Package cache is the serving-path caching tier between callers and the
// evaluator: a sharded, byte-budgeted LRU of top-k results, keyed by the
// canonical profile fingerprint of internal/combine plus k. At serving scale
// repeated preference profiles are the common case, so a fingerprint hit
// turns a multi-millisecond scan into a map lookup; single-flight
// deduplication collapses concurrent identical cold queries to one
// evaluation; and maintenance after a mutation batch is delta-aware — it
// costs work proportional to the rows the batch touched, not to the cache
// size (the FO+MOD-under-updates discipline of the delta subsystem,
// extended over the cache). An entry none of whose predicates moved is left
// alone; one that did is repaired against its k-th grade by re-grading only
// the touched tuples, and dropped only when that cannot prove the new
// answer. A repaired answer is a fresh entry swapped into the old one's map
// key and LRU slot; a published answer is never rewritten.
package cache

import (
	"sync"

	"hypre/internal/combine"
	"hypre/internal/metrics"
	"hypre/internal/obs"
)

// entryKey addresses one cache entry: a top-k result for one
// (fingerprint, k).
type entryKey struct {
	fp combine.Fingerprint
	k  int32
}

// entry is one cached answer plus its LRU links and what its repair needs.
// Readers use tuples after releasing the shard lock (the slice is copied
// out to callers), so only the LRU links of a published entry are ever
// written: a Sync that changes the answer publishes a replacement
// (Cache.sweep) instead.
type entry struct {
	key entryKey

	// tuples is the ranked answer.
	tuples []combine.ScoredTuple
	// prefs grades a tuple under the canonical profile the answer was
	// evaluated for, one element per preference in profile order.
	prefs []entryPref
	// size is the entry's byte accounting charge.
	size int64

	prev, next *entry // LRU list, most recent at head
}

// entryPref is one canonical preference as the repair reads it: the
// evaluator's id of its predicate, the attribute slot its intensity folds
// into (topk.AttrSlots) and the intensity. The parsed profile itself is
// not retained.
type entryPref struct {
	id        int32
	slot      int32
	intensity float64
}

// Cache is the sharded LRU. Shard selection hashes the fingerprint, so all
// entries of one profile (its per-k results) land in one shard and a
// Sync's sweep walks each shard once.
type Cache struct {
	shards   []shard
	perShard int64
	counters *metrics.CacheCounters
}

type shard struct {
	mu         sync.Mutex
	entries    map[entryKey]*entry
	head, tail *entry
	bytes      int64
}

// Config sizes the cache. Zero values take defaults.
type Config struct {
	// MaxBytes is the eviction budget across all shards (default 64 MiB).
	MaxBytes int64
	// Shards is the shard count, rounded up to a power of two (default 16).
	Shards int
	// Counters receives hit/miss/eviction traffic (default: a private set).
	Counters *metrics.CacheCounters

	// Registry, when set, receives per-route-class latency histograms
	// (serve_hit / serve_miss / serve_shared / serve_bypass) and the
	// counter set as a group. Nil disables latency measurement entirely —
	// the serve path then never reads the clock.
	Registry *obs.Registry
	// SlowLog, when set, retains queries at or above its threshold; traced
	// queries log their full trace, untraced ones a summary line.
	SlowLog *obs.SlowLog
}

// NewCache builds an empty cache.
func NewCache(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 64 << 20
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	n := 1
	for n < cfg.Shards {
		n <<= 1
	}
	if cfg.Counters == nil {
		cfg.Counters = &metrics.CacheCounters{}
	}
	c := &Cache{
		shards:   make([]shard, n),
		perShard: cfg.MaxBytes / int64(n),
		counters: cfg.Counters,
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[entryKey]*entry)
	}
	return c
}

func (c *Cache) shardOf(fp combine.Fingerprint) *shard {
	return &c.shards[int(fp[0])&(len(c.shards)-1)]
}

// get returns the entry and refreshes its recency.
func (c *Cache) get(key entryKey) (*entry, bool) {
	sh := c.shardOf(key.fp)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok {
		return nil, false
	}
	sh.unlink(e)
	sh.pushFront(e)
	return e, true
}

// put inserts (or replaces) an entry and evicts from the cold end until the
// shard is back under budget. An entry larger than a whole shard's budget
// is not cached at all — it would only evict everything else and then
// itself.
func (c *Cache) put(e *entry) {
	if e.size > c.perShard {
		return
	}
	sh := c.shardOf(e.key.fp)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if old, ok := sh.entries[e.key]; ok {
		sh.drop(old)
	}
	sh.entries[e.key] = e
	sh.pushFront(e)
	sh.bytes += e.size
	for sh.bytes > c.perShard && sh.tail != nil {
		victim := sh.tail
		sh.drop(victim)
		c.counters.Evictions.Add(1)
	}
}

// sweep visits every resident entry once under its shard lock. fix returns
// the entry itself to keep it, nil to drop it, or a replacement that takes
// over its map key and LRU slot; fix must take no lock. A shard that grown
// replacements push over budget evicts from its cold end afterwards.
func (c *Cache) sweep(fix func(*entry) *entry) (dropped, replaced int) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			switch n := fix(e); n {
			case e:
			case nil:
				sh.drop(e)
				dropped++
			default:
				sh.replace(e, n)
				replaced++
			}
		}
		for sh.bytes > c.perShard && sh.tail != nil {
			sh.drop(sh.tail)
			c.counters.Evictions.Add(1)
		}
		sh.mu.Unlock()
	}
	return dropped, replaced
}

// purge empties the cache (full invalidation).
func (c *Cache) purge() int {
	dropped := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		dropped += len(sh.entries)
		sh.entries = make(map[entryKey]*entry)
		sh.head, sh.tail, sh.bytes = nil, nil, 0
		sh.mu.Unlock()
	}
	return dropped
}

// Stats reports the cache's resident entry count and byte charge.
func (c *Cache) Stats() (entries int, bytes int64) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		entries += len(sh.entries)
		bytes += sh.bytes
		sh.mu.Unlock()
	}
	return entries, bytes
}

// drop removes an entry from the map, list, and byte charge. Caller holds
// the shard lock.
func (sh *shard) drop(e *entry) {
	delete(sh.entries, e.key)
	sh.unlink(e)
	sh.bytes -= e.size
}

func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if sh.head == e {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if sh.tail == e {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// replace puts n (same key) where old sits in the map, the LRU list and
// the byte charge. Caller holds the shard lock.
func (sh *shard) replace(old, n *entry) {
	sh.entries[n.key] = n
	n.prev, n.next = old.prev, old.next
	if n.prev != nil {
		n.prev.next = n
	} else {
		sh.head = n
	}
	if n.next != nil {
		n.next.prev = n
	} else {
		sh.tail = n
	}
	old.prev, old.next = nil, nil
	sh.bytes += n.size - old.size
}

func (sh *shard) pushFront(e *entry) {
	e.prev, e.next = nil, sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// entryBytes is an entry's byte charge: its ranked answer and its
// per-preference grading state.
func entryBytes(e *entry) int64 {
	return 48 + int64(len(e.tuples))*16 + 24 + int64(len(e.prefs))*16
}

// cloneTuples copies a cached answer out to a caller, so callers may sort
// or truncate their slice without corrupting the shared entry.
func cloneTuples(ts []combine.ScoredTuple) []combine.ScoredTuple {
	out := make([]combine.ScoredTuple, len(ts))
	copy(out, ts)
	return out
}
