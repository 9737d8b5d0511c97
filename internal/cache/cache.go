// Package cache is the serving-path caching tier between callers and the
// evaluator: a sharded, byte-budgeted LRU of top-k results, keyed by the
// canonical profile fingerprint of internal/combine plus k. At serving scale
// repeated preference profiles are the common case, so a fingerprint hit
// turns a multi-millisecond scan into a map lookup; single-flight
// deduplication collapses concurrent identical cold queries to one
// evaluation; and invalidation after a mutation batch is delta-aware — it
// costs work proportional to the rows the batch touched, not to the cache
// size, and only entries whose predicate membership actually moved are
// dropped (the FO+MOD-under-updates discipline of the delta subsystem,
// extended over the cache). A miss publishes exactly one entry; nothing
// cached is ever patched in place.
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

// entry is one cached answer plus its LRU links and invalidation footprint.
// Entries are immutable after insertion; readers may use tuples without
// holding the shard lock (the slice is copied out to callers).
type entry struct {
	key entryKey

	// tuples is the ranked answer.
	tuples []combine.ScoredTuple
	// predKeys lists the normalized predicate texts the value depends on;
	// the invalidation sweep drops the entry when any of them moves.
	predKeys []string
	// size is the entry's byte accounting charge.
	size int64

	prev, next *entry // LRU list, most recent at head
}

// Cache is the sharded LRU. Shard selection hashes the fingerprint, so all
// entries of one profile (its per-k results) land in one shard and an
// invalidation sweep walks each shard once.
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

// Counters exposes the counter set the cache increments.
func (c *Cache) Counters() *metrics.CacheCounters { return c.counters }

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

// removeWhere drops every entry the predicate selects, returning how many.
func (c *Cache) removeWhere(match func(*entry) bool) int {
	dropped := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			if match(e) {
				sh.drop(e)
				dropped++
			}
		}
		sh.mu.Unlock()
	}
	return dropped
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

// tupleSliceBytes is the byte charge of a ranked answer.
func tupleSliceBytes(ts []combine.ScoredTuple) int64 {
	return 48 + int64(len(ts))*16
}

// predKeyBytes charges the dependency list.
func predKeyBytes(keys []string) int64 {
	var n int64
	for _, k := range keys {
		n += int64(len(k)) + 16
	}
	return n
}

// cloneTuples copies a cached answer out to a caller, so callers may sort
// or truncate their slice without corrupting the shared entry.
func cloneTuples(ts []combine.ScoredTuple) []combine.ScoredTuple {
	out := make([]combine.ScoredTuple, len(ts))
	copy(out, ts)
	return out
}
