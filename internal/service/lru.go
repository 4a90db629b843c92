package service

import (
	"container/list"
	"sync"

	dpe "repro"
)

// CacheStats is a snapshot of the artifact cache's counters. Entries,
// Bytes and Evictions are the shard LRUs', which hold prepared and
// mining states alike; Hits and Misses are the resolver's prepared-state
// outcomes: a miss is one build, a hit one state served from the cache
// or by a coalesced build.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// cacheKey names one cached artifact: the session that owns it, its
// kind, the mining spec it was built under (zero for prepared state)
// and the log it covers. Specs compare with ==, the test
// MineIncremental applies before it reuses a state, so a spec with
// D = -0 finds the state built under D = 0. A NaN would never find
// its own entry; MineSpec.Validate rejects one.
type cacheKey struct {
	session string
	kind    artifact
	spec    dpe.MineSpec
	log     string
}

// sizer is a cached value; the cache charges it the bytes it reports.
type sizer interface{ SizeBytes() int64 }

// lruCache is a concurrency-safe LRU with two budgets: a maximum entry
// count and a maximum total cost in (estimated) bytes. Adding past
// either budget evicts least-recently-used entries first. A single
// over-budget entry is admitted alone — refusing it would make one huge
// log uncacheable forever and thrash the service. It counts no hits or
// misses: the resolver, which knows what a lookup was for, does.
type lruCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	ll         *list.List // front = most recently used
	items      map[cacheKey]*list.Element
	bytes      int64
	evictions  int64
}

type lruEntry struct {
	key  cacheKey
	val  sizer
	cost int64
}

// newLRU creates a cache with the given budgets; both must be positive.
func newLRU(maxEntries int, maxBytes int64) *lruCache {
	return &lruCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[cacheKey]*list.Element),
	}
}

// get returns the cached value and marks it most recently used.
func (c *lruCache) get(key cacheKey) (sizer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// peek returns the cached value without disturbing the recency order —
// the observation compaction uses to serialize what is cached without
// changing what is cached.
func (c *lruCache) peek(key cacheKey) (sizer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*lruEntry).val, true
}

// add inserts (or refreshes) a value at its own size, evicting from the
// LRU end until both budgets hold again. The value is sized before the
// lock is taken, so sizing never stalls other lookups.
func (c *lruCache) add(key cacheKey, val sizer) {
	cost := val.SizeBytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*lruEntry)
		c.bytes += cost - e.cost
		e.val, e.cost = val, cost
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val, cost: cost})
		c.bytes += cost
	}
	for (c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes) && c.ll.Len() > 1 {
		c.evictOldest()
	}
}

// evictOldest removes the LRU entry; callers hold the mutex.
func (c *lruCache) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	e := el.Value.(*lruEntry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.cost
	c.evictions++
}

// removeSession drops every entry of session id — used when the session
// is deleted or reaped to release its artifacts — and reports how many
// entries went. Deliberately not counted as evictions: that counter
// means "budget pressure pushed out someone else's entry", and keeping
// the two causes apart is what lets the per-cause metric series
// reconcile with CacheStats.Evictions.
func (c *lruCache) removeSession(id string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := 0
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		if e := el.Value.(*lruEntry); e.key.session == id {
			c.ll.Remove(el)
			delete(c.items, e.key)
			c.bytes -= e.cost
			removed++
		}
	}
	return removed
}

// sessionKeys lists session id's keys, least recently used first,
// without disturbing recency — how compaction enumerates the mining
// states, whose specs the session does not hold.
func (c *lruCache) sessionKeys(id string) []cacheKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []cacheKey
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		if e := el.Value.(*lruEntry); e.key.session == id {
			out = append(out, e.key)
		}
	}
	return out
}

// stats snapshots the entry, byte and eviction counters.
func (c *lruCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Entries: c.ll.Len(), Bytes: c.bytes, Evictions: c.evictions}
}
