package service

import (
	"container/list"
	"sync"
)

// CacheStats is a snapshot of the prepared-state cache's counters.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// lruCache is a concurrency-safe LRU keyed by string with two budgets:
// a maximum entry count and a maximum total cost in (estimated) bytes.
// Adding past either budget evicts least-recently-used entries first. A
// single over-budget entry is admitted alone — refusing it would make
// one huge log uncacheable forever and thrash the service.
type lruCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	ll         *list.List // front = most recently used
	items      map[string]*list.Element
	bytes      int64
	hits       int64
	misses     int64
	evictions  int64
}

type lruEntry struct {
	key  string
	val  any
	cost int64
}

// newLRU creates a cache with the given budgets; both must be positive.
func newLRU(maxEntries int, maxBytes int64) *lruCache {
	return &lruCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
	}
}

// get returns the cached value and marks it most recently used. The
// hit/miss counters track every lookup.
func (c *lruCache) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// peek returns the cached value without counting a hit or miss and
// without disturbing the recency order — the observation compaction
// uses to serialize what is cached without changing what is cached.
func (c *lruCache) peek(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*lruEntry).val, true
}

// add inserts (or refreshes) a value with the given cost, evicting from
// the LRU end until both budgets hold again.
func (c *lruCache) add(key string, val any, cost int64) {
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

// removePrefix drops every entry whose key starts with prefix — used
// when a session is deleted or reaped to release its prepared state —
// and reports how many entries went. Deliberately not counted as
// evictions: that counter means "budget pressure pushed out someone
// else's entry", and keeping the two causes apart is what lets the
// per-cause metric series reconcile with CacheStats.Evictions.
func (c *lruCache) removePrefix(prefix string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := 0
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*lruEntry)
		if len(e.key) >= len(prefix) && e.key[:len(prefix)] == prefix {
			c.ll.Remove(el)
			delete(c.items, e.key)
			c.bytes -= e.cost
			removed++
		}
	}
	return removed
}

// keysWithPrefix lists the keys starting with prefix, least recently
// used first, without counting hits or disturbing recency — how
// compaction enumerates entries whose full keys it cannot reconstruct
// (mining state embeds a spec fingerprint the session map does not
// hold).
func (c *lruCache) keysWithPrefix(prefix string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*lruEntry)
		if len(e.key) >= len(prefix) && e.key[:len(prefix)] == prefix {
			out = append(out, e.key)
		}
	}
	return out
}

// stats snapshots the counters.
func (c *lruCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
