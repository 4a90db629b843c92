package service

import "testing"

// sized is a test cache value of a fixed byte cost.
type sized int64

func (s sized) SizeBytes() int64 { return int64(s) }

// prepKey is a prepared-state cache key of session "s1".
func prepKey(log string) cacheKey { return cacheKey{session: "s1", kind: artPrepared, log: log} }

// TestLRUEntryBudget checks eviction by entry count in LRU order, with
// get refreshing recency.
func TestLRUEntryBudget(t *testing.T) {
	c := newLRU(2, 1<<30)
	c.add(prepKey("a"), sized(1))
	c.add(prepKey("b"), sized(1))
	if _, ok := c.get(prepKey("a")); !ok { // refresh a: b is now LRU
		t.Fatal("a should be cached")
	}
	c.add(prepKey("c"), sized(1))
	if _, ok := c.get(prepKey("b")); ok {
		t.Error("b should have been evicted as LRU")
	}
	if _, ok := c.get(prepKey("a")); !ok {
		t.Error("a should have survived (recently used)")
	}
	if _, ok := c.get(prepKey("c")); !ok {
		t.Error("c should be cached")
	}
	s := c.stats()
	if s.Entries != 2 || s.Evictions != 1 {
		t.Errorf("stats = %+v, want 2 entries and 1 eviction", s)
	}
}

// TestLRUByteBudget checks eviction by each value's own size, and that
// one over-budget entry is still admitted alone.
func TestLRUByteBudget(t *testing.T) {
	c := newLRU(100, 10)
	c.add(prepKey("a"), sized(4))
	c.add(prepKey("b"), sized(4))
	c.add(prepKey("c"), sized(4)) // 12 > 10: evict a
	if _, ok := c.get(prepKey("a")); ok {
		t.Error("a should have been evicted over the byte budget")
	}
	if s := c.stats(); s.Bytes != 8 {
		t.Errorf("bytes = %d, want 8", s.Bytes)
	}
	c.add(prepKey("huge"), sized(1000)) // over budget alone: evicts the rest, stays
	if _, ok := c.get(prepKey("huge")); !ok {
		t.Error("a single over-budget entry must still be admitted")
	}
	if s := c.stats(); s.Entries != 1 {
		t.Errorf("entries = %d, want only the huge one", s.Entries)
	}
}

// TestLRUUpdateAndRemoveSession checks in-place cost updates and
// session-scoped removal: removeSession drops every kind of the
// session's entries and keeps another session's entry for the same log.
func TestLRUUpdateAndRemoveSession(t *testing.T) {
	c := newLRU(10, 100)
	mine := cacheKey{session: "s1", kind: artMining, log: "l1"}
	other := cacheKey{session: "s2", kind: artPrepared, log: "l1"}
	c.add(prepKey("l1"), sized(10))
	c.add(mine, sized(10))
	c.add(other, sized(10))
	c.add(prepKey("l1"), sized(20)) // update cost in place
	if s := c.stats(); s.Bytes != 40 {
		t.Errorf("bytes = %d, want 40 after update", s.Bytes)
	}
	if got := c.sessionKeys("s1"); len(got) != 2 || got[0] != mine || got[1] != prepKey("l1") {
		t.Errorf("sessionKeys(s1) = %+v, want the mining key, then the refreshed prepared key", got)
	}
	if n := c.removeSession("s1"); n != 2 {
		t.Errorf("removeSession(s1) removed %d entries, want 2", n)
	}
	for _, k := range []cacheKey{prepKey("l1"), mine} {
		if _, ok := c.get(k); ok {
			t.Errorf("%+v should be gone", k)
		}
	}
	if _, ok := c.get(other); !ok {
		t.Error("s2's entry for the same log should survive")
	}
	if s := c.stats(); s.Entries != 1 || s.Bytes != 10 || s.Evictions != 0 {
		t.Errorf("stats = %+v, want 1 entry / 10 bytes / no evictions", s)
	}
}
