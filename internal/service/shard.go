package service

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
	"repro/internal/store/journal"
)

// shard is one slice of the registry's multi-tenant state: a session
// map under its own mutex, its own singleflight group, its own
// size-aware artifact LRU, and — when the registry has a Store — its
// own append-only journal. A session's id routes it to exactly one
// shard (see Registry.shardFor), so everything the session owns — map
// entry, in-flight builds, cached artifacts, journal records — lives
// together and never contends with other shards' locks.
type shard struct {
	cache  *lruCache
	flight *flightGroup
	// hits and misses count the resolver's outcomes per artifact kind
	// on the shard's sessions (see resolve). They outlive the sessions,
	// so the registry's sums of them never go down.
	hits, misses [numArtifacts]atomic.Int64

	// journal is the shard's typed journal, nil on a registry without a
	// Store (a nil journal journals nothing). It serializes appends
	// against compaction internally; its lock is never taken while
	// holding sh.mu or a session's mu (the compactor's collect runs
	// under the journal lock and takes those locks), so the
	// shard/session lock order stays acyclic — callers journal only
	// outside those locks, and only through appendDurable or
	// appendBestEffort.
	journal *journal.Journal
	// metrics is the registry's instrument set, which counts the
	// records appendBestEffort drops.
	metrics *registryMetrics

	mu       sync.Mutex
	sessions map[string]*session
}

// appendDurable journals a record the request must not be acknowledged
// without: a session create, a log upload, an API delete, or an
// imported session and its logs. A failure comes back as a
// journalError naming what, which fails the request.
func (sh *shard) appendDurable(what string, rec journal.Record) error {
	if err := sh.journal.Append(rec); err != nil {
		return journalError{fmt.Errorf("service: journaling %s: %w", what, err)}
	}
	return nil
}

// appendBestEffort journals a record the server can lose without
// losing a tenant's data: a cached or imported artifact, which a
// restart rebuilds from the journaled log, or the tombstone of a TTL
// reap, without which a restart brings back an idle session the next
// reap drops again. A failure fails no request: the record is dropped
// and counted under kind in dpe_store_append_errors_total. err, when
// set, is the caller's failure to render rec, dropped and counted the
// same way.
func (sh *shard) appendBestEffort(kind store.Kind, rec journal.Record, err error) {
	if err == nil {
		err = sh.journal.Append(rec)
	}
	if err != nil {
		sh.metrics.appendErrors[kind].Inc()
	}
}

func newShard(cacheEntries int, cacheBytes int64, m *registryMetrics) *shard {
	return &shard{
		cache:    newLRU(cacheEntries, cacheBytes),
		flight:   newFlightGroup(),
		metrics:  m,
		sessions: make(map[string]*session),
	}
}

// session returns a live session by id, or nil.
func (sh *shard) session(id string) *session {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sessions[id]
}

// put registers a session; the caller has already reserved capacity.
func (sh *shard) put(s *session) {
	sh.mu.Lock()
	sh.sessions[s.id] = s
	sh.mu.Unlock()
}

// remove drops a session from the map, reporting whether it was live.
// The caller releases capacity and purges the cache.
func (sh *shard) remove(id string) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.sessions[id]; !ok {
		return false
	}
	delete(sh.sessions, id)
	return true
}

// list snapshots the shard's live sessions (for compaction).
func (sh *shard) list() []*session {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]*session, 0, len(sh.sessions))
	for _, s := range sh.sessions {
		out = append(out, s)
	}
	return out
}

// reapIdle removes sessions idle longer than ttl and returns their ids.
// The session clocks are read under each session's own mutex while the
// shard lock is held — the same lock order CreateSession-era code used
// (shard before session), so the two cannot deadlock. A session whose
// leader is mid-Prepare (inflight > 0) is never reaped: discarding a
// build that is still being paid for would churn the byte budget and
// throw the result away.
func (sh *shard) reapIdle(now time.Time, ttl time.Duration) []string {
	var reaped []string
	sh.mu.Lock()
	for id, s := range sh.sessions {
		s.mu.Lock()
		idle := now.Sub(s.lastUsed)
		busy := s.inflight > 0
		s.mu.Unlock()
		if idle > ttl && !busy {
			delete(sh.sessions, id)
			reaped = append(reaped, id)
		}
	}
	sh.mu.Unlock()
	return reaped
}

// sessionCount reads the shard's live-session count (the per-shard
// gauge).
func (sh *shard) sessionCount() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.sessions)
}

// snapshot reads the shard's counters for stats. The shard lock guards
// only the map length; the cache snapshots under its own brief mutex —
// no lock is ever held while sizing an artifact (costs were charged at
// insert time), so a stats call cannot stall tenant traffic.
func (sh *shard) snapshot(index int) ShardStats {
	sh.mu.Lock()
	n := len(sh.sessions)
	sh.mu.Unlock()
	cs := sh.cache.stats()
	cs.Hits, cs.Misses = sh.hits[artPrepared].Load(), sh.misses[artPrepared].Load()
	return ShardStats{Shard: index, Sessions: n, PreparedCache: cs}
}

// splitEntries divides a registry-wide entry budget across n shards,
// rounding up so the aggregate never shrinks below the configured total
// and every shard keeps at least one slot. With n = 1 the budget is
// exactly the configured value — a single-shard registry behaves like
// the historical unsharded one.
func splitEntries(total, n int) int {
	per := (total + n - 1) / n
	if per < 1 {
		per = 1
	}
	return per
}

// splitBytes is splitEntries for byte budgets.
func splitBytes(total int64, n int) int64 {
	per := (total + int64(n) - 1) / int64(n)
	if per < 1 {
		per = 1
	}
	return per
}

// flightGroup coalesces concurrent builds of the same cache key: one
// caller becomes the leader and runs the build, the rest wait for its
// result instead of repeating it. Every artifact kind shares one group
// (the kind is part of the key), which is why the published value is
// untyped. Each shard owns one group — keys carry the session id, and a
// session never changes shards.
type flightGroup struct {
	mu    sync.Mutex
	calls map[cacheKey]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[cacheKey]*flightCall)}
}

// begin joins the in-flight call for key, or starts one; leader reports
// which happened.
func (g *flightGroup) begin(key cacheKey) (c *flightCall, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c, false
	}
	c = &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	return c, true
}

// finish publishes the leader's result and retires the call.
func (g *flightGroup) finish(key cacheKey, c *flightCall, val any, err error) {
	c.val, c.err = val, err
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
}
