package service

import (
	"context"

	dpe "repro"
	"repro/internal/store"
	"repro/internal/store/journal"
)

// artifact names one kind of per-log state a session derives from an
// uploaded log, caches in its shard's LRU, coalesces through the shard's
// singleflight group, and journals: prepared state and incremental
// mining states. It indexes artifactKinds and the per-kind hit/miss
// counters.
type artifact int

const (
	artPrepared artifact = iota
	artMining
	numArtifacts
)

// artifactKind is the descriptor one artifact kind contributes; the
// resolver, the replay/import restorer and the compaction/export
// collector are shared by every kind and differ only through it.
type artifactKind struct {
	// journal is the record kind the artifact journals under.
	journal store.Kind
	// encode renders a value as its journal blob.
	encode func(s *session, v sizer) ([]byte, error)
	// decode restores a value from a journal blob and reports the spec
	// it was built under (zero for prepared state) and the number of
	// queries it covers, which must equal the length of the log it is
	// filed under.
	decode func(s *session, blob []byte) (v sizer, spec dpe.MineSpec, n int, err error)
}

var artifactKinds = [numArtifacts]artifactKind{
	artPrepared: {
		journal: store.KindSnapshot,
		encode: func(s *session, v sizer) ([]byte, error) {
			return s.provider.MarshalPreparedLog(v.(*dpe.PreparedLog))
		},
		decode: func(s *session, blob []byte) (sizer, dpe.MineSpec, int, error) {
			pl, err := s.provider.UnmarshalPreparedLog(blob)
			if err != nil {
				return nil, dpe.MineSpec{}, 0, err
			}
			return pl, dpe.MineSpec{}, pl.Len(), nil
		},
	},
	artMining: {
		journal: store.KindMining,
		encode:  func(_ *session, v sizer) ([]byte, error) { return dpe.MarshalMineState(v.(*dpe.MineState)) },
		decode: func(_ *session, blob []byte) (sizer, dpe.MineSpec, int, error) {
			state, err := dpe.UnmarshalMineState(blob)
			if err != nil {
				return nil, dpe.MineSpec{}, 0, err
			}
			return state, state.Spec(), state.Len(), nil
		},
	},
}

// resolve serves the artifact key names: from the shard cache when it
// holds one, else from a single build however many callers race for it
// (singleflight). use turns a cached artifact into the caller's result
// (nil: the artifact is the result); build returns a fresh result and
// the artifact to cache. A coalesced caller shares the leader's result.
// resolve is the only place outcomes are counted: a successful build is
// a miss, a successful use of a cached or coalesced artifact a hit.
func resolve[R any](ctx context.Context, s *session, key cacheKey,
	use func(context.Context, sizer) (R, error),
	build func(context.Context) (R, sizer, error)) (R, error) {
	serve := func(v sizer) (R, error) {
		if use == nil {
			s.hit(key.kind)
			return v.(R), nil
		}
		res, err := use(ctx, v)
		if err == nil {
			s.hit(key.kind)
		}
		return res, err
	}
	for {
		if v, ok := s.sh.cache.get(key); ok {
			return serve(v)
		}
		c, leader := s.sh.flight.begin(key)
		if leader {
			// Re-check under leadership: a previous leader may have added
			// the entry between our cache miss and our begin (its add runs
			// before its finish, so the entry is visible by now).
			var res R
			var err error
			if v, ok := s.sh.cache.get(key); ok {
				res, err = serve(v)
			} else {
				res, err = lead(ctx, s, key, build)
			}
			s.sh.flight.finish(key, c, res, err)
			return res, err
		}
		// Not the leader: this call coalesced onto an in-flight build.
		s.reg.metrics.flightDedups.Inc()
		select {
		case <-c.done:
			if c.err == nil {
				s.hit(key.kind)
				return c.val.(R), nil
			}
			// The leader failed — possibly only because *its* context was
			// cancelled. If ours is still live, retry (and likely become
			// the new leader) rather than inherit a stranger's error.
			if err := ctx.Err(); err != nil {
				var zero R
				return zero, err
			}
		case <-ctx.Done():
			var zero R
			return zero, ctx.Err()
		}
	}
}

// lead runs one leader build and keeps its artifact. The session is
// pinned for the build's duration: a cold build can outlast the idle
// TTL, and reaping mid-build would discard the result (see
// shard.reapIdle).
func lead[R any](ctx context.Context, s *session, key cacheKey, build func(context.Context) (R, sizer, error)) (R, error) {
	s.mu.Lock()
	s.inflight++
	s.mu.Unlock()
	s.reg.metrics.inflightBuilds.Add(1)
	res, art, err := build(ctx)
	s.reg.metrics.inflightBuilds.Add(-1)
	if err == nil {
		s.keep(key, art)
	}
	// Completing the build is a use: the idle clock restarts with the
	// unpin, so a tenant whose cold build took most of a TTL is not
	// reaped out from under its follow-up requests.
	s.mu.Lock()
	s.inflight--
	s.touchLocked()
	if err == nil {
		s.misses[key.kind]++
	}
	s.mu.Unlock()
	if err == nil {
		s.sh.misses[key.kind].Add(1)
	}
	return res, err
}

// hit counts one artifact served without a build; serving is a use.
func (s *session) hit(k artifact) {
	s.mu.Lock()
	s.hits[k]++
	s.touchLocked()
	s.mu.Unlock()
	s.sh.hits[k].Add(1)
}

// keep caches a freshly built artifact and journals it best-effort
// (see shard.appendBestEffort): every artifact is a cache the server
// can rebuild from the journaled log, so neither a codec nor an IO
// failure fails the tenant's request. A shard without a journal skips
// the encode, and a value whose codec renders no blob (a mining state
// without a k-medoids warm start) is not journaled.
func (s *session) keep(key cacheKey, v sizer) {
	if !s.cacheLive(key, v) || s.sh.journal == nil {
		return
	}
	rec, err := s.record(key, v)
	if err == nil && rec.Blob == nil {
		return
	}
	s.sh.appendBestEffort(rec.Kind, rec, err)
}

// cacheLive caches an artifact value and reports whether it did. It
// does not for a session deleted mid-build: its removeSession already
// ran, and an add now would strand an unreachable entry on the shard's
// byte budget (the session is pinned to s.sh, so its own shard map is
// the liveness authority).
func (s *session) cacheLive(key cacheKey, v sizer) bool {
	if s.sh.session(s.id) == nil {
		return false
	}
	s.sh.cache.add(key, v)
	return true
}

// record renders one cached artifact value as its journal record.
func (s *session) record(key cacheKey, v sizer) (journal.Artifact, error) {
	kind := &artifactKinds[key.kind]
	blob, err := kind.encode(s, v)
	return journal.Artifact{Kind: kind.journal, SessionID: s.id, LogID: key.log, Blob: blob}, err
}

// restore applies one journaled artifact (replay or import) to the
// session's cache. The record is skipped unless its kind is in
// artifactKinds, it belongs to this session and a live log, and its
// decoded value covers exactly that log's queries — a mismatched
// artifact rebuilds on demand instead of being served as another log's
// state. A record whose key is already cached replaces the entry (the
// later record wins) but reports Ignored, so a state journaled twice
// (rebuilt after an eviction, or copied while re-homing) counts once.
func (s *session) restore(a journal.Artifact) journal.Outcome {
	k := artifact(-1)
	for i, kind := range artifactKinds {
		if kind.journal == a.Kind {
			k = artifact(i)
		}
	}
	if k < 0 || a.SessionID != s.id {
		return journal.Skipped
	}
	s.mu.Lock()
	l, ok := s.logs[a.LogID]
	s.mu.Unlock()
	if !ok {
		return journal.Skipped
	}
	v, spec, n, err := artifactKinds[k].decode(s, a.Blob)
	if err != nil || n != len(l.queries) {
		return journal.Skipped
	}
	key := cacheKey{session: s.id, kind: k, spec: spec, log: a.LogID}
	_, dup := s.sh.cache.peek(key)
	s.sh.cache.add(key, v)
	if dup {
		return journal.Ignored
	}
	return journal.Applied
}

// artifactRecords renders every artifact the session has cached for one
// of the given live logs as a journal record, least recently used
// first, so replaying them rebuilds the cache's recency order. An
// artifact whose log is not in logs is dropped — replay could not apply
// it anyway — and so is one whose codec renders no blob.
func (s *session) artifactRecords(logs map[string]sessionLog) []journal.Record {
	var recs []journal.Record
	for _, key := range s.sh.cache.sessionKeys(s.id) {
		if _, ok := logs[key.log]; !ok {
			continue
		}
		v, ok := s.sh.cache.peek(key)
		if !ok {
			continue
		}
		if rec, err := s.record(key, v); err == nil && rec.Blob != nil {
			recs = append(recs, rec)
		}
	}
	return recs
}
