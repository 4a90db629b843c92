package service

import (
	"context"
	"strings"

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
	// ns prefixes the log id in the kind's cache keys, after the
	// session prefix. Log ids start with "l-", so no namespace collides
	// with another or with a bare log id.
	ns string
	// size is the cache's byte charge for a value built for logID.
	size func(s *session, v any, logID string) int64
	// encode renders a value as its journal blob.
	encode func(s *session, v any) ([]byte, error)
	// decode restores a value from a journal blob and reports its key
	// variant (see session.key) and the number of queries it covers,
	// which must equal the length of the log it is filed under.
	decode func(s *session, blob []byte) (v any, variant string, n int, err error)
}

var artifactKinds = [numArtifacts]artifactKind{
	artPrepared: {
		journal: store.KindSnapshot,
		size: func(s *session, v any, logID string) int64 {
			return s.preparedCost(v.(*dpe.PreparedLog), logID)
		},
		encode: func(s *session, v any) ([]byte, error) {
			return s.provider.MarshalPreparedLog(v.(*dpe.PreparedLog))
		},
		decode: func(s *session, blob []byte) (any, string, int, error) {
			pl, err := s.provider.UnmarshalPreparedLog(blob)
			if err != nil {
				return nil, "", 0, err
			}
			return pl, "", pl.Len(), nil
		},
	},
	artMining: {
		journal: store.KindMining,
		ns:      "mine:",
		size:    func(_ *session, v any, _ string) int64 { return v.(*dpe.MineState).SizeBytes() },
		encode:  func(_ *session, v any) ([]byte, error) { return dpe.MarshalMineState(v.(*dpe.MineState)) },
		decode: func(_ *session, blob []byte) (any, string, int, error) {
			state, err := dpe.UnmarshalMineState(blob)
			if err != nil {
				return nil, "", 0, err
			}
			return state, mineVariant(state.Spec()), state.Len(), nil
		},
	},
}

// key is the cache key of the session's artifact of kind k for logID.
// Every key carries the s.id + "\x00" prefix, so the one removePrefix
// sweep on delete and TTL reap releases all of a session's artifacts
// from the shard budget together. variant tells apart several
// artifacts of one kind for the same log (mining states, one per spec);
// it is empty or ends in a NUL, so the log id follows the key's last
// NUL.
func (s *session) key(k artifact, variant, logID string) string {
	return s.id + "\x00" + artifactKinds[k].ns + variant + logID
}

// parseKey inverts key for one of the session's cache keys.
func (s *session) parseKey(key string) (artifact, string) {
	rest := key[len(s.id)+1:]
	k := artPrepared
	for i, kind := range artifactKinds {
		if kind.ns != "" && strings.HasPrefix(rest, kind.ns) {
			k = artifact(i)
		}
	}
	rest = rest[len(artifactKinds[k].ns):]
	return k, rest[strings.LastIndexByte(rest, 0)+1:]
}

// resolve serves the session's artifact of kind k for logID: from the
// shard cache when it holds one, else from a single build however many
// callers race for it (singleflight). use turns a cached artifact into
// the caller's result (nil: the artifact is the result); build returns
// a fresh result and the artifact to cache. A coalesced caller shares
// the leader's result. A successful build counts a miss; a successful
// use of a cached or coalesced artifact counts a hit.
func resolve[R any](ctx context.Context, s *session, k artifact, variant, logID string,
	use func(context.Context, any) (R, error),
	build func(context.Context) (R, any, error)) (R, error) {
	key := s.key(k, variant, logID)
	serve := func(v any) (R, error) {
		if use == nil {
			s.hit(k)
			return v.(R), nil
		}
		res, err := use(ctx, v)
		if err == nil {
			s.hit(k)
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
				res, err = lead(ctx, s, k, variant, logID, build)
			}
			s.sh.flight.finish(key, c, res, err)
			return res, err
		}
		// Not the leader: this call coalesced onto an in-flight build.
		s.reg.metrics.flightDedups.Inc()
		select {
		case <-c.done:
			if c.err == nil {
				s.hit(k)
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
func lead[R any](ctx context.Context, s *session, k artifact, variant, logID string, build func(context.Context) (R, any, error)) (R, error) {
	s.mu.Lock()
	s.inflight++
	s.mu.Unlock()
	s.reg.metrics.inflightBuilds.Add(1)
	res, art, err := build(ctx)
	s.reg.metrics.inflightBuilds.Add(-1)
	if err == nil {
		s.keep(k, variant, logID, art)
	}
	// Completing the build is a use: the idle clock restarts with the
	// unpin, so a tenant whose cold build took most of a TTL is not
	// reaped out from under its follow-up requests.
	s.mu.Lock()
	s.inflight--
	s.touchLocked()
	if err == nil {
		s.misses[k]++
	}
	s.mu.Unlock()
	if err == nil {
		s.reg.artifactMisses[k].Add(1)
	}
	return res, err
}

// hit counts one artifact served without a build; serving is a use.
func (s *session) hit(k artifact) {
	s.mu.Lock()
	s.hits[k]++
	s.touchLocked()
	s.mu.Unlock()
	s.reg.artifactHits[k].Add(1)
}

// keep caches a freshly built artifact and journals it. It does neither
// for a session deleted mid-build: its removePrefix already ran, and an
// add now would strand an unreachable entry on the shard's byte budget
// (the session is pinned to s.sh, so its own shard map is the liveness
// authority). Journaling is best-effort: every artifact is a cache the
// server can rebuild from the journaled log, so a codec or IO failure
// must not fail the tenant's request; it counts in
// dpe_store_append_errors_total instead.
func (s *session) keep(k artifact, variant, logID string, v any) {
	if s.sh.session(s.id) == nil {
		return
	}
	s.sh.cache.add(s.key(k, variant, logID), v, artifactKinds[k].size(s, v, logID))
	if !s.reg.persistent {
		return
	}
	rec, err := s.record(k, logID, v)
	if err == nil {
		err = s.sh.journal.Append(rec)
	}
	if err != nil {
		s.reg.metrics.appendErrors[artifactKinds[k].journal].Inc()
	}
}

// record renders one artifact value as its journal record.
func (s *session) record(k artifact, logID string, v any) (journal.Artifact, error) {
	kind := &artifactKinds[k]
	blob, err := kind.encode(s, v)
	return journal.Artifact{Kind: kind.journal, SessionID: s.id, LogID: logID, Blob: blob}, err
}

// restore applies one journaled artifact (replay or import) to the
// session's cache. The record is skipped unless its kind is in
// artifactKinds, it belongs to this session and a live log, and its
// decoded value covers exactly that log's queries — a mismatched
// artifact rebuilds on demand instead of being served as another log's
// state.
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
	queries, ok := s.logs[a.LogID]
	s.mu.Unlock()
	if !ok {
		return journal.Skipped
	}
	kind := &artifactKinds[k]
	v, variant, n, err := kind.decode(s, a.Blob)
	if err != nil || n != len(queries) {
		return journal.Skipped
	}
	s.sh.cache.add(s.key(k, variant, a.LogID), v, kind.size(s, v, a.LogID))
	return journal.Applied
}

// artifactRecords renders every artifact the session has cached for one
// of the given live logs as a journal record, least recently used
// first, so replaying them rebuilds the cache's recency order. Keys are
// enumerated from the cache because mining keys embed a spec
// fingerprint the session does not hold. An artifact whose log is not
// in logs is dropped — replay could not apply it anyway.
func (s *session) artifactRecords(logs map[string][]string) []journal.Record {
	var recs []journal.Record
	for _, key := range s.sh.cache.keysWithPrefix(s.id + "\x00") {
		k, logID := s.parseKey(key)
		if _, ok := logs[logID]; !ok {
			continue
		}
		v, ok := s.sh.cache.peek(key)
		if !ok {
			continue
		}
		if rec, err := s.record(k, logID, v); err == nil {
			recs = append(recs, rec)
		}
	}
	return recs
}
