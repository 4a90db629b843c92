package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/store"
	"repro/internal/store/journal"
)

// Tenant export/import: one session's complete server-side state — the
// create request, its uploaded logs, and the cached prepared-state and
// mining-state blobs — rendered as a portable,
// CRC-checked bundle file (see journal's bundle format). Export reuses
// session.records, the same serializer journal compaction uses, so a
// bundle holds exactly what a compacted journal would; import restores
// it through the same artifact descriptors replay uses, so a restored
// session answers its first requests warm (cache hits, warm mining
// deltas) just like a restarted server.

// ImportResult reports what an import restored — the wire body of POST
// /v1/sessions:import.
type ImportResult struct {
	// Session is the restored session's id: bundles preserve ids, so
	// client-side references (and mining-state cache keys) stay valid.
	Session string `json:"session"`
	// Logs counts restored query logs; Snapshots and MineStates count
	// the cache entries restored warm (mining states are k-medoids
	// only, the one algorithm whose state is exported).
	Logs       int `json:"logs"`
	Snapshots  int `json:"snapshots"`
	MineStates int `json:"mine_states"`
	// Skipped counts records that could not be applied — e.g. a blob
	// whose codec this binary no longer understands, an approx index
	// an older binary exported, or a delta log whose base is missing.
	// The session still imports; skipped artifacts rebuild on demand.
	Skipped int `json:"skipped"`
}

// ExportSession streams one live session's state as a bundle to w. The
// snapshot is taken under the session's own locks (briefly), not the
// journal's — exporting never blocks other tenants' writes — and works
// on in-memory registries too: the bundle, not the journal, is the
// persistence being produced.
func (r *Registry) ExportSession(id string, w io.Writer) error {
	s := r.shardFor(id).session(id)
	if s == nil {
		return notFoundError{fmt.Errorf("service: unknown session %q", id)}
	}
	bw, err := journal.NewBundleWriter(w)
	if err != nil {
		return err
	}
	recs := s.records()
	if len(recs) == 0 {
		return fmt.Errorf("service: session %q has no exportable state", id)
	}
	for _, rec := range recs {
		if err := bw.Append(rec); err != nil {
			return err
		}
	}
	return bw.Close()
}

// bundleContents collects a bundle's typed records so ImportSession can
// validate the whole file before touching registry state. The journal
// dispatcher has already decoded (and version-checked) every record;
// the collector just sorts them by type.
type bundleContents struct {
	sessions  []journal.Session
	logs      []journal.Log
	artifacts []journal.Artifact
	deletes   int
}

func (c *bundleContents) Session(s journal.Session) journal.Outcome {
	c.sessions = append(c.sessions, s)
	return journal.Applied
}

func (c *bundleContents) Delete(journal.Delete) journal.Outcome {
	c.deletes++
	return journal.Applied
}

func (c *bundleContents) Log(l journal.Log) journal.Outcome {
	c.logs = append(c.logs, l)
	return journal.Applied
}

func (c *bundleContents) Artifact(a journal.Artifact) journal.Outcome {
	c.artifacts = append(c.artifacts, a)
	return journal.Applied
}

// ImportSession restores one exported session from rd. The bundle must
// carry exactly one session, its id must not be live here, and the
// registry's capacity and per-session budgets apply as if the tenant
// had re-created and re-uploaded everything — violating any of them
// fails the import with no state change. Cached blobs restore
// best-effort (a stale codec skips the entry, never the import). The
// session and its logs are journaled durably before ImportSession
// returns, and the restored artifacts best-effort.
func (r *Registry) ImportSession(rd io.Reader) (*ImportResult, error) {
	var c bundleContents
	st, err := journal.ReadBundle(rd, &c)
	if err != nil {
		return nil, err
	}
	if len(c.sessions) == 0 {
		return nil, fmt.Errorf("service: bundle has no session record")
	}
	if len(c.sessions) > 1 {
		return nil, fmt.Errorf("service: bundle has %d session records, want exactly 1", len(c.sessions))
	}
	if c.deletes > 0 {
		return nil, fmt.Errorf("service: bundle contains tombstones (not a tenant export)")
	}
	js := c.sessions[0]
	var req CreateSessionRequest
	if err := json.Unmarshal(js.Request, &req); err != nil || req.Measure == nil {
		return nil, fmt.Errorf("service: bundle session record has an invalid create request")
	}
	for _, l := range c.logs {
		if l.SessionID != js.ID {
			return nil, fmt.Errorf("service: bundle log %q belongs to session %q, not %q", l.LogID, l.SessionID, js.ID)
		}
	}
	cfg := r.cfg
	if len(c.logs) > cfg.MaxLogsPerSession {
		return nil, fmt.Errorf("service: bundle has %d logs, over the per-session limit of %d", len(c.logs), cfg.MaxLogsPerSession)
	}
	// Rebuild the logs as replay does: a delta whose base is missing, or
	// whose id does not match, is skipped, and a delta is charged only
	// for its tail.
	res := &ImportResult{Session: js.ID, Skipped: st.Skipped}
	logs := make(map[string]sessionLog, len(c.logs))
	var restored []journal.Log
	var logBytes int64
	for _, l := range c.logs {
		if _, ok := logs[l.LogID]; ok {
			return nil, fmt.Errorf("service: bundle repeats log %q", l.LogID)
		}
		sl, size, ok := rebuildLog(l, logs)
		if !ok {
			res.Skipped++
			continue
		}
		logs[l.LogID] = sl
		logBytes += size
		restored = append(restored, l)
	}
	res.Logs = len(restored)
	if logBytes > cfg.MaxLogBytesPerSession {
		return nil, fmt.Errorf("service: bundle logs total %d bytes, over the per-session budget of %d", logBytes, cfg.MaxLogBytesPerSession)
	}

	if r.shardFor(js.ID).session(js.ID) != nil {
		return nil, fmt.Errorf("service: session %q is already live here (delete it before importing)", js.ID)
	}
	s, err := r.newSession(js.ID, &req, js.Request, js.Created)
	if err != nil {
		return nil, fmt.Errorf("service: rebuilding bundle session provider: %w", err)
	}
	s.logs, s.logBytes = logs, logBytes
	if err := r.admit(s); err != nil {
		return nil, err
	}

	// Warm the caches from the artifact records through the replay
	// rules (same decode checks, same keys, same byte accounting).
	var warm []journal.Artifact
	for _, art := range c.artifacts {
		out := s.restore(art)
		if out == journal.Skipped {
			res.Skipped++
			continue
		}
		warm = append(warm, art)
		if out == journal.Ignored {
			continue // a repeated record: cached once, counted once
		}
		switch art.Kind {
		case store.KindSnapshot:
			res.Snapshots++
		case store.KindMining:
			res.MineStates++
		}
	}

	durable := []journal.Record{journal.Session{ID: js.ID, Created: js.Created, Request: js.Request}}
	for _, l := range restored {
		durable = append(durable, l)
	}
	for _, rec := range durable {
		if err := s.sh.appendDurable("imported session", rec); err != nil {
			// The records before rec may be on disk already. Rewrite the
			// shard to its live state, which no longer holds the session,
			// so a restart does not bring it back.
			r.drop(js.ID)
			if cerr := r.compactShard(s.sh); cerr != nil {
				err = errors.Join(err, fmt.Errorf("service: removing the failed import from the journal: %w", cerr))
			}
			return nil, err
		}
	}
	// Each imported log's record, a delta's base first, is now on disk,
	// so later appends onto these logs journal deltas.
	s.mu.Lock()
	for _, l := range restored {
		s.markDurableLocked(l.LogID)
	}
	s.mu.Unlock()
	for _, art := range warm {
		s.sh.appendBestEffort(art.Kind, art, nil)
	}
	// If this id ever lived (and was tombstoned) on this server, the old
	// tombstone now precedes the fresh create in the journal, and replay
	// would take the create for a stale one at the next boot. Compacting
	// the shard rewrites it down to live state, dropping any such
	// tombstone. Best-effort — the janitor compacts later anyway, and
	// until then a re-imported previously-deleted id is the only state
	// at risk.
	r.compactShard(s.sh)
	r.metrics.sessionsCreated.Inc()
	return res, nil
}
