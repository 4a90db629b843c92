package service

import (
	"encoding/json"
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
	// the cache entries restored warm.
	Logs       int `json:"logs"`
	Snapshots  int `json:"snapshots"`
	MineStates int `json:"mine_states"`
	// Skipped counts records that could not be applied — e.g. a blob
	// whose codec this binary no longer understands, or an approx index
	// an older binary exported. The session still imports; the skipped
	// entries rebuild on demand.
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
// best-effort (a stale codec skips the entry, never the import). On a
// persistent registry the restored state is journaled durably before
// ImportSession returns.
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
	var logBytes int64
	seen := make(map[string]bool, len(c.logs))
	for _, l := range c.logs {
		if seen[l.LogID] {
			return nil, fmt.Errorf("service: bundle repeats log %q", l.LogID)
		}
		seen[l.LogID] = true
		for _, q := range l.Queries {
			logBytes += int64(len(q))
		}
	}
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
	for _, l := range c.logs {
		s.logs[l.LogID] = l.Queries
	}
	s.logBytes = logBytes
	if err := r.admit(s); err != nil {
		return nil, err
	}

	// Warm the caches from the artifact records through the replay
	// rules (same decode checks, same keys, same byte accounting).
	res := &ImportResult{Session: js.ID, Logs: len(c.logs), Skipped: st.Skipped}
	var warm []journal.Artifact
	for _, art := range c.artifacts {
		if s.restore(art) != journal.Applied {
			res.Skipped++
			continue
		}
		warm = append(warm, art)
		switch art.Kind {
		case store.KindSnapshot:
			res.Snapshots++
		case store.KindMining:
			res.MineStates++
		}
	}

	if r.persistent {
		durable := []journal.Record{journal.Session{ID: js.ID, Created: js.Created, Request: js.Request}}
		for _, l := range c.logs {
			durable = append(durable, l)
		}
		for _, rec := range durable {
			if err := s.sh.journal.Append(rec); err != nil {
				r.drop(js.ID)
				return nil, fmt.Errorf("service: journaling imported session: %w", err)
			}
		}
		// The warm cache entries are a recoverable optimization: journal
		// them best-effort, like the write-through hooks.
		for _, art := range warm {
			if err := s.sh.journal.Append(art); err != nil {
				r.metrics.appendErrors[art.Kind].Inc()
			}
		}
		// If this id ever lived (and was tombstoned) on this server, the
		// old tombstone now precedes the fresh create in the journal and
		// replayDeleted would block the restore at the next boot.
		// Compacting the shard rewrites it down to live state, dropping
		// any such tombstone. Best-effort — the janitor compacts later
		// anyway, and until then a re-imported previously-deleted id is
		// the only state at risk.
		r.compactShard(s.sh)
	}
	r.metrics.sessionsCreated.Inc()
	return res, nil
}
