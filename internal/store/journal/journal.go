// Package journal is the typed persistence layer between the service
// and a store backend. The store moves opaque Records (a kind tag plus
// raw payloads); this package owns one codec per record type — session,
// delete, log, and artifact (the snapshot and mining kinds, which share
// one blob envelope) — with versioned encode/decode, so the
// service journals and replays typed values instead of hand-rolling
// byte payloads at every call site.
//
// A Journal wraps one shard's store.Log. It serializes appends against
// compaction internally (the mutex the service previously managed per
// shard), encodes typed records on the way down, and decodes them on
// the way up through a Handler during Replay — counting what was
// applied, skipped, and ignored into a Stats the recovery report is
// built from.
//
// Payload versioning: version 1 is the implicit version of payloads
// with no "v" field — the exact format every earlier release wrote —
// so the encoders in this package emit it unchanged and journals stay
// byte-compatible in both directions. A payload declaring a version
// this package does not know (written by a newer release) decodes to
// an error, which replay counts as skipped instead of failing: the
// journal is a recovery aid, and partial recovery beats refusing to
// start.
package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/store"
)

// The current payload versions this package writes and the highest it
// can read. Version 1 is implicit (no "v" field) for wire stability
// with pre-journal-package releases.
const (
	sessionVersion = 1
	logVersion     = 1
)

// Record is one typed journal event. The concrete types in this
// package — Session, Delete, Log, Artifact — are the complete set; the
// interface is sealed so every record that reaches a store.Log went
// through a versioned codec.
type Record interface {
	// encode renders the typed record as a raw store record.
	encode() (store.Record, error)
}

// Session records a session creation: the assigned id, the creation
// time, and the encoded create request. The request is opaque to the
// journal — the service owns its schema and re-validates on replay.
type Session struct {
	ID      string
	Created time.Time
	Request json.RawMessage
}

// Delete tombstones a session.
type Delete struct {
	ID string
}

// Log records an uploaded query log under its content-addressed id.
type Log struct {
	SessionID string
	LogID     string
	Queries   []string
}

// Artifact records one serialized per-log cache artifact of a session:
// a prepared state (store.KindSnapshot) or an incremental-mining state
// (store.KindMining). The blob is the artifact codec's own versioned
// output; the journal adds only the routing envelope, which is the same
// for every kind. Records of store.KindApprox, which older binaries
// journaled, decode as an unknown kind and count as skipped.
type Artifact struct {
	Kind      store.Kind
	SessionID string
	LogID     string
	Blob      []byte
}

// isArtifact reports whether k is one of the blob-carrying artifact
// kinds.
func isArtifact(k store.Kind) bool {
	return k == store.KindSnapshot || k == store.KindMining
}

// sessionPayload is the JSON body of a session record. V is omitted at
// version 1, matching the pre-journal-package format exactly.
type sessionPayload struct {
	V       int             `json:"v,omitempty"`
	Created time.Time       `json:"created"`
	Req     json.RawMessage `json:"req"`
}

func (s Session) encode() (store.Record, error) {
	if s.ID == "" {
		return store.Record{}, fmt.Errorf("journal: session record without an id")
	}
	if len(s.Request) == 0 {
		return store.Record{}, fmt.Errorf("journal: session record without a request")
	}
	data, err := json.Marshal(sessionPayload{Created: s.Created, Req: s.Request})
	if err != nil {
		return store.Record{}, fmt.Errorf("journal: encoding session record: %w", err)
	}
	return store.Record{Kind: store.KindSession, Session: s.ID, Data: data}, nil
}

func decodeSession(rec store.Record) (Session, error) {
	if rec.Session == "" {
		return Session{}, fmt.Errorf("journal: session record without an id")
	}
	var p sessionPayload
	if err := json.Unmarshal(rec.Data, &p); err != nil {
		return Session{}, fmt.Errorf("journal: decoding session record: %w", err)
	}
	if p.V > sessionVersion {
		return Session{}, fmt.Errorf("journal: session payload version %d is newer than this binary (max %d)", p.V, sessionVersion)
	}
	if len(p.Req) == 0 || bytes.Equal(bytes.TrimSpace(p.Req), []byte("null")) {
		return Session{}, fmt.Errorf("journal: session record without a request")
	}
	return Session{ID: rec.Session, Created: p.Created, Request: p.Req}, nil
}

func (d Delete) encode() (store.Record, error) {
	if d.ID == "" {
		return store.Record{}, fmt.Errorf("journal: delete record without an id")
	}
	return store.Record{Kind: store.KindDelete, Session: d.ID}, nil
}

func decodeDelete(rec store.Record) (Delete, error) {
	if rec.Session == "" {
		return Delete{}, fmt.Errorf("journal: delete record without an id")
	}
	return Delete{ID: rec.Session}, nil
}

// logPayload is the versioned JSON body of a log record at version 2
// and up. Version 1 — what this package writes — is the bare queries
// array, for wire stability with pre-journal-package journals.
type logPayload struct {
	V       int      `json:"v"`
	Queries []string `json:"q"`
}

func (l Log) encode() (store.Record, error) {
	if l.SessionID == "" || l.LogID == "" {
		return store.Record{}, fmt.Errorf("journal: log record without a session or log id")
	}
	if len(l.Queries) == 0 {
		return store.Record{}, fmt.Errorf("journal: log record without queries")
	}
	data, err := json.Marshal(l.Queries)
	if err != nil {
		return store.Record{}, fmt.Errorf("journal: encoding log record: %w", err)
	}
	return store.Record{Kind: store.KindLog, Session: l.SessionID, Log: l.LogID, Data: data}, nil
}

func decodeLog(rec store.Record) (Log, error) {
	data := bytes.TrimSpace(rec.Data)
	var queries []string
	if len(data) > 0 && data[0] == '[' {
		// Version 1: the bare queries array.
		if err := json.Unmarshal(data, &queries); err != nil {
			return Log{}, fmt.Errorf("journal: decoding log record: %w", err)
		}
	} else {
		var p logPayload
		if err := json.Unmarshal(data, &p); err != nil {
			return Log{}, fmt.Errorf("journal: decoding log record: %w", err)
		}
		if p.V > logVersion {
			return Log{}, fmt.Errorf("journal: log payload version %d is newer than this binary (max %d)", p.V, logVersion)
		}
		queries = p.Queries
	}
	if rec.Session == "" || rec.Log == "" || len(queries) == 0 {
		return Log{}, fmt.Errorf("journal: incomplete log record")
	}
	return Log{SessionID: rec.Session, LogID: rec.Log, Queries: queries}, nil
}

func (a Artifact) encode() (store.Record, error) {
	if !isArtifact(a.Kind) {
		return store.Record{}, fmt.Errorf("journal: %q is not an artifact kind", a.Kind)
	}
	if a.SessionID == "" || a.LogID == "" {
		return store.Record{}, fmt.Errorf("journal: %s record without a session or log id", a.Kind)
	}
	if len(a.Blob) == 0 {
		return store.Record{}, fmt.Errorf("journal: %s record without a blob", a.Kind)
	}
	return store.Record{Kind: a.Kind, Session: a.SessionID, Log: a.LogID, Blob: a.Blob}, nil
}

func decodeArtifact(rec store.Record) (Artifact, error) {
	if rec.Session == "" || rec.Log == "" || len(rec.Blob) == 0 {
		return Artifact{}, fmt.Errorf("journal: incomplete %s record", rec.Kind)
	}
	return Artifact{Kind: rec.Kind, SessionID: rec.Session, LogID: rec.Log, Blob: rec.Blob}, nil
}

// Decode maps a raw store record back to its typed form, or errors for
// unknown kinds and undecodable or newer-versioned payloads — which
// replay and bundle import count as skipped.
func Decode(rec store.Record) (Record, error) {
	switch {
	case rec.Kind == store.KindSession:
		return decodeSession(rec)
	case rec.Kind == store.KindDelete:
		return decodeDelete(rec)
	case rec.Kind == store.KindLog:
		return decodeLog(rec)
	case isArtifact(rec.Kind):
		return decodeArtifact(rec)
	default:
		return nil, fmt.Errorf("journal: unknown record kind %q", rec.Kind)
	}
}

// Outcome is a Handler's verdict on one decoded record.
type Outcome int

const (
	// Applied: the record restored state; counted under its kind.
	Applied Outcome = iota
	// Skipped: the record could not be applied — an orphaned log or
	// snapshot of a missing session, an undecodable blob, a stale
	// create of a tombstoned id. Counted in Stats.Skipped.
	Skipped
	// Ignored: a harmless duplicate (replay is idempotent); counted
	// nowhere.
	Ignored
)

// Handler consumes typed records during Replay and bundle import. Each
// method reports what became of the record; the dispatcher does the
// counting.
type Handler interface {
	Session(Session) Outcome
	Delete(Delete) Outcome
	Log(Log) Outcome
	Artifact(Artifact) Outcome
}

// Stats counts what a Replay or bundle read applied per kind, plus the
// records that could not be applied. Artifacts count under their kind:
// Snapshots or Mining.
type Stats struct {
	Sessions  int
	Deletes   int
	Logs      int
	Snapshots int
	Mining    int
	Skipped   int
}

// artifact returns the counter for an artifact kind.
func (s *Stats) artifact(k store.Kind) *int {
	if k == store.KindSnapshot {
		return &s.Snapshots
	}
	return &s.Mining
}

// dispatch decodes one raw record, routes it to the handler, and
// counts the outcome.
func dispatch(rec store.Record, h Handler, st *Stats) {
	typed, err := Decode(rec)
	if err != nil {
		st.Skipped++
		return
	}
	var out Outcome
	var applied *int
	switch t := typed.(type) {
	case Session:
		out, applied = h.Session(t), &st.Sessions
	case Delete:
		out, applied = h.Delete(t), &st.Deletes
	case Log:
		out, applied = h.Log(t), &st.Logs
	case Artifact:
		out, applied = h.Artifact(t), st.artifact(t.Kind)
	}
	switch out {
	case Applied:
		*applied++
	case Skipped:
		st.Skipped++
	}
}

// Journal wraps one shard's store.Log with the typed codecs. It owns
// the append-vs-compaction serialization the service previously
// managed with a per-shard mutex: Append, Replay, and Compact are
// mutually exclusive, and Compact holds the lock across the caller's
// collect so no concurrent append can slip between what was collected
// and what the rewritten journal holds. Callers must not invoke these
// while holding locks their record collectors also take.
type Journal struct {
	mu  sync.Mutex
	log store.Log
}

// New wraps a shard journal.
func New(log store.Log) *Journal {
	return &Journal{log: log}
}

// Append encodes and durably appends one typed record.
func (j *Journal) Append(rec Record) error {
	raw, err := rec.encode()
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Append(raw)
}

// Replay streams the journal's records in write order through h and
// returns the counts. A raw record that does not decode — unknown
// kind, newer payload version, damaged body — is counted as skipped,
// never fatal.
func (j *Journal) Replay(h Handler) (Stats, error) {
	var st Stats
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.log.Replay(func(rec store.Record) error {
		dispatch(rec, h, &st)
		return nil
	})
	return st, err
}

// Compact atomically replaces the journal's contents with the records
// collect returns — the live-state rewrite. The lock is held across
// collect + rewrite; a record that fails to encode is dropped from the
// rewrite (best-effort, like the write-through hooks) rather than
// failing the whole compaction. A nil collect empties the journal.
func (j *Journal) Compact(collect func() []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	var raws []store.Record
	if collect != nil {
		recs := collect()
		raws = make([]store.Record, 0, len(recs))
		for _, rec := range recs {
			raw, err := rec.encode()
			if err != nil {
				continue
			}
			raws = append(raws, raw)
		}
	}
	return j.log.Compact(raws)
}

// Close releases the underlying shard journal.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}
