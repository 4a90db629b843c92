// Package journal is the typed persistence layer between the service
// and a store backend. The store moves opaque Records (a kind tag plus
// raw payloads); this package owns one codec per record type — session,
// delete, log, and artifact (the snapshot and mining kinds, which share
// one blob envelope; only k-medoids mining states are journaled) — with
// versioned encode/decode, so the
// service journals and replays typed values instead of hand-rolling
// byte payloads at every call site.
//
// A Journal wraps one shard's store.Log. It serializes appends against
// compaction internally (the mutex the service previously managed per
// shard), encodes typed records on the way down, and decodes them on
// the way up through a Handler during Replay — counting what was
// applied, skipped, and ignored into a Stats the recovery report is
// built from. A nil *Journal is the journal of an in-memory registry:
// every method returns at once, encoding and replaying nothing.
//
// Payload formats: a session payload is a JSON object whose version 1
// is implicit (no "v" field), the exact format every earlier release
// wrote. A log record is a root or a delta. A root log carries all its
// queries as the bare JSON array in "d", the only log payload earlier
// releases wrote or read. A delta names the log it extends and carries
// only the queries appended to it, as a versioned binary blob in "b"
// (see Log); an earlier release finds no "d" in it and skips it. An
// artifact carries its codec's own versioned blob. A payload this
// package cannot read (a session payload declaring a newer version, a
// root payload that is not an array, a delta blob of an unknown version,
// a damaged body) decodes to an error, which replay counts as skipped
// instead of failing: the journal is a recovery aid, and partial
// recovery beats refusing to start.
package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/binenc"
	"repro/internal/store"
)

// sessionVersion is the session payload version this package writes
// and the highest it can read. Version 1 is implicit (no "v" field)
// for wire stability with pre-journal-package releases.
const sessionVersion = 1

// logDeltaVersion is the version byte that opens a delta log's blob,
// the only one this package writes or reads.
const logDeltaVersion = 1

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
// A root log (Base empty) carries every query of the log. A delta
// names in Base the log it was appended to and carries only the
// appended queries, so the log it records is Base's queries followed
// by Queries. A delta's blob is
//
//	version byte (1) | uvarint-prefixed Base | uvarint tail count |
//	each tail query, uvarint-prefixed
//
// A delta applies only after its base, so a writer journals the base
// first.
type Log struct {
	SessionID string
	LogID     string
	Base      string
	Queries   []string
}

// Artifact records one serialized per-log cache artifact of a session:
// a prepared state (store.KindSnapshot) or a k-medoids incremental-mining
// state (store.KindMining). The blob is the artifact codec's own versioned
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

func (l Log) encode() (store.Record, error) {
	if l.SessionID == "" || l.LogID == "" {
		return store.Record{}, fmt.Errorf("journal: log record without a session or log id")
	}
	if len(l.Queries) == 0 {
		return store.Record{}, fmt.Errorf("journal: log record without queries")
	}
	rec := store.Record{Kind: store.KindLog, Session: l.SessionID, Log: l.LogID}
	if l.Base != "" {
		b := binenc.AppendString([]byte{logDeltaVersion}, l.Base)
		b = binary.AppendUvarint(b, uint64(len(l.Queries)))
		for _, q := range l.Queries {
			b = binenc.AppendString(b, q)
		}
		rec.Blob = b
		return rec, nil
	}
	data, err := json.Marshal(l.Queries)
	if err != nil {
		return store.Record{}, fmt.Errorf("journal: encoding log record: %w", err)
	}
	rec.Data = data
	return rec, nil
}

// decodeLog reads a root's bare queries array from "d", or a delta's
// blob from "b"; a record carrying both, or neither, is damaged.
func decodeLog(rec store.Record) (Log, error) {
	if rec.Session == "" || rec.Log == "" {
		return Log{}, fmt.Errorf("journal: log record without a session or log id")
	}
	l := Log{SessionID: rec.Session, LogID: rec.Log}
	switch {
	case len(rec.Blob) > 0 && len(rec.Data) > 0:
		return Log{}, fmt.Errorf("journal: log record carries both a root and a delta payload")
	case len(rec.Blob) > 0:
		r := binenc.NewReader(rec.Blob)
		if v := r.Byte(); v != logDeltaVersion {
			r.Fail("unknown log delta version %d", v)
		}
		l.Base = r.Str()
		l.Queries = make([]string, r.Count(1))
		for i := range l.Queries {
			l.Queries[i] = r.Str()
		}
		if err := r.Done(); err != nil {
			return Log{}, fmt.Errorf("journal: decoding log delta: %w", err)
		}
		if l.Base == "" {
			return Log{}, fmt.Errorf("journal: log delta without a base")
		}
	default:
		if err := json.Unmarshal(rec.Data, &l.Queries); err != nil {
			return Log{}, fmt.Errorf("journal: decoding log record: %w", err)
		}
	}
	if len(l.Queries) == 0 {
		return Log{}, fmt.Errorf("journal: log record without queries")
	}
	return l, nil
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
// records that could not be applied. The JSON tags are the form
// dpeserver reports its recovery in on GET /v1/stats.
type Stats struct {
	// Sessions, Logs, Snapshots and MineStates count the applied
	// records of each kind (mining states are k-medoids only, the one
	// algorithm whose state is journaled).
	Sessions   int `json:"sessions"`
	Logs       int `json:"logs"`
	Snapshots  int `json:"snapshots"`
	MineStates int `json:"mine_states"`
	// Tombstones counts applied deletions.
	Tombstones int `json:"tombstones"`
	// Skipped counts records that could not be applied: unknown kinds
	// (from newer binaries, or the approx indexes older ones
	// journaled), orphaned logs or artifacts of missing sessions, or
	// undecodable payloads.
	Skipped int `json:"skipped"`
}

// Total is the number of applied-or-skipped records.
func (s Stats) Total() int {
	return s.Sessions + s.Logs + s.Snapshots + s.MineStates + s.Tombstones + s.Skipped
}

// Add accumulates another replay's counts.
func (s *Stats) Add(o Stats) {
	s.Sessions += o.Sessions
	s.Logs += o.Logs
	s.Snapshots += o.Snapshots
	s.MineStates += o.MineStates
	s.Tombstones += o.Tombstones
	s.Skipped += o.Skipped
}

// artifact returns the counter for an artifact kind.
func (s *Stats) artifact(k store.Kind) *int {
	if k == store.KindSnapshot {
		return &s.Snapshots
	}
	return &s.MineStates
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
		out, applied = h.Delete(t), &st.Tombstones
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
// while holding locks their record collectors also take. A nil
// *Journal journals nothing: each method returns at once without
// encoding a record, calling a handler or running collect.
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
	if j == nil {
		return nil
	}
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
	if j == nil {
		return st, nil
	}
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
	if j == nil {
		return nil
	}
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
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}
