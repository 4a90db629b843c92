// Package store is the persistence seam of the multi-tenant service: a
// pluggable journal that records what a registry shard holds — session
// creations and deletions, artifact and log uploads, and serialized
// prepared-state snapshots — so a restarted dpeserver warms back up
// without tenants re-uploading or the server re-preparing anything.
//
// The unit of persistence is one shard: the registry's consistent-hash
// ring maps every session id to a stable shard, so each shard can own
// one append-only segment file and replay it independently on startup.
// Two implementations ship:
//
//   - Null, the default: journals nothing, replays nothing — the
//     historical in-memory registry.
//   - Dir, a directory of per-shard segment files with CRC-framed
//     records (segment.go): appends survive crashes up to the last
//     fully-written record, and compaction rewrites a segment to just
//     the live records.
//
// The store knows nothing about the service's types: records carry a
// kind tag plus opaque payloads, and the service layer owns their
// semantics (see internal/service's journaling hooks and replay).
package store

// Kind tags what a record means. The service layer defines the
// vocabulary; replay must skip kinds it does not recognize, so old
// binaries survive journals written by newer ones.
type Kind string

// The record kinds the service journals today.
const (
	// KindSession records a session creation; Data carries the encoded
	// create request plus the assigned id.
	KindSession Kind = "session"
	// KindDelete tombstones a session.
	KindDelete Kind = "delete"
	// KindLog records an uploaded query log; Data carries the queries.
	KindLog Kind = "log"
	// KindSnapshot records a serialized prepared state for one
	// (session, log) pair; Blob carries the metric's codec output.
	KindSnapshot Kind = "snapshot"
	// KindApprox is the kind older binaries journaled MinHash/LSH
	// indexes under. Nothing writes it any more, and the journal
	// decodes its records as an unknown kind, counted as skipped. The
	// name stays because the benchmark module and the zero-valued
	// dpe_store_append_errors_total{kind="approx"} series refer to it.
	KindApprox Kind = "approx"
	// KindMining records a serialized incremental-mining state for one
	// (session, log, spec) triple; Blob carries dpe's MineState codec
	// output. Replayed states make the first post-restart append_mine a
	// warm delta instead of a cold bootstrap.
	KindMining Kind = "mining"
)

// Record is one journaled event. Session and Log are routing keys (the
// session id, and the content-addressed log id when the event concerns
// one log); Data carries JSON payloads and Blob binary ones. A Record
// is self-contained: replay order within one segment is the only
// context it needs.
type Record struct {
	Kind    Kind   `json:"k"`
	Session string `json:"s,omitempty"`
	Log     string `json:"l,omitempty"`
	Data    []byte `json:"d,omitempty"`
	Blob    []byte `json:"b,omitempty"`
}

// Log is one shard's journal. Implementations must be safe for use by
// one goroutine at a time; the service serializes access per shard.
type Log interface {
	// Append durably appends one record in write order.
	Append(rec Record) error
	// Replay streams the journal's records in write order. A decoding
	// problem mid-journal (torn write from a crash) ends the replay of
	// that journal without error: everything up to the damage is
	// recovered, the rest is discarded.
	Replay(fn func(rec Record) error) error
	// Compact atomically replaces the journal's contents with recs —
	// the live-state rewrite that drops tombstoned sessions and
	// superseded snapshots.
	Compact(recs []Record) error
	// Close releases the journal. Append/Replay/Compact after Close
	// error.
	Close() error
}

// Store hands out one Log per shard.
type Store interface {
	// Open returns shard i's journal, creating it when absent. Opening
	// the same shard twice without an intervening Close is undefined.
	Open(shard int) (Log, error)
	// List returns the shard indexes that already have journals — how
	// a restart under a smaller shard count finds (and re-homes) the
	// records of shards that no longer exist.
	List() ([]int, error)
	// Close releases store-wide resources; shard Logs are closed
	// individually by their owners.
	Close() error
}

// Null is the no-op store: nothing is journaled, nothing is replayed.
// It is the registry default, preserving the in-memory-only behavior.
type Null struct{}

// Open returns a no-op journal.
func (Null) Open(int) (Log, error) { return nullLog{}, nil }

// List returns no journals.
func (Null) List() ([]int, error) { return nil, nil }

// Close is a no-op.
func (Null) Close() error { return nil }

type nullLog struct{}

func (nullLog) Append(Record) error             { return nil }
func (nullLog) Replay(func(Record) error) error { return nil }
func (nullLog) Compact([]Record) error          { return nil }
func (nullLog) Close() error                    { return nil }
