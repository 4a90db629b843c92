package store

import (
	"time"

	"repro/internal/obs"
)

// Instrumenter is implemented by backends that can emit the
// dpe_store_* journal metrics (the segment directory) — dpeserver
// type-asserts the configured Store against this interface and wires
// whichever backend it got.
type Instrumenter interface {
	Instrument(r *obs.Registry)
}

// storeMetrics holds the journal instruments one backend's shard
// journals share. The struct is allocated at backend-open time (so
// every shard journal can hold the pointer) and its fields stay nil
// until instrument fills them — obs instruments are nil-receiver safe,
// so an uninstrumented store pays one nil check per event.
type storeMetrics struct {
	written     *obs.Counter
	replayed    *obs.Counter
	compactions *obs.Counter
	reclaimed   *obs.Counter
	fsync       *obs.Histogram
}

// instrument registers the backend-agnostic journal metrics on r. Call
// it after opening the backend and before the registry opens or
// replays any shard journal — metric fields are written without
// synchronization, on the assumption that wiring happens before
// serving starts.
func (m *storeMetrics) instrument(r *obs.Registry) {
	m.written = r.Counter("dpe_store_records_written_total",
		"Journal records appended (and made durable) across all shards.")
	m.replayed = r.Counter("dpe_store_records_replayed_total",
		"Journal records decoded intact during startup replay.")
	m.compactions = r.Counter("dpe_store_compactions_total",
		"Journal compaction rewrites completed.")
	m.reclaimed = r.Counter("dpe_store_compact_reclaimed_bytes_total",
		"Bytes reclaimed by compaction (old journal size minus rewritten size).")
	m.fsync = r.Histogram("dpe_store_fsync_seconds",
		"Latency of the fsync acknowledging each journal append.", nil)
}

// Instrument registers the directory store's journal metrics on r and
// routes every segment's events to them.
func (d *Dir) Instrument(r *obs.Registry) { d.metrics.instrument(r) }

// The journal-side hooks below are nil-safe on the metrics struct
// itself too, so a journal constructed without a backend still works.

func (m *storeMetrics) recordWritten(syncDur time.Duration) {
	if m == nil {
		return
	}
	m.written.Inc()
	m.fsync.Observe(syncDur.Seconds())
}

func (m *storeMetrics) recordReplayed() {
	if m == nil {
		return
	}
	m.replayed.Inc()
}

func (m *storeMetrics) recordCompaction(oldSize, newSize int64) {
	if m == nil {
		return
	}
	m.compactions.Inc()
	if oldSize > newSize {
		m.reclaimed.Add(oldSize - newSize)
	}
}
