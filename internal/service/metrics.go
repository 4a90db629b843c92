package service

import (
	"context"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// stageNames is the closed set of provider pipeline stages the registry
// observes. Histograms are pre-registered for all of them at wire-up
// time, so a typo'd stage name at an observation site drops the sample
// (nil histogram) instead of minting an unreviewed series.
var stageNames = []string{
	"prepare",       // per-query work: tokenize, parse, execute
	"matrix",        // pairwise fan-out over the triangle
	"append_extend", // incremental prepared-state extension
	"append_rows",   // the n·k + k·(k−1)/2 new-entry block
	"approx_index",  // retired LSH index build; registered, always empty
	"rerank",        // neighbors: one exact row plus the top-k selection
	"mine",          // mining pass (includes its matrix build)
	"mine_delta",    // incremental mining: appended pairs + warm start
}

// registryMetrics is the registry's slice of the obs wiring. Every
// field is nil on an uninstrumented registry — obs instruments no-op on
// nil receivers, so call sites never branch on whether metrics are on.
type registryMetrics struct {
	sessionsCreated *obs.Counter
	sessionsDeleted *obs.Counter
	sessionsReaped  *obs.Counter
	flightDedups    *obs.Counter
	inflightBuilds  *obs.Gauge
	evictDelete     *obs.Counter
	evictReap       *obs.Counter
	// appendErrors counts, per record kind, the best-effort journal
	// appends that failed and were dropped without failing a request.
	// A nil map (uninstrumented) yields nil counters.
	appendErrors map[store.Kind]*obs.Counter
	// stages maps a stage name to its latency histogram; read-only
	// after wireMetrics, so lookups need no lock.
	stages map[string]*obs.Histogram
}

// wireMetrics registers the registry's instruments on o. It runs inside
// OpenRegistry after journal replay (recovery work never pollutes the
// serving counters) and before the janitors start (which read the
// reap/eviction counters). Registering the same names twice on one obs
// registry panics — the duplicate-metric lint CI runs.
func (r *Registry) wireMetrics(o *obs.Registry) {
	m := &r.metrics
	m.sessionsCreated = o.Counter("dpe_sessions_created_total", "Sessions created via the API.")
	m.sessionsDeleted = o.Counter("dpe_sessions_deleted_total", "Sessions deleted via the API.")
	m.sessionsReaped = o.Counter("dpe_sessions_reaped_total", "Idle sessions reaped by the TTL janitor or capacity pressure.")
	m.flightDedups = o.Counter("dpe_singleflight_dedups_total", "Cold builds coalesced onto another caller's in-flight build.")
	m.inflightBuilds = o.Gauge("dpe_inflight_builds", "Leader prepare/index builds currently running.")
	m.evictDelete = o.Counter("dpe_cache_evictions_total", "Cache entries evicted, by cause.", "cause", "session_delete")
	m.evictReap = o.Counter("dpe_cache_evictions_total", "Cache entries evicted, by cause.", "cause", "ttl_reap")
	// Every cache and mining-state series reads Stats, the sums GET
	// /v1/stats serves, so the two views reconcile exactly
	// (TestStatsAndMetricsAgree holds this).
	o.CounterFunc("dpe_cache_evictions_total", "Cache entries evicted, by cause.",
		func() float64 { return float64(r.Stats().PreparedCache.Evictions) }, "cause", "budget")
	m.appendErrors = make(map[store.Kind]*obs.Counter)
	// kind="approx" stays registered at zero: nothing journals that kind
	// any more, but dpe_* series are only ever added, never removed.
	for _, k := range []store.Kind{store.KindDelete, store.KindSnapshot, store.KindApprox, store.KindMining} {
		m.appendErrors[k] = o.Counter("dpe_store_append_errors_total",
			"Best-effort journal appends (artifacts, TTL tombstones) that failed and were dropped, by record kind.", "kind", string(k))
	}

	o.GaugeFunc("dpe_sessions", "Live sessions across all shards.",
		func() float64 { return float64(r.live.Load()) })
	o.GaugeFunc("dpe_sessions_limit", "Configured MaxSessions capacity.",
		func() float64 { return float64(r.cfg.MaxSessions) })
	o.GaugeFunc("dpe_cache_entries", "Cache entries (prepared and mining states) across all shards.",
		func() float64 { return float64(r.Stats().PreparedCache.Entries) })
	o.GaugeFunc("dpe_cache_bytes", "Estimated bytes of cached prepared and mining states across all shards.",
		func() float64 { return float64(r.Stats().PreparedCache.Bytes) })
	o.CounterFunc("dpe_cache_hits_total", "Prepared states served from the cache or by a coalesced build, across all shards.",
		func() float64 { return float64(r.Stats().PreparedCache.Hits) })
	o.CounterFunc("dpe_cache_misses_total", "Prepared-state builds across all shards.",
		func() float64 { return float64(r.Stats().PreparedCache.Misses) })
	o.CounterFunc("dpe_mine_state_hits_total", "Mining-state cache hits on the append_mine path.",
		func() float64 { return float64(r.Stats().MineStateHits) })
	o.CounterFunc("dpe_mine_state_misses_total", "Mining-state cache misses on the append_mine path.",
		func() float64 { return float64(r.Stats().MineStateMisses) })
	for i, sh := range r.shards {
		o.GaugeFunc("dpe_shard_sessions", "Live sessions on one shard.",
			func() float64 { return float64(sh.sessionCount()) }, "shard", strconv.Itoa(i))
	}

	m.stages = make(map[string]*obs.Histogram, len(stageNames))
	for _, name := range stageNames {
		m.stages[name] = o.Histogram("dpe_stage_duration_seconds",
			"Latency of one provider pipeline stage.", nil, "stage", name)
	}
}

// observeStage is the registry's dpe.StageObserver (threaded into every
// provider it builds): it feeds the per-stage histogram and, when the
// request carries a trace, records the span for slow-request logging.
// Safe on an uninstrumented registry — the histogram lookup on a nil
// map yields a nil histogram, and a nil trace absorbs Add.
func (r *Registry) observeStage(ctx context.Context, stage string, d time.Duration) {
	r.metrics.stages[stage].Observe(d.Seconds())
	obs.TraceFromContext(ctx).Add(stage, d)
}
