package bench

import (
	"context"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// obsShards is the obs experiment's fixed shard count — fixed, like the
// recovery experiment's, so the tracked counters are closed-form
// functions of the config alone.
const obsShards = 4

// runObs is the observability smoke experiment: a fully instrumented
// dpeserver stack (store journal metrics, registry/shard metrics, HTTP
// middleware) serves a scripted per-measure workload, and the /metrics
// exposition is scraped and reconciled against the deterministic
// ground truth — the request script itself and GET /v1/stats. Tracked
// counters:
//
//   - obs/http_requests: every request the script sent, counted by the
//     middleware's route×code counters — (5 + WarmCalls) per measure.
//   - obs/stats_mismatches: cache series on /metrics that disagree with
//     the same numbers on /v1/stats, plus any dpe_store_append_errors_total
//     series that is missing or non-zero (the store is healthy, so no
//     best-effort append was dropped); must be zero.
//   - obs/stage_prepare_builds: prepare-stage histogram samples — one
//     cold build per measure, however many warm calls follow.
//   - obs/store_records_written: journal appends — per measure, the
//     session record, the base log, its prepared snapshot, the appended
//     log, and its snapshot (5).
func runObs(ctx context.Context, r *Report, f *fixtures) error {
	dir, err := os.MkdirTemp("", "dpebench-obs-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	o := obs.NewRegistry()
	st, err := store.OpenDir(dir)
	if err != nil {
		return err
	}
	st.Instrument(o)
	reg, err := service.OpenRegistry(service.Config{
		Shards:          obsShards,
		Parallelism:     f.cfg.Parallelism,
		JanitorInterval: -1, // reaping mid-experiment would skew the counters
		Store:           st,
		Obs:             o,
	})
	if err != nil {
		return err
	}
	defer reg.Close()
	srv := httptest.NewServer(service.NewHandlerWithOptions(reg, service.HandlerOptions{Obs: o}))
	defer srv.Close()
	client := service.NewClient(srv.URL)

	n, k := f.cfg.Queries, f.cfg.Append
	requests := 0
	for _, m := range f.cfg.Measures {
		fx, err := f.measure(m)
		if err != nil {
			return err
		}
		sess, err := client.NewSession(ctx, m, fx.remoteOpts...)
		if err != nil {
			return err
		}
		requests++ // POST /v1/sessions
		base, tail := fx.encLog[:n], fx.encLog[n:n+k]
		remote, err := sess.DistanceMatrix(ctx, base)
		if err != nil {
			return err
		}
		requests += 2 // upload + cold matrix
		for i := 0; i < f.cfg.WarmCalls; i++ {
			if _, err := sess.DistanceMatrix(ctx, base); err != nil {
				return err
			}
			requests++ // warm matrix (upload is client-side cached)
		}
		if _, err := sess.Append(ctx, remote, base, tail); err != nil {
			return err
		}
		requests++ // logs:append
		if _, err := sess.Stats(ctx); err != nil {
			return err
		}
		requests++ // GET /v1/sessions/{id}
	}

	stats := reg.Stats()
	scrapeStart := time.Now()
	samples, bytes, err := scrapeRegistry(o)
	if err != nil {
		return err
	}
	scrapeNs := float64(time.Since(scrapeStart).Nanoseconds())

	served := 0.0
	for key, v := range samples {
		if strings.HasPrefix(key, "dpe_http_requests_total{") {
			served += v
		}
	}
	mismatches := 0
	for key, want := range map[string]float64{
		`dpe_cache_hits_total`:                      float64(stats.PreparedCache.Hits),
		`dpe_cache_misses_total`:                    float64(stats.PreparedCache.Misses),
		`dpe_cache_entries`:                         float64(stats.PreparedCache.Entries),
		`dpe_cache_bytes`:                           float64(stats.PreparedCache.Bytes),
		`dpe_cache_evictions_total{cause="budget"}`: float64(stats.PreparedCache.Evictions),
		`dpe_sessions`:                              float64(stats.Sessions),
	} {
		if samples[key] != want {
			mismatches++
		}
	}
	// A healthy store drops no best-effort append: every kind's series
	// must be exposed, and read zero.
	for _, kind := range []store.Kind{store.KindDelete, store.KindSnapshot, store.KindApprox, store.KindMining} {
		if v, ok := samples[`dpe_store_append_errors_total{kind="`+string(kind)+`"}`]; !ok || v != 0 {
			mismatches++
		}
	}
	if int(served) != requests {
		// A middleware miscount is itself a mismatch, not a run failure:
		// the tracked counter surfaces it against the baseline.
		mismatches++
	}

	r.add("obs/http_requests", "count", served, true)
	r.add("obs/stats_mismatches", "count", float64(mismatches), true)
	r.add("obs/stage_prepare_builds", "count", samples[`dpe_stage_duration_seconds_count{stage="prepare"}`], true)
	r.add("obs/store_records_written", "count", samples[`dpe_store_records_written_total`], true)
	r.add("obs/scrape", "ns", scrapeNs, false)
	r.add("obs/exposition_bytes", "bytes", float64(bytes), false)
	return nil
}

// scrapeRegistry renders the registry in Prometheus text format and
// parses every sample line into name{labels} → value.
func scrapeRegistry(o *obs.Registry) (map[string]float64, int64, error) {
	var sb strings.Builder
	n, err := o.WriteTo(&sb)
	if err != nil {
		return nil, 0, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, n, nil
}
