package bench

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"time"

	dpe "repro"
	"repro/internal/service"
	"repro/internal/store"
)

// recoveryShards is the recovery experiment's fixed shard count —
// fixed, like the contention experiment's, so the tracked counters are
// closed-form functions of the config alone.
const recoveryShards = 4

// runRecovery measures what the persistent artifact store buys across a
// restart. A multi-shard registry journaling to segment files in a temp
// directory is populated with one tenant per configured measure
// (session + uploaded encrypted log + warm prepared state), and the
// cold first-request latency is recorded. The registry is then closed
// and reopened over the same directory — the kill-and-restart — and the
// first request of every recovered tenant is timed again: it must be a
// prepared-cache hit, entry-wise identical to its pre-restart matrix.
//
// Tracked counters are exactly deterministic and gated: the replayed
// record counts equal the tenant count, and the post-restart misses and
// matrix mismatches are zero — a regression here means recovery
// silently lost state or went cold.
func runRecovery(ctx context.Context, r *Report, f *fixtures) error {
	dir, err := os.MkdirTemp("", "dpebench-recovery-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	open := func() (*service.Registry, error) {
		st, err := store.OpenDir(dir)
		if err != nil {
			return nil, err
		}
		return service.OpenRegistry(service.Config{
			Shards:          recoveryShards,
			Parallelism:     f.cfg.Parallelism,
			JanitorInterval: -1, // reaping mid-experiment would skew the counters
			Store:           st,
		})
	}

	reg, err := open()
	if err != nil {
		return err
	}
	n := f.cfg.Queries
	type tenant struct {
		m      dpe.Measure
		id     string
		logID  string
		matrix dpe.Matrix
	}
	var (
		tenants []tenant
		coldNs  float64
	)
	for _, m := range f.cfg.Measures {
		fx, err := f.measure(m)
		if err != nil {
			return err
		}
		req, err := service.BuildCreateSessionRequest(m, fx.remoteOpts...)
		if err != nil {
			return err
		}
		s, err := reg.CreateSession(req)
		if err != nil {
			return err
		}
		logID, err := s.AddLog(fx.encLog[:n])
		if err != nil {
			return err
		}
		start := time.Now()
		matrix, err := s.Matrix(ctx, logID) // the cold first request: prepare + build
		if err != nil {
			return err
		}
		coldNs += float64(time.Since(start).Nanoseconds())
		tenants = append(tenants, tenant{m: m, id: s.ID(), logID: logID, matrix: matrix})
	}
	reg.Close() // the planned "kill": journals are synced and released

	start := time.Now()
	reg2, err := open()
	if err != nil {
		return err
	}
	defer reg2.Close()
	replayNs := float64(time.Since(start).Nanoseconds())

	rec := reg2.Recovery()
	var (
		warmNs     float64
		misses     int64
		mismatches int
	)
	for _, tn := range tenants {
		s, err := reg2.Session(tn.id)
		if err != nil {
			return fmt.Errorf("tenant %s (%s) lost across restart: %w", tn.id, tn.m, err)
		}
		start := time.Now()
		matrix, err := s.Matrix(ctx, tn.logID) // warm-recovered first request
		if err != nil {
			return err
		}
		warmNs += float64(time.Since(start).Nanoseconds())
		if !reflect.DeepEqual(matrix, tn.matrix) {
			mismatches++
		}
		misses += s.Stats().PreparedMisses
	}

	const pfx = "recovery/segments"
	// Deterministic counters: the gate's subject matter. All replayed
	// record counts equal the tenant count; post-restart misses and
	// mismatches must be zero (the restart recovered warm state).
	r.add(pfx+"/replayed_sessions", "count", float64(rec.Sessions), true)
	r.add(pfx+"/replayed_logs", "count", float64(rec.Logs), true)
	r.add(pfx+"/replayed_snapshots", "count", float64(rec.Snapshots), true)
	r.add(pfx+"/replayed_tombstones", "count", float64(rec.Tombstones), true)
	r.add(pfx+"/skipped_records", "count", float64(rec.Skipped), true)
	r.add(pfx+"/post_restart_misses", "count", float64(misses), true)
	r.add(pfx+"/matrix_mismatches", "count", float64(mismatches), true)
	// Wall-clock: what the warm recovery buys over a cold start.
	r.add(pfx+"/cold_first_request", "ns", coldNs, false)
	r.add(pfx+"/warm_first_request", "ns", warmNs, false)
	r.add(pfx+"/cold_vs_warm", "ratio", coldNs/warmNs, false)
	r.add(pfx+"/replay", "ns", replayNs, false)
	return nil
}
