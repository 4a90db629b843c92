package bench

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	dpe "repro"
	"repro/internal/service"
)

// Contention experiment constants. The worker count is fixed — not
// derived from the machine — so every tracked counter is a closed-form
// function of the config and the gate compares like with like across
// runners; goroutines beyond the core count still collide on the same
// locks, which is the point.
const (
	contentionWorkers = 8
	contentionShards  = 8
)

// runContention hammers one sharded registry from P goroutines, each
// churning whole tenant lifecycles: create session → upload log → cold
// matrix → warm matrix → append → matrix on the grown log → delete.
// Every worker's logs are distinct, the cache budget is ample, and the
// janitor is off, so the cache hit/miss totals and operation counts are
// exactly deterministic however the goroutines interleave — those are
// the tracked counters. Wall-clock throughput is recorded untracked:
// that is where the sharding win shows up on multi-core hardware.
func runContention(ctx context.Context, r *Report, f *fixtures) error {
	rounds := f.cfg.WarmCalls // gated configs compare WarmCalls, so counters stay comparable
	reg := service.NewRegistry(service.Config{
		Shards:          contentionShards,
		Parallelism:     f.cfg.Parallelism,
		MaxSessions:     4 * contentionWorkers,
		CacheEntries:    256, // ample: evictions would make miss counts racy
		JanitorInterval: -1,  // reaping mid-run would too
	})
	defer reg.Close()

	var (
		wg                      sync.WaitGroup
		ops, hits, misses, errs atomic.Int64
	)
	start := time.Now()
	for w := 0; w < contentionWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				if err := contentionLifecycle(ctx, reg, w, round, rounds, &ops, &hits, &misses); err != nil {
					errs.Add(1)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	stats := reg.Stats()
	perShard := reg.ShardStats()
	maxSessions, minSessions := 0, int(^uint(0)>>1)
	for _, s := range perShard {
		if s.Sessions > maxSessions {
			maxSessions = s.Sessions
		}
		if s.Sessions < minSessions {
			minSessions = s.Sessions
		}
	}

	pfx := "contention"
	// Deterministic counters: the gate's subject matter.
	r.add(pfx+"/ops", "count", float64(ops.Load()), true)
	r.add(pfx+"/prepared_misses", "count", float64(misses.Load()), true)
	r.add(pfx+"/errors", "count", float64(errs.Load()), true)
	r.add(pfx+"/shards", "count", float64(stats.Shards), true)
	r.add(pfx+"/sessions_live", "count", float64(stats.Sessions), true)
	// Hits are deterministic too but higher-is-better, so they stay
	// untracked — the lower-is-better gate must not flag an extra hit.
	r.add(pfx+"/prepared_hits", "count", float64(hits.Load()), false)
	// Wall clock: recorded for humans, never gated.
	r.add(pfx+"/elapsed", "ns", float64(elapsed.Nanoseconds()), false)
	r.add(pfx+"/throughput", "ops/s", float64(ops.Load())/elapsed.Seconds(), false)
	// Placement spread across shards (random session ids, so recorded
	// only): how evenly routing scattered the surviving sessions.
	r.add(pfx+"/shard_sessions_max", "count", float64(maxSessions), false)
	r.add(pfx+"/shard_sessions_min", "count", float64(minSessions), false)
	return nil
}

// contentionLifecycle is one worker-round: a complete tenant life. Per
// round it contributes exactly 7 operations (6 on the final round, which
// keeps its session live so the end-of-run shard occupancy is visible),
// 2 prepared misses (cold prepare + append extension) and 3 hits (warm
// matrix, the append's base-state reuse, matrix on the grown log).
func contentionLifecycle(ctx context.Context, reg *service.Registry, w, round, rounds int, ops, hits, misses *atomic.Int64) error {
	token := dpe.MeasureToken
	s, err := reg.CreateSession(&service.CreateSessionRequest{Measure: &token})
	if err != nil {
		return err
	}
	ops.Add(1)
	log := []string{
		fmt.Sprintf("SELECT c%d FROM t%d WHERE x = %d", w, w, round),
		fmt.Sprintf("SELECT d%d FROM t%d WHERE y = %d", w, w, round),
		fmt.Sprintf("SELECT c%d, d%d FROM t%d", w, w, w),
	}
	logID, err := s.AddLog(log)
	if err != nil {
		return err
	}
	ops.Add(1)
	if _, err := s.Matrix(ctx, logID); err != nil { // cold: miss
		return err
	}
	ops.Add(1)
	if _, err := s.Matrix(ctx, logID); err != nil { // warm: hit
		return err
	}
	ops.Add(1)
	_, _, _, err = s.Append(ctx, logID, []string{fmt.Sprintf("SELECT e%d FROM t%d", round, w)})
	if err != nil { // extension: miss; base-state reuse inside it: hit
		return err
	}
	ops.Add(1)
	combined := append(append([]string(nil), log...), fmt.Sprintf("SELECT e%d FROM t%d", round, w))
	if _, err := s.Matrix(ctx, service.LogID(combined)); err != nil { // grown log: hit
		return err
	}
	ops.Add(1)

	st := s.Stats()
	hits.Add(st.PreparedHits)
	misses.Add(st.PreparedMisses)

	if round < rounds-1 {
		if err := reg.DeleteSession(s.ID()); err != nil {
			return err
		}
		ops.Add(1)
	}
	return nil
}
