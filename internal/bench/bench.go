// Package bench is the reproducible benchmark harness: it runs
// paper-style performance experiments against deterministic synthetic
// workloads and emits a versioned machine-readable report
// (BENCH_PR7.json) that CI gates against a committed baseline.
//
// Eight experiments; engine, append, service, recovery, obs, and
// incmine run across the configured measures (all four of Table I by
// default) on encrypted artifacts:
//
//   - engine:  full distance-matrix builds, sequential vs the worker
//     pool, with an entry-computation counter pinning the upper-triangle
//     contract (n·(n−1)/2 pair computations, never more).
//   - append:  the incremental append path vs a from-scratch rebuild.
//     The counter asserts the append computes only n·k + k·(k−1)/2
//     entries; the matrices are checked entry-wise identical.
//   - service: request latency against an in-process dpeserver — session
//     create, cold matrix (upload + prepare + build), warm matrix
//     (prepared-cache hit), and the logs:append round trip — with the
//     cache hit/miss counters tracked exactly.
//   - contention: P goroutines churning whole tenant lifecycles
//     (create/upload/matrix/append/delete) against one sharded
//     registry. Operation and cache-hit/miss totals are deterministic
//     and tracked; throughput is recorded untracked — the number that
//     shows the sharding win on multi-core hardware.
//   - recovery: a persistent multi-shard registry is populated (one
//     tenant per measure with warm prepared state), closed, and
//     reopened from its segment journals on a temp directory. The
//     replayed-record counts, the post-restart cache misses (zero),
//     and the matrix mismatches (zero) are tracked; the cold vs
//     warm-recovered first-request latencies are recorded untracked.
//   - obs: a fully instrumented server (journal, registry, HTTP
//     middleware metrics) serves a scripted workload, and the /metrics
//     scrape is reconciled against the script and GET /v1/stats: the
//     request count, prepare-stage samples, and journal appends are
//     closed-form tracked counters, and the stats-vs-metrics mismatch
//     count must be zero.
//   - hotpath: the kernel microbenchmark — every measure's interned
//     bitset kernel vs the legacy map kernel over a fixed n=256
//     plaintext matrix, plus Paillier CRT decryption and fixed-base
//     encryption vs their textbook paths. The pair counters and the
//     entry/plaintext mismatch counts (zero) are tracked exactly; the
//     fast/slow time ratios are tracked through a clamp (the bitset
//     kernel must stay ≥2x faster, the crypto fast paths must not fall
//     behind textbook) so noise below the threshold can never flake
//     the gate — the harness's only gated wall-clock-derived numbers.
//   - incmine: incremental mining maintenance — per measure and
//     algorithm (k-medoids, DBSCAN, and apriori on the set measures), a
//     MineState is bootstrapped over the base log and MineIncremental
//     runs warm over the appended log vs a cold mine of the combined
//     log. The warm work counters (distance pairs, or transaction
//     scans for apriori) must be strictly below cold, and the DBSCAN
//     label mismatches after canonical relabeling (zero), the apriori
//     itemset mismatches (zero), and the k-medoids cold-fallback
//     count (zero) are tracked exactly.
//
// Wall-clock metrics are recorded but never gated (they vary across
// machines); only deterministic counters are marked Tracked and
// compared by Compare.
package bench

import (
	"context"
	"fmt"
	"runtime"

	dpe "repro"
)

// Config sizes the harness workloads. The zero value is usable: every
// field has a default.
type Config struct {
	// Seed makes the synthetic workload deterministic; "" means
	// "bench-42".
	Seed string `json:"seed"`
	// Queries is the base log size n; 0 means 48.
	Queries int `json:"queries"`
	// Append is the appended log size k; 0 means 8.
	Append int `json:"append"`
	// Rows per generated table; 0 means 80.
	Rows int `json:"rows"`
	// PaillierBits sizes the owner's HOM keys; 0 means 512.
	PaillierBits int `json:"paillier_bits"`
	// Parallelism sizes the worker pool of the parallel runs; 0 means
	// all cores.
	Parallelism int `json:"parallelism"`
	// WarmCalls is how many warm repetitions the service experiment
	// averages; 0 means 5.
	WarmCalls int `json:"warm_calls"`
	// Iterations per timed operation; 0 means 3.
	Iterations int `json:"iterations"`
	// Measures to run; empty means all four.
	Measures []dpe.Measure `json:"measures"`
}

func (c Config) withDefaults() Config {
	if c.Seed == "" {
		c.Seed = "bench-42"
	}
	if c.Queries <= 0 {
		c.Queries = 48
	}
	if c.Append <= 0 {
		c.Append = 8
	}
	if c.Rows <= 0 {
		c.Rows = 80
	}
	if c.PaillierBits <= 0 {
		c.PaillierBits = 512
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.NumCPU()
	}
	if c.WarmCalls <= 0 {
		c.WarmCalls = 5
	}
	if c.Iterations <= 0 {
		c.Iterations = 3
	}
	if len(c.Measures) == 0 {
		c.Measures = []dpe.Measure{dpe.MeasureToken, dpe.MeasureStructure, dpe.MeasureResult, dpe.MeasureAccessArea}
	}
	return c
}

// ShortConfig is the CI smoke shape: small enough that the whole suite
// runs in seconds, large enough that every tracked counter is
// meaningful.
func ShortConfig() Config {
	return Config{Queries: 10, Append: 4, Rows: 24, WarmCalls: 2, Iterations: 1}
}

// Experiments lists the harness experiments in run order.
func Experiments() []string {
	return []string{"engine", "append", "service", "contention", "recovery", "obs", "hotpath", "incmine"}
}

// Run executes the named experiments ("all" or nil means every one) and
// returns the report. The context cancels mid-experiment work.
func Run(ctx context.Context, names []string, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	selected := map[string]bool{}
	if len(names) == 0 {
		selected["all"] = true
	}
	for _, n := range names {
		selected[n] = true
	}
	known := map[string]func(context.Context, *Report, *fixtures) error{
		"engine":     runEngine,
		"append":     runAppend,
		"service":    runService,
		"contention": runContention,
		"recovery":   runRecovery,
		"obs":        runObs,
		"hotpath":    runHotpath,
		"incmine":    runIncMine,
	}
	for n := range selected {
		if n != "all" {
			if _, ok := known[n]; !ok {
				return nil, fmt.Errorf("bench: unknown experiment %q (want engine|append|service|contention|recovery|obs|hotpath|incmine|all)", n)
			}
		}
	}
	r := &Report{
		Schema:    SchemaVersion,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Config:    cfg,
	}
	fx := &fixtures{cfg: cfg}
	for _, name := range Experiments() {
		if !selected["all"] && !selected[name] {
			continue
		}
		if err := known[name](ctx, r, fx); err != nil {
			return nil, fmt.Errorf("bench: experiment %s: %w", name, err)
		}
	}
	return r, nil
}
