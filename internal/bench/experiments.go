package bench

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"time"

	dpe "repro"
	"repro/internal/db"
	"repro/internal/distance"
	"repro/internal/service"
)

// fixtures builds the per-measure experiment substrate lazily and
// caches it, so the engine, append, and service experiments of one run
// share workload generation and artifact encryption.
type fixtures struct {
	cfg Config

	w     *dpe.Workload
	owner *dpe.Owner
	byM   map[dpe.Measure]*measureFixture
}

// measureFixture is everything one measure's experiments need: the
// encrypted log over n+k queries and the encrypted Table I artifacts in
// all three shapes (raw for the engine layer, provider options for the
// facade, session options for the wire) — built from one ciphertext.
type measureFixture struct {
	m          dpe.Measure
	encLog     []string // cfg.Queries + cfg.Append encrypted queries
	arts       distance.Artifacts
	localOpts  []dpe.ProviderOption
	remoteOpts []service.SessionOption
}

func (f *fixtures) measure(m dpe.Measure) (*measureFixture, error) {
	if fx, ok := f.byM[m]; ok {
		return fx, nil
	}
	if f.w == nil {
		w, err := dpe.GenerateWorkload(dpe.WorkloadConfig{
			Seed: f.cfg.Seed, Queries: f.cfg.Queries + f.cfg.Append, Rows: f.cfg.Rows,
			IncludeAggregates: true, IncludeJoins: true,
		})
		if err != nil {
			return nil, err
		}
		owner, err := dpe.NewOwner([]byte("bench:"+f.cfg.Seed), w.Schema, dpe.Config{PaillierBits: f.cfg.PaillierBits})
		if err != nil {
			return nil, err
		}
		if err := owner.DeclareJoins(w.Queries); err != nil {
			return nil, err
		}
		f.w, f.owner = w, owner
	}
	encLog, err := f.owner.EncryptLog(f.w.Queries, m)
	if err != nil {
		return nil, err
	}
	fx := &measureFixture{m: m, encLog: encLog}
	fx.arts = distance.Artifacts{Parallelism: f.cfg.Parallelism}
	switch m {
	case dpe.MeasureResult:
		encCat, err := f.owner.EncryptCatalog(f.w.Catalog)
		if err != nil {
			return nil, err
		}
		agg := f.owner.ResultAggregator()
		fx.arts.Catalog = encCat
		fx.arts.Exec = db.Options{Aggregate: agg}
		fx.localOpts = []dpe.ProviderOption{dpe.WithCatalog(encCat, agg)}
		fx.remoteOpts = []service.SessionOption{service.WithCatalog(encCat, f.owner.ResultAggregatorKey())}
	case dpe.MeasureAccessArea:
		encDomains, err := f.owner.EncryptDomains(f.w.Domains)
		if err != nil {
			return nil, err
		}
		fx.arts.Domains = encDomains
		fx.localOpts = []dpe.ProviderOption{dpe.WithDomains(encDomains)}
		fx.remoteOpts = []service.SessionOption{service.WithDomains(encDomains)}
	}
	if f.byM == nil {
		f.byM = make(map[dpe.Measure]*measureFixture)
	}
	f.byM[m] = fx
	return fx, nil
}

// countingPrepared decorates a prepared log with an atomic
// entry-computation counter — the instrument behind every tracked
// "pairs" metric.
type countingPrepared struct {
	prep  distance.Prepared
	calls atomic.Int64
}

func (c *countingPrepared) Len() int { return c.prep.Len() }

func (c *countingPrepared) Distance(i, j int) (float64, error) {
	c.calls.Add(1)
	return c.prep.Distance(i, j)
}

func (c *countingPrepared) reset() { c.calls.Store(0) }

// timeIt runs fn iters times and reports mean wall-clock ns and heap
// allocations per run. Allocation counts include all goroutines the run
// spawns (the worker pool), which is the number that matters.
func timeIt(iters int, fn func() error) (nsPerOp, allocsPerOp float64, err error) {
	if iters <= 0 {
		iters = 1
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	n := float64(iters)
	return float64(elapsed.Nanoseconds()) / n, float64(m1.Mallocs-m0.Mallocs) / n, nil
}

// assertIdentical fails the experiment when two matrices differ in any
// entry — the harness refuses to report timings for wrong answers.
func assertIdentical(what string, a, b dpe.Matrix) error {
	d, err := distance.MaxAbsDiff(a, b)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if d != 0 {
		return fmt.Errorf("%s: matrices differ, max |Δd| = %g", what, d)
	}
	return nil
}

// runEngine measures full matrix builds per measure, sequential vs the
// worker pool, over one shared prepared state, and pins the
// upper-triangle contract with the entry counter.
func runEngine(ctx context.Context, r *Report, f *fixtures) error {
	n := f.cfg.Queries
	for _, m := range f.cfg.Measures {
		fx, err := f.measure(m)
		if err != nil {
			return err
		}
		metric, err := distance.New(m.String(), fx.arts)
		if err != nil {
			return err
		}
		start := time.Now()
		prep, err := metric.Prepare(ctx, fx.encLog[:n])
		if err != nil {
			return err
		}
		prepareNs := float64(time.Since(start).Nanoseconds())
		counted := &countingPrepared{prep: prep}

		seq, err := distance.BuildMatrix(ctx, n, 1, counted.Distance)
		if err != nil {
			return err
		}
		pairs := float64(counted.calls.Load())

		pfx := "engine/" + m.String()
		r.add(pfx+"/pairs", "pairs/op", pairs, true)
		r.add(pfx+"/prepare", "ns", prepareNs, false)

		seqNs, seqAllocs, err := timeIt(f.cfg.Iterations, func() error {
			_, err := distance.BuildMatrix(ctx, n, 1, prep.Distance)
			return err
		})
		if err != nil {
			return err
		}
		r.add(pfx+"/build_seq", "ns/op", seqNs, false)
		r.add(pfx+"/build_seq_allocs", "allocs/op", seqAllocs, false)

		if f.cfg.Parallelism > 1 {
			par, err := distance.BuildMatrix(ctx, n, f.cfg.Parallelism, prep.Distance)
			if err != nil {
				return err
			}
			if err := assertIdentical(pfx+" parallel vs sequential", seq, par); err != nil {
				return err
			}
			parNs, parAllocs, err := timeIt(f.cfg.Iterations, func() error {
				_, err := distance.BuildMatrix(ctx, n, f.cfg.Parallelism, prep.Distance)
				return err
			})
			if err != nil {
				return err
			}
			r.add(pfx+"/build_par", "ns/op", parNs, false)
			r.add(pfx+"/build_par_allocs", "allocs/op", parAllocs, false)
			r.add(pfx+"/seq_vs_par", "ratio", seqNs/parNs, false)
		}
	}
	return nil
}

// runAppend measures the incremental append path against a from-scratch
// rebuild per measure. The tracked counters are the tentpole's
// acceptance check: the append fan-out computes exactly
// n·k + k·(k−1)/2 entries while the rebuild computes (n+k)·(n+k−1)/2,
// and the two matrices are entry-wise identical.
func runAppend(ctx context.Context, r *Report, f *fixtures) error {
	n, k := f.cfg.Queries, f.cfg.Append
	total := n + k
	for _, m := range f.cfg.Measures {
		fx, err := f.measure(m)
		if err != nil {
			return err
		}
		metric, err := distance.New(m.String(), fx.arts)
		if err != nil {
			return err
		}
		base, tail := fx.encLog[:n], fx.encLog[n:total]
		prepBase, err := metric.Prepare(ctx, base)
		if err != nil {
			return err
		}
		prepAll, err := metric.Extend(ctx, prepBase, tail)
		if err != nil {
			return err
		}
		counted := &countingPrepared{prep: prepAll}

		old, err := distance.BuildMatrix(ctx, n, f.cfg.Parallelism, prepAll.Distance)
		if err != nil {
			return err
		}
		counted.reset()
		appended, err := distance.ExtendMatrix(ctx, old, total, f.cfg.Parallelism, counted.Distance)
		if err != nil {
			return err
		}
		appendPairs := float64(counted.calls.Load())
		counted.reset()
		rebuilt, err := distance.BuildMatrix(ctx, total, f.cfg.Parallelism, counted.Distance)
		if err != nil {
			return err
		}
		rebuildPairs := float64(counted.calls.Load())
		if err := assertIdentical("append vs rebuild ("+m.String()+")", appended, rebuilt); err != nil {
			return err
		}

		pfx := "append/" + m.String()
		r.add(pfx+"/pairs_append", "pairs/op", appendPairs, true)
		r.add(pfx+"/pairs_rebuild", "pairs/op", rebuildPairs, true)
		maxDiff, err := distance.MaxAbsDiff(appended, rebuilt)
		if err != nil {
			return err
		}
		r.add(pfx+"/max_abs_diff", "distance", maxDiff, true)

		// End-to-end timings include each path's preparation share: the
		// append prepares only the k new queries, the rebuild all n+k.
		appendNs, appendAllocs, err := timeIt(f.cfg.Iterations, func() error {
			pl, err := metric.Extend(ctx, prepBase, tail)
			if err != nil {
				return err
			}
			_, err = distance.ExtendMatrix(ctx, old, total, f.cfg.Parallelism, pl.Distance)
			return err
		})
		if err != nil {
			return err
		}
		rebuildNs, rebuildAllocs, err := timeIt(f.cfg.Iterations, func() error {
			pl, err := metric.Prepare(ctx, fx.encLog[:total])
			if err != nil {
				return err
			}
			_, err = distance.BuildMatrix(ctx, total, f.cfg.Parallelism, pl.Distance)
			return err
		})
		if err != nil {
			return err
		}
		r.add(pfx+"/append", "ns/op", appendNs, false)
		r.add(pfx+"/append_allocs", "allocs/op", appendAllocs, false)
		r.add(pfx+"/rebuild", "ns/op", rebuildNs, false)
		r.add(pfx+"/rebuild_allocs", "allocs/op", rebuildAllocs, false)
		r.add(pfx+"/rebuild_vs_append", "ratio", rebuildNs/appendNs, false)
	}
	return nil
}

// runService measures the networked provider per measure against an
// in-process dpeserver: session create (artifacts over the wire), cold
// matrix, warm matrix, and the logs:append round trip. The cache
// hit/miss counters are tracked exactly — they are the observable proof
// that the warm path and the append path reuse prepared state.
func runService(ctx context.Context, r *Report, f *fixtures) error {
	n, k := f.cfg.Queries, f.cfg.Append
	for _, m := range f.cfg.Measures {
		if err := serviceProbe(ctx, r, f, m, n, k); err != nil {
			return err
		}
	}
	return nil
}

// serviceProbe is one measure's service experiment; the per-measure
// server lives exactly as long as this call.
func serviceProbe(ctx context.Context, r *Report, f *fixtures, m dpe.Measure, n, k int) error {
	fx, err := f.measure(m)
	if err != nil {
		return err
	}
	reg := service.NewRegistry(service.Config{Parallelism: f.cfg.Parallelism})
	defer reg.Close()
	srv := httptest.NewServer(service.NewHandler(reg))
	defer srv.Close()
	client := service.NewClient(srv.URL)

	start := time.Now()
	sess, err := client.NewSession(ctx, m, fx.remoteOpts...)
	if err != nil {
		return err
	}
	createNs := float64(time.Since(start).Nanoseconds())

	base, tail := fx.encLog[:n], fx.encLog[n:n+k]
	start = time.Now()
	remote, err := sess.DistanceMatrix(ctx, base)
	if err != nil {
		return err
	}
	coldNs := float64(time.Since(start).Nanoseconds())

	warmNs, _, err := timeIt(f.cfg.WarmCalls, func() error {
		_, err := sess.DistanceMatrix(ctx, base)
		return err
	})
	if err != nil {
		return err
	}

	start = time.Now()
	extended, err := sess.Append(ctx, remote, base, tail)
	if err != nil {
		return err
	}
	appendNs := float64(time.Since(start).Nanoseconds())

	stats, err := sess.Stats(ctx)
	if err != nil {
		return err
	}

	// The wire must not bend the numbers: parity with in-process.
	local, err := dpe.NewProvider(m, append([]dpe.ProviderOption{dpe.WithParallelism(f.cfg.Parallelism)}, fx.localOpts...)...)
	if err != nil {
		return err
	}
	want, err := local.DistanceMatrix(ctx, fx.encLog[:n+k])
	if err != nil {
		return err
	}
	if err := assertIdentical("service append vs in-process ("+m.String()+")", extended, want); err != nil {
		return err
	}

	pfx := "service/" + m.String()
	r.add(pfx+"/session_create", "ns", createNs, false)
	r.add(pfx+"/matrix_cold", "ns", coldNs, false)
	r.add(pfx+"/matrix_warm", "ns/op", warmNs, false)
	r.add(pfx+"/cold_vs_warm", "ratio", coldNs/warmNs, false)
	r.add(pfx+"/append_request", "ns", appendNs, false)
	// One miss for the cold prepare, one for the append's extension. The
	// miss counter is the tracked gate: a broken cache shows up as extra
	// misses. Hits are recorded but not gated — they are
	// higher-is-better, so the lower-is-better threshold would flag a
	// beneficial extra hit as a regression.
	r.add(pfx+"/prepared_misses", "count", float64(stats.PreparedMisses), true)
	r.add(pfx+"/prepared_hits", "count", float64(stats.PreparedHits), false)
	return nil
}
