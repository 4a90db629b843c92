package bench

import (
	"context"
	"fmt"
	"time"

	dpe "repro"
	"repro/internal/mining"
)

// runIncMine gates the incremental mining maintenance path: per measure
// and per algorithm it bootstraps a MineState over the base log, runs
// MineIncremental over the appended log warm, runs the same mine cold,
// and compares. The tracked counters are the tentpole's acceptance
// check: the warm run computes exactly n·k + k·(k−1)/2 distance pairs
// (or, for apriori, strictly fewer transaction scans) while the cold
// run pays the full triangle, and the results agree — DBSCAN labels
// identical after canonical relabeling, itemsets identical, matrices
// identical, and the warm k-medoids run never falling back cold (see
// incMineProbe for why k-medoids gates on its fallback guarantee
// rather than label equality). The experiment hard-fails on any
// disagreement; the counters are also tracked so CI catches a
// silently-degraded delta path.
func runIncMine(ctx context.Context, r *Report, f *fixtures) error {
	n, k := f.cfg.Queries, f.cfg.Append
	total := n + k
	for _, m := range f.cfg.Measures {
		fx, err := f.measure(m)
		if err != nil {
			return err
		}
		provider, err := dpe.NewProvider(m, append([]dpe.ProviderOption{dpe.WithParallelism(f.cfg.Parallelism)}, fx.localOpts...)...)
		if err != nil {
			return err
		}
		plBase, err := provider.Prepare(ctx, fx.encLog[:n])
		if err != nil {
			return err
		}
		plAll, err := provider.ExtendPrepared(ctx, plBase, fx.encLog[n:total])
		if err != nil {
			return err
		}
		specs := []dpe.MineSpec{
			{Algorithm: dpe.MineKMedoids, K: 3},
			{Algorithm: dpe.MineDBSCAN, Eps: 0.35, MinPts: 3},
		}
		if m != dpe.MeasureAccessArea {
			// Apriori mines the set-based measures' element sets; the
			// access-area prepared state holds intervals, not items.
			specs = append(specs, dpe.MineSpec{Algorithm: dpe.MineApriori, MinSupport: 3, MaxLen: 3})
		}
		for _, spec := range specs {
			if err := incMineProbe(ctx, r, provider, plBase, plAll, m, spec); err != nil {
				return err
			}
		}
	}
	return nil
}

// incMineProbe runs one (measure, spec) warm-vs-cold comparison.
func incMineProbe(ctx context.Context, r *Report, provider *dpe.Provider, plBase, plAll *dpe.PreparedLog, m dpe.Measure, spec dpe.MineSpec) error {
	pfx := "incmine/" + m.String() + "/" + spec.Algorithm.String()

	// Bootstrap the state over the base log, then mine the appended log
	// twice: warm from the state, cold from nothing.
	bootRes, state, err := provider.MineIncremental(ctx, plBase, nil, spec)
	if err != nil {
		return err
	}
	start := time.Now()
	incRes, _, err := provider.MineIncremental(ctx, plAll, state, spec)
	if err != nil {
		return err
	}
	incNs := float64(time.Since(start).Nanoseconds())
	start = time.Now()
	coldRes, _, err := provider.MineIncremental(ctx, plAll, nil, spec)
	if err != nil {
		return err
	}
	coldNs := float64(time.Since(start).Nanoseconds())

	inc, cold := incRes.Incremental, coldRes.Incremental
	if !inc.Warm {
		return fmt.Errorf("%s: incremental run was not warm", pfx)
	}
	if spec.Algorithm != dpe.MineApriori {
		// A warm DBSCAN run holds only the rows it appended: splice them
		// onto the base matrix, as a client does, and check the whole.
		warmM := incRes.Matrix
		if warmM == nil {
			if warmM, err = dpe.SpliceMatrixRows(bootRes.Matrix, incRes.Rows); err != nil {
				return fmt.Errorf("%s: splice the warm rows: %w", pfx, err)
			}
		}
		if err := assertIdentical(pfx+" warm vs cold matrix", warmM, coldRes.Matrix); err != nil {
			return err
		}
	}

	// The work counters: distance pairs for the matrix algorithms,
	// transaction scans for apriori. Warm must be strictly cheaper.
	workInc, workCold, workUnit := float64(inc.PairsComputed), float64(cold.PairsComputed), "pairs/op"
	if spec.Algorithm == dpe.MineApriori {
		workInc, workCold, workUnit = float64(inc.Examined), float64(cold.Examined), "scans/op"
	}
	if workInc >= workCold {
		return fmt.Errorf("%s: incremental work %g not below cold %g", pfx, workInc, workCold)
	}
	r.add(pfx+"/work_incremental", workUnit, workInc, true)
	r.add(pfx+"/work_cold", workUnit, workCold, true)

	// Result agreement. DBSCAN label repair and apriori support deltas
	// are exact by construction, so their mismatch counts (after
	// canonical relabeling) are tracked and must be zero. Warm
	// k-medoids converges to a valid local optimum that may differ
	// from cold PAM's on arbitrary data — it only guarantees a cost no
	// higher than its warm start's, and falls back cold when the
	// carried assignment is not the nearest-medoid one; the facade
	// property test pins exact label equality on separated workloads —
	// so here the tracked gate is that a state the provider mined
	// itself is accepted (zero cold fallbacks), and the warm-vs-cold
	// cost ratio and label drift are recorded untracked.
	mismatches := -1.0
	switch spec.Algorithm {
	case dpe.MineKMedoids:
		fallback := 0.0
		if inc.ColdFallback {
			fallback = 1
		}
		r.add(pfx+"/cold_fallbacks", "count", fallback, true)
		r.add(pfx+"/warm_vs_cold_cost", "ratio", incRes.Clusters.Cost/coldRes.Clusters.Cost, false)
		r.add(pfx+"/label_mismatches", "count", float64(labelMismatches(incRes.Clusters.Assign, coldRes.Clusters.Assign)), false)
	case dpe.MineDBSCAN:
		mismatches = float64(labelMismatches(incRes.Labels, coldRes.Labels))
	case dpe.MineApriori:
		mismatches = 0
		if !mining.EqualItemsets(incRes.Itemsets, coldRes.Itemsets) {
			mismatches = 1
		}
		r.add(pfx+"/itemsets", "count", float64(len(incRes.Itemsets)), false)
	}
	if mismatches >= 0 {
		r.add(pfx+"/mismatches", "count", mismatches, true)
		if mismatches != 0 {
			return fmt.Errorf("%s: warm result disagrees with cold (%g mismatches)", pfx, mismatches)
		}
	}

	r.add(pfx+"/mine_incremental", "ns", incNs, false)
	r.add(pfx+"/mine_cold", "ns", coldNs, false)
	r.add(pfx+"/cold_vs_incremental", "ratio", coldNs/incNs, false)
	return nil
}

// labelMismatches counts positions where two clusterings disagree after
// canonically renumbering each side's clusters by first appearance
// (noise labels, < 0, are kept as-is): cluster ids are BFS-discovery
// artifacts, and a pure renumbering should count as zero disagreement.
func labelMismatches(a, b []int) int {
	ca, cb := mining.CanonicalLabels(a), mining.CanonicalLabels(b)
	miss := 0
	for i := range ca {
		if ca[i] != cb[i] {
			miss++
		}
	}
	return miss
}
