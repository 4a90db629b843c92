package dpe

// Incremental mining maintenance: under a live service the log grows,
// and PR 3's append path already extends the distance matrix in
// O(n·k) — but Mine still recomputed every clustering from scratch.
// MineIncremental closes that gap: it carries a MineState from run to
// run, extends the cached matrix with only the genuinely new pairs,
// and warm-starts the algorithm from the previous result (k-medoids
// from the prior medoids, DBSCAN by eps-graph repair, Apriori by
// support-count deltas). A nil or mismatched state runs the same cold
// bootstrap Mine would and captures fresh state, so the call is always
// safe; the deterministic counters in IncrementalStats are what the
// bench harness gates the savings on.

import (
	"context"
	"fmt"

	"repro/internal/distance"
	"repro/internal/mining"
)

// MineState is the carried state of incremental mining over one
// (log, spec) pair: the distance matrix over the rows mined so far
// plus the algorithm's warm-start structure. It is immutable once
// returned — MineIncremental extends copies, never the state itself —
// so a service can cache it and serve concurrent readers. A MineState
// is only meaningful with the Provider and log prefix it was mined
// from. A state restored by UnmarshalMineState carries no matrix;
// MineIncremental rebuilds it from the prepared log on each warm use.
type MineState struct {
	spec   MineSpec
	n      int
	matrix Matrix                 // distance-based algorithms; nil for apriori and restored states
	kmed   *mining.KMedoidsResult // k-medoids warm start
	adj    [][]int                // dbscan eps-neighborhood graph
	labels []int                  // prior labels (dbscan, complete-link) or 0/1 outlier flags
	counts map[string]int         // apriori carried candidate supports
}

// Spec returns the mining spec the state was built under. A state only
// warm-starts a call with the identical spec.
func (s *MineState) Spec() MineSpec { return s.spec }

// Len is the number of log rows the state covers.
func (s *MineState) Len() int { return s.n }

// SizeBytes estimates the memory the state retains, for cache byte
// budgets.
func (s *MineState) SizeBytes() int64 {
	total := int64(128)
	if s.matrix != nil {
		total += int64(s.n)*int64(s.n)*8 + int64(s.n)*24
	}
	if s.kmed != nil {
		total += int64(len(s.kmed.Medoids)+len(s.kmed.Assign))*8 + 48
	}
	for _, row := range s.adj {
		total += int64(len(row))*8 + 24
	}
	total += int64(len(s.labels)) * 8
	for k := range s.counts {
		total += int64(len(k)) + 32
	}
	return total
}

// IncrementalStats reports how a MineIncremental call arrived at its
// result. PairsComputed and Examined are deterministic work counters —
// the numbers the incmine bench experiment gates.
type IncrementalStats struct {
	// Warm reports whether the previous state was reused (matrix
	// extended, algorithm warm-started). False means the cold
	// bootstrap ran: no state, a different spec, or a shrunk log.
	Warm bool `json:"warm"`
	// ColdFallback reports that the warm path was attempted but the
	// algorithm fell back to a cold run over the (incrementally
	// extended) matrix — a rejected warm state or a cost regression.
	ColdFallback bool `json:"cold_fallback,omitempty"`
	// OldN is the row count the previous state covered (0 when cold).
	OldN int `json:"old_n"`
	// PairsComputed counts the distance pairs evaluated for the
	// matrix: oldN·k + k·(k−1)/2 warm, plus the oldN·(oldN−1)/2 prefix
	// pairs when the warm state was restored without its matrix; the
	// full n·(n−1)/2 triangle cold; 0 for apriori (which never builds a
	// matrix).
	PairsComputed int64 `json:"pairs_computed"`
	// Examined counts the algorithm's own work: matrix entries read
	// (k-medoids, DBSCAN) or transaction membership scans (apriori).
	Examined int64 `json:"examined"`
	// ChangedLabels lists the old rows whose cluster membership
	// changed relative to the previous state, after canonical
	// relabeling (nil for apriori and kNN). New rows are never listed
	// — the caller knows they are new.
	ChangedLabels []int `json:"changed_labels,omitempty"`
}

// warmCostTolerance is the relative cost-regression guard of the warm
// k-medoids path: the alternation is non-increasing, so a warm cost
// above the warm-start cost (extending the prior assignment to the new
// rows) beyond this slack means the carried state was inconsistent
// with the matrix, and the call falls back to a cold run.
const warmCostTolerance = 1e-9

// MineIncremental mines a prepared log reusing the previous call's
// MineState. When prev covers a prefix of pl under the identical spec,
// only the appended rows' distance pairs are computed (the matrix is
// spliced, stage "mine_delta"; a state restored without its matrix
// first rebuilds the prefix's pairs) and the algorithm warm-starts
// from the prior result; otherwise the cold bootstrap runs (stage "mine",
// identical output to MinePrepared) and captures state. Either way the
// returned result matches a cold Mine over the full log — exactly for
// DBSCAN, Apriori, and the non-warm algorithms, and up to local-optimum
// equivalence (cost within tolerance) for warm k-medoids — and the
// returned state serves the next append. Approximate specs are
// rejected: the approximate path maintains its own index.
func (p *Provider) MineIncremental(ctx context.Context, pl *PreparedLog, prev *MineState, spec MineSpec) (*MineResult, *MineState, error) {
	n := pl.Len()
	if err := spec.Validate(n); err != nil {
		return nil, nil, err
	}
	if spec.Approximate {
		return nil, nil, fmt.Errorf("dpe: incremental mining is exact; approximate specs run via MinePreparedIndexed")
	}
	if prev != nil && prev.spec == spec && prev.n <= n {
		return p.mineWarm(ctx, pl, prev, spec)
	}
	return p.mineBootstrap(ctx, pl, spec)
}

// mineBootstrap is the cold path: the same work MinePrepared does,
// plus capturing the warm-start state for the next call.
func (p *Provider) mineBootstrap(ctx context.Context, pl *PreparedLog, spec MineSpec) (*MineResult, *MineState, error) {
	defer p.stage(ctx, "mine")()
	n := pl.Len()
	res := &MineResult{Incremental: &IncrementalStats{}}
	state := &MineState{spec: spec, n: n}

	if spec.Algorithm == MineApriori {
		txs, err := p.transactions(pl)
		if err != nil {
			return nil, nil, err
		}
		sets, counts, stats, err := mining.AprioriAppend(txs, 0, nil, spec.MinSupport, spec.MaxLen)
		if err != nil {
			return nil, nil, err
		}
		res.Itemsets = sets
		res.Incremental.Examined = stats.TxScans
		state.counts = counts
		return res, state, nil
	}

	m, err := p.DistanceMatrixPrepared(ctx, pl)
	if err != nil {
		return nil, nil, err
	}
	res.Matrix = m
	res.Incremental.PairsComputed = int64(n) * int64(n-1) / 2
	state.matrix = m
	if err := p.mineCold(m, spec, res, state, res.Incremental); err != nil {
		return nil, nil, err
	}
	return res, state, nil
}

// mineCold runs the algorithm from scratch over a (possibly
// incrementally extended) matrix, filling result and state.
func (p *Provider) mineCold(m Matrix, spec MineSpec, res *MineResult, state *MineState, stats *IncrementalStats) error {
	switch spec.Algorithm {
	case MineKMedoids:
		clusters, reads, err := mining.KMedoidsCounted(m, spec.K)
		if err != nil {
			return err
		}
		res.Clusters, state.kmed = clusters, clusters
		stats.Examined += reads
	case MineDBSCAN:
		adj, reads, err := mining.EpsGraph(m, spec.Eps)
		if err != nil {
			return err
		}
		labels, err := mining.DBSCANGraph(len(m), adj, spec.MinPts)
		if err != nil {
			return err
		}
		res.Labels, state.adj, state.labels = labels, adj, labels
		stats.Examined += reads
	case MineCompleteLink:
		labels, err := mining.CompleteLink(m, spec.K)
		if err != nil {
			return err
		}
		res.Labels, state.labels = labels, labels
	case MineOutliers:
		out, err := mining.Outliers(m, spec.P, spec.D)
		if err != nil {
			return err
		}
		res.Outliers = out
		state.labels = make([]int, len(out))
		for i, o := range out {
			if o {
				state.labels[i] = 1
			}
		}
	case MineKNN:
		nb, err := mining.KNN(m, spec.Query, spec.K)
		if err != nil {
			return err
		}
		res.Neighbors = nb
	default:
		return fmt.Errorf("dpe: unknown mining algorithm %d", int(spec.Algorithm))
	}
	return nil
}

// mineWarm is the incremental path: extend the carried matrix with the
// appended rows' pairs only, then warm-start the algorithm.
func (p *Provider) mineWarm(ctx context.Context, pl *PreparedLog, prev *MineState, spec MineSpec) (*MineResult, *MineState, error) {
	defer p.stage(ctx, "mine_delta")()
	n, oldN := pl.Len(), prev.n
	res := &MineResult{Incremental: &IncrementalStats{Warm: true, OldN: oldN}}
	state := &MineState{spec: spec, n: n}
	stats := res.Incremental

	if spec.Algorithm == MineApriori {
		txs, err := p.transactions(pl)
		if err != nil {
			return nil, nil, err
		}
		sets, counts, aps, err := mining.AprioriAppend(txs, oldN, prev.counts, spec.MinSupport, spec.MaxLen)
		if err != nil {
			return nil, nil, err
		}
		res.Itemsets = sets
		stats.Examined = aps.TxScans
		state.counts = counts
		return res, state, nil
	}

	base := prev.matrix
	if base == nil {
		// A state restored from the journal carries no matrix: rebuild
		// the prefix's block from the call's prepared log. It stays with
		// this call; prev may be a cached state shared by other readers.
		var err error
		if base, err = distance.BuildMatrix(ctx, oldN, p.parallelism, pl.prep.Distance); err != nil {
			return nil, nil, err
		}
		stats.PairsComputed = int64(oldN) * int64(oldN-1) / 2
	}
	if len(base) != oldN {
		return nil, nil, fmt.Errorf("dpe: mining state carries a %d-row matrix for %d rows", len(base), oldN)
	}
	rows, err := p.AppendRowsPrepared(ctx, oldN, pl)
	if err != nil {
		return nil, nil, err
	}
	m, err := SpliceMatrixRows(base, rows)
	if err != nil {
		return nil, nil, err
	}
	k := n - oldN
	stats.PairsComputed += int64(oldN)*int64(k) + int64(k)*int64(k-1)/2
	res.Matrix = m
	state.matrix = m

	switch spec.Algorithm {
	case MineKMedoids:
		clusters, ws, werr := mining.KMedoidsWarm(m, spec.K, prev.kmed, oldN)
		if werr == nil && prev.kmed != nil {
			// Cost-regression guard: extending the prior assignment to
			// the new rows bounds what the warm optimum may cost.
			var probe int64
			assign := make([]int, n)
			copy(assign, prev.kmed.Assign)
			start := prev.kmed.Cost + kmedoidsAssignCost(m, prev.kmed.Medoids, assign, oldN, n, &probe)
			stats.Examined += probe
			if clusters.Cost > start*(1+warmCostTolerance)+warmCostTolerance {
				werr = fmt.Errorf("dpe: warm k-medoids cost %v regressed past warm-start cost %v", clusters.Cost, start)
			}
		}
		if werr != nil {
			stats.ColdFallback = true
			if err := p.mineCold(m, spec, res, state, stats); err != nil {
				return nil, nil, err
			}
		} else {
			res.Clusters, state.kmed = clusters, clusters
			stats.Examined += ws.Reads
		}
		if prev.kmed != nil && res.Clusters != nil {
			stats.ChangedLabels = changedLabels(prev.kmed.Assign, res.Clusters.Assign, oldN)
		}
	case MineDBSCAN:
		labels, adj, ds, derr := mining.DBSCANAppendGraph(m, spec.Eps, spec.MinPts, prev.adj)
		if derr != nil {
			stats.ColdFallback = true
			if err := p.mineCold(m, spec, res, state, stats); err != nil {
				return nil, nil, err
			}
		} else {
			res.Labels, state.adj, state.labels = labels, adj, labels
			stats.Examined += ds.PairsRead
		}
		stats.ChangedLabels = changedLabels(prev.labels, res.Labels, oldN)
	default:
		// Complete-link, outliers, and kNN have no warm-start
		// structure; the incrementally extended matrix is the whole
		// saving, the algorithm reruns cold.
		if err := p.mineCold(m, spec, res, state, stats); err != nil {
			return nil, nil, err
		}
		switch spec.Algorithm {
		case MineCompleteLink:
			stats.ChangedLabels = changedLabels(prev.labels, res.Labels, oldN)
		case MineOutliers:
			stats.ChangedLabels = changedLabels(prev.labels, state.labels, oldN)
		}
	}
	return res, state, nil
}

// kmedoidsAssignCost mirrors the mining package's warm-start
// assignment (nearest medoid, lowest index wins ties) to price the
// warm-start cost bound without exporting internals.
func kmedoidsAssignCost(m Matrix, medoids, assign []int, lo, hi int, reads *int64) float64 {
	cost := 0.0
	for i := lo; i < hi; i++ {
		best, bestD := 0, -1.0
		for c, med := range medoids {
			if d := m[i][med]; bestD < 0 || d < bestD {
				best, bestD = c, d
			}
		}
		assign[i] = best
		cost += bestD
	}
	*reads += int64(hi-lo) * int64(len(medoids))
	return cost
}

// changedLabels lists the rows < oldN whose cluster changed between
// two labelings, compared after canonical (first-occurrence)
// relabeling so renumbered-but-identical partitions report no change.
func changedLabels(prev, next []int, oldN int) []int {
	if prev == nil || next == nil {
		return nil
	}
	cp, cn := mining.CanonicalLabels(prev), mining.CanonicalLabels(next)
	var out []int
	for i := 0; i < oldN && i < len(cp) && i < len(cn); i++ {
		if cp[i] != cn[i] {
			out = append(out, i)
		}
	}
	return out
}

// transactions renders each prepared query's element set as one
// Apriori transaction — experiment E6's idiom, served straight from
// the interned dictionary (and therefore from restored snapshots too).
func (p *Provider) transactions(pl *PreparedLog) ([]mining.Transaction, error) {
	src, ok := pl.prep.(distance.ItemSource)
	if !ok {
		return nil, fmt.Errorf("dpe: measure %s does not support itemset mining (its prepared state has no element sets)", p.measure)
	}
	n := src.Len()
	txs := make([]mining.Transaction, n)
	var buf []string
	for i := 0; i < n; i++ {
		buf = src.AppendItems(buf[:0], i)
		tx := make(mining.Transaction, len(buf))
		for _, it := range buf {
			tx[it] = true
		}
		txs[i] = tx
	}
	return txs, nil
}
