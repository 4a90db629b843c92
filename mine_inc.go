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
	// ColdFallback reports that the warm path was attempted but
	// internal/mining rejected the warm start, so the algorithm reran
	// cold over the (incrementally extended) matrix: a carried state
	// that does not fit it (for k-medoids, an assignment of the old
	// rows that is not the nearest-medoid one) or a warm k-medoids run
	// that did not converge.
	ColdFallback bool `json:"cold_fallback,omitempty"`
	// OldN is the row count the previous state covered (0 when cold).
	OldN int `json:"old_n"`
	// PairsComputed counts the distance pairs evaluated for the
	// matrix: oldN·k + k·(k−1)/2 warm, plus the oldN·(oldN−1)/2 prefix
	// pairs when the warm state was restored without its matrix; the
	// full n·(n−1)/2 triangle cold; 0 for apriori (which never builds a
	// matrix).
	PairsComputed int64 `json:"pairs_computed"`
	// Examined counts the algorithm's own work as internal/mining
	// returns it: matrix entries read (k-medoids, DBSCAN) or
	// transaction membership scans (apriori); 0 for complete-link,
	// outliers, and kNN. Warm k-medoids reads n·K entries to assign
	// every row to the carried medoids, plus its update steps' reads.
	// A rejected warm start's work is included.
	Examined int64 `json:"examined"`
	// ChangedLabels lists the old rows whose cluster membership
	// changed relative to the previous state, after canonical
	// relabeling (nil for apriori and kNN). New rows are never listed
	// — the caller knows they are new.
	ChangedLabels []int `json:"changed_labels,omitempty"`
}

// MineIncremental mines a prepared log reusing the previous call's
// MineState. When prev covers a prefix of pl under the identical spec,
// only the appended rows' distance pairs are computed (the matrix is
// spliced, stage "mine_delta"; a state restored without its matrix
// first rebuilds the prefix's pairs) and the algorithm warm-starts
// from the prior result; otherwise the cold bootstrap runs (stage "mine",
// identical output to MinePrepared) and captures state. Either way the
// returned result matches a cold Mine over the full log — exactly for
// DBSCAN, Apriori, and the non-warm algorithms, and up to local-optimum
// equivalence (a cost no higher than the warm start's) for warm
// k-medoids — and the returned state serves the next append.
func (p *Provider) MineIncremental(ctx context.Context, pl *PreparedLog, prev *MineState, spec MineSpec) (*MineResult, *MineState, error) {
	n := pl.Len()
	if err := spec.Validate(n); err != nil {
		return nil, nil, err
	}
	if prev != nil && prev.spec == spec && prev.n <= n {
		return p.mineWarm(ctx, pl, prev, spec)
	}
	return p.mineBootstrap(ctx, pl, spec)
}

// mineBootstrap is the cold path: it mines the whole log and captures
// the warm-start state for the next call. MinePrepared is this path
// with the state dropped.
func (p *Provider) mineBootstrap(ctx context.Context, pl *PreparedLog, spec MineSpec) (*MineResult, *MineState, error) {
	defer p.stage(ctx, "mine")()
	stats := &IncrementalStats{}
	var m Matrix
	if spec.Algorithm != MineApriori {
		var err error
		if m, err = p.DistanceMatrixPrepared(ctx, pl); err != nil {
			return nil, nil, err
		}
		n := int64(pl.Len())
		stats.PairsComputed = n * (n - 1) / 2
	}
	return p.mine(pl, m, nil, spec, stats)
}

// mineWarm is the incremental path: extend the carried matrix with the
// appended rows' pairs only, then warm-start the algorithm.
func (p *Provider) mineWarm(ctx context.Context, pl *PreparedLog, prev *MineState, spec MineSpec) (*MineResult, *MineState, error) {
	defer p.stage(ctx, "mine_delta")()
	n, oldN := pl.Len(), prev.n
	stats := &IncrementalStats{Warm: true, OldN: oldN}
	if spec.Algorithm == MineApriori {
		return p.mine(pl, nil, prev, spec, stats)
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
	return p.mine(pl, m, prev, spec, stats)
}

// mine runs spec's algorithm over m (nil for apriori, which mines the
// log's transactions), warm from prev or cold when prev is nil, and
// captures the state for the next call. Whether prev fits is
// internal/mining's decision alone: a warm start it rejects reruns
// cold over the same matrix with ColdFallback set.
func (p *Provider) mine(pl *PreparedLog, m Matrix, prev *MineState, spec MineSpec, stats *IncrementalStats) (*MineResult, *MineState, error) {
	cold := prev == nil
	if cold {
		prev = &MineState{spec: spec}
	}
	res := &MineResult{Matrix: m, Incremental: stats}
	state := &MineState{spec: spec, n: pl.Len(), matrix: m}
	var work int64
	var err error
	switch spec.Algorithm {
	case MineKMedoids:
		if cold {
			state.kmed, work, err = mining.KMedoidsCounted(m, spec.K)
		} else {
			state.kmed, work, err = mining.KMedoidsWarm(m, spec.K, prev.kmed, prev.n)
		}
		res.Clusters = state.kmed
	case MineDBSCAN:
		state.labels, state.adj, work, err = mining.DBSCANAppendGraph(m, spec.Eps, spec.MinPts, prev.adj)
		res.Labels = state.labels
	case MineApriori:
		var txs []mining.Transaction
		if txs, err = p.transactions(pl); err != nil {
			return nil, nil, err
		}
		res.Itemsets, state.counts, work, err = mining.AprioriAppend(txs, prev.n, prev.counts, spec.MinSupport, spec.MaxLen)
	case MineCompleteLink:
		res.Labels, err = mining.CompleteLink(m, spec.K)
		state.labels = res.Labels
	case MineOutliers:
		res.Outliers, err = mining.Outliers(m, spec.P, spec.D)
		state.labels = make([]int, len(res.Outliers))
		for i, o := range res.Outliers {
			if o {
				state.labels[i] = 1
			}
		}
	case MineKNN:
		res.Neighbors, err = mining.KNN(m, spec.Query, spec.K)
	default:
		return nil, nil, fmt.Errorf("dpe: unknown mining algorithm %d", int(spec.Algorithm))
	}
	stats.Examined += work
	if err != nil && !cold {
		stats.ColdFallback = true
		res, state, err = p.mine(pl, m, nil, spec, stats)
	}
	if err != nil {
		return nil, nil, err
	}
	stats.ChangedLabels = changedLabels(prev.partition(), state.partition(), prev.n)
	return res, state, nil
}

// partition is the per-row clustering changedLabels compares: the
// k-medoids assignment, the labels the other clusterings carry, or the
// outlier flags; nil for apriori and kNN.
func (s *MineState) partition() []int {
	if s.spec.Algorithm != MineKMedoids {
		return s.labels
	}
	if s.kmed == nil {
		return nil
	}
	return s.kmed.Assign
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
