package dpe

// Incremental mining maintenance: under a live service the log grows,
// and PR 3's append path already extends the distance matrix in
// O(n·k) — but Mine still recomputed every clustering from scratch.
// MineIncremental closes that gap: it carries a MineState from run to
// run, computes only the appended rows' genuinely new pairs, and
// warm-starts the algorithm from the previous result (k-medoids from
// the prior medoids, DBSCAN by eps-graph repair, Apriori by
// support-count deltas). DBSCAN reads only those rows, so its state
// carries the eps-graph and no matrix, and a warm DBSCAN run stays
// O(n·k + edges) in time and memory; the algorithms that read old
// pairs splice the rows onto the carried matrix. A nil or mismatched
// state runs the same cold bootstrap Mine would and captures fresh
// state, so the call is always safe; the deterministic counters in
// IncrementalStats are what the bench harness gates the savings on.

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/distance"
	"repro/internal/mining"
)

// MineState is the carried state of incremental mining over one
// (log, spec) pair: the algorithm's warm-start structure and, for the
// algorithms that read old pairs (k-medoids, complete-link, outliers,
// kNN), the distance matrix over the rows mined so far. A DBSCAN state
// is the eps-graph and the labels alone, O(n + edges). It is immutable
// once returned — MineIncremental extends copies, never the state
// itself — so a service can cache it and serve concurrent readers. A
// MineState is only meaningful with the Provider and log prefix it was
// mined from. Only a k-medoids state persists (MarshalMineState);
// decoded, it carries no matrix, and MineIncremental builds the matrix
// whole from the prepared log on each warm use, where internal/mining
// checks the carried assignment against it before the start is
// trusted.
type MineState struct {
	spec   MineSpec
	n      int
	matrix Matrix                 // algorithms that read old pairs; nil for dbscan, apriori and decoded states
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
	// Warm reports whether the previous state was reused (algorithm
	// warm-started). False means the cold bootstrap ran: no state, a
	// different spec, or a shrunk log.
	Warm bool `json:"warm"`
	// ColdFallback reports that the warm path was attempted but
	// internal/mining rejected the warm start, so the algorithm reran
	// cold over the same matrix: a carried k-medoids assignment of the
	// old rows that is not the nearest-medoid one, or a warm k-medoids
	// run that did not converge. The run then reports what a cold run
	// reports: no ChangedLabels.
	ColdFallback bool `json:"cold_fallback,omitempty"`
	// OldN is the row count the previous state covered (0 when cold).
	OldN int `json:"old_n"`
	// PairsComputed counts the distance pairs the mining run evaluated:
	// oldN·k + k·(k−1)/2 warm from a state this process mined; the full
	// n·(n−1)/2 triangle warm from a decoded state, which carries no
	// matrix, and cold; 0 for apriori (which never builds a matrix).
	// A zero-delta replay of a warm DBSCAN append counts 0 even when
	// its caller computes the appended rows beside the run to answer
	// with them (the service's append_mine does).
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
// the algorithm warm-starts from the prior result (stage "mine_delta"):
// only the appended rows' distance pairs are computed. DBSCAN extends
// its carried eps-graph from those rows alone, so the result's Matrix
// is nil and its Rows hold them; the other distance-based algorithms
// splice them onto prev's matrix, or, from a decoded state, which
// carries none, build the whole matrix. Otherwise the cold bootstrap
// runs (stage "mine", identical output to MinePrepared, Matrix set)
// and captures state. Either way the returned result matches a cold
// Mine over the full log — exactly for DBSCAN, Apriori, and the
// non-warm algorithms, and up to local-optimum equivalence (a cost no
// higher than the warm start's) for warm k-medoids — and the returned
// state serves the next append.
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
	return p.mine(pl, m, nil, nil, spec, stats)
}

// mineWarm is the incremental path: compute the appended rows, then
// warm-start the algorithm. DBSCAN reads those rows alone. The other
// distance-based algorithms read old pairs too: a state this process
// mined carries the matrix over its rows, so the appended rows are
// spliced on, and with none appended the carried matrix serves as is;
// a decoded state carries none, so the whole matrix is built from pl.
// Nothing is written back into prev, which may be a cached state
// shared by other readers.
func (p *Provider) mineWarm(ctx context.Context, pl *PreparedLog, prev *MineState, spec MineSpec) (*MineResult, *MineState, error) {
	defer p.stage(ctx, "mine_delta")()
	n, oldN := int64(pl.Len()), int64(prev.n)
	stats := &IncrementalStats{Warm: true, OldN: prev.n}
	var m, rows Matrix
	var err error
	switch {
	case spec.Algorithm == MineApriori:
	case prev.matrix == nil && spec.Algorithm != MineDBSCAN:
		if m, err = p.DistanceMatrixPrepared(ctx, pl); err != nil {
			return nil, nil, err
		}
		stats.PairsComputed = n * (n - 1) / 2
	case n == oldN:
		m = prev.matrix // nil for DBSCAN, whose graph needs no rows
	default:
		if rows, err = p.AppendRowsPrepared(ctx, prev.n, pl); err != nil {
			return nil, nil, err
		}
		k := n - oldN
		stats.PairsComputed = oldN*k + k*(k-1)/2
		if spec.Algorithm != MineDBSCAN {
			if m, err = SpliceMatrixRows(prev.matrix, rows); err != nil {
				return nil, nil, err
			}
		}
	}
	return p.mine(pl, m, rows, prev, spec, stats)
}

// mine runs spec's algorithm, warm from prev or cold when prev is nil,
// and captures the state for the next call. m is the matrix over pl
// (nil for apriori, which mines the log's transactions, and for warm
// DBSCAN); rows are the appended rows a warm run computed, which warm
// DBSCAN reads instead of m. Whether prev fits is internal/mining's
// decision alone: a k-medoids warm start it rejects reruns cold over
// the same matrix with ColdFallback set. The DBSCAN graph and apriori
// counts are trusted as carried, which is sound because only this
// process builds them (no decoded state carries either), so their
// errors are the call's own.
func (p *Provider) mine(pl *PreparedLog, m, rows Matrix, prev *MineState, spec MineSpec, stats *IncrementalStats) (*MineResult, *MineState, error) {
	cold := prev == nil
	if cold {
		prev = &MineState{spec: spec}
	}
	res := &MineResult{Matrix: m, Rows: rows, Incremental: stats}
	state := &MineState{spec: spec, n: pl.Len()}
	if spec.Algorithm != MineDBSCAN {
		state.matrix = m
	}
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
		appended := rows
		if cold {
			appended = m // a cold run appends every row
		}
		state.labels, state.adj, work, err = mining.DBSCANAppendGraph(appended, spec.Eps, spec.MinPts, prev.adj)
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
	if err != nil && !cold && spec.Algorithm == MineKMedoids {
		// The rejected start's labels were never checked, so the
		// fallback reports ChangedLabels as any cold run does: none.
		stats.ColdFallback = true
		return p.mine(pl, m, rows, nil, spec, stats)
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
// Apriori refuses a NUL byte in an item, so an item that holds one is
// Go-quoted (strconv.Quote): every result tuple, whose key ends each
// column with a NUL, and a token or feature whose literal holds one.
// The rule is injective, as a quoted item starts with '"' and no token
// or feature does.
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
			if strings.IndexByte(it, 0) >= 0 {
				it = strconv.Quote(it)
			}
			tx[it] = true
		}
		txs[i] = tx
	}
	return txs, nil
}
