package dpe

// Incremental distance-matrix maintenance: under a live service, query
// logs grow — recomputing the full O(n²) ciphertext matrix on every
// append is wasteful when the existing entries cannot change (every
// measure's pairwise distance depends only on the two queries and the
// immutable shared artifacts). The append path prepares only the new
// queries and computes only the n·k + k·(k−1)/2 genuinely new pairs;
// the result is entry-wise identical to a from-scratch build over the
// concatenated log.

import (
	"context"
	"fmt"

	"repro/internal/distance"
)

// ExtendPrepared grows a prepared log with new queries: the metric's
// per-query work (tokenizing, parsing, executing) runs for the new
// queries only, and the result is a prepared log over old ∘ new —
// identical to Prepare over the concatenated log. The input prepared
// log is not modified and stays valid.
func (p *Provider) ExtendPrepared(ctx context.Context, pl *PreparedLog, newQueries []string) (*PreparedLog, error) {
	defer p.stage(ctx, "append_extend")()
	prep, err := p.metric.Extend(ctx, pl.prep, newQueries)
	if err != nil {
		return nil, err
	}
	return &PreparedLog{prep: prep}, nil
}

// AppendRowsPrepared computes the rows a distance matrix gains when a
// prepared log of old entries grows to pl: rows old..pl.Len()-1, each
// of full width pl.Len(). Only the new pairs are computed (old·k +
// k·(k−1)/2 for k = pl.Len()−old); pairs among the first old queries
// never run. This is the service access pattern — the new rows are what
// travels over the wire, the receiver splices them onto its old matrix.
func (p *Provider) AppendRowsPrepared(ctx context.Context, old int, pl *PreparedLog) ([][]float64, error) {
	if old > pl.Len() {
		return nil, fmt.Errorf("dpe: append from %d queries onto a prepared log of %d", old, pl.Len())
	}
	defer p.stage(ctx, "append_rows")()
	return distance.AppendRows(ctx, old, pl.Len(), p.parallelism, pl.prep.Distance)
}

// AppendPrepared extends an old×old matrix to pl.Len()×pl.Len() by
// computing only the new entries; the old block is copied, never
// recomputed. old must be the matrix this provider built over the first
// len(old) queries of pl. The result is entry-wise identical to
// DistanceMatrixPrepared over pl.
func (p *Provider) AppendPrepared(ctx context.Context, old Matrix, pl *PreparedLog) (Matrix, error) {
	if len(old) > pl.Len() {
		return nil, fmt.Errorf("dpe: append from a %d×%d matrix onto a prepared log of %d", len(old), len(old), pl.Len())
	}
	return distance.ExtendMatrix(ctx, old, pl.Len(), p.parallelism, pl.prep.Distance)
}

// Append is the incremental counterpart of DistanceMatrix: given the
// matrix already built for log and k new queries, it returns the
// extended matrix over log ∘ newQueries, computing only the
// len(log)·k + k·(k−1)/2 new entries — entry-wise identical to
// DistanceMatrix over the concatenated log. len(old) must equal
// len(log). The per-query preparation of log runs again here (an
// in-process Provider holds no cache); services that cache prepared
// state use ExtendPrepared + AppendRowsPrepared to skip even that.
func (p *Provider) Append(ctx context.Context, old Matrix, log []string, newQueries []string) (Matrix, error) {
	if len(old) != len(log) {
		return nil, fmt.Errorf("dpe: old matrix has %d rows for a log of %d queries", len(old), len(log))
	}
	pl, err := p.Prepare(ctx, log)
	if err != nil {
		return nil, err
	}
	ext, err := p.ExtendPrepared(ctx, pl, newQueries)
	if err != nil {
		return nil, err
	}
	return p.AppendPrepared(ctx, old, ext)
}

// SpliceMatrixRows assembles the extended matrix from an old n×n matrix
// and the k new full-width rows of AppendRows/the logs:append wire
// response. It is how a client of the service turns "only the new rows"
// back into the full extended matrix.
func SpliceMatrixRows(old Matrix, rows [][]float64) (Matrix, error) {
	return distance.SpliceRows(old, rows)
}
