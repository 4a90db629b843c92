package dpe

import (
	"context"
	"fmt"

	"repro/internal/approx"
	"repro/internal/distance"
	"repro/internal/mining"
)

// ApproxIndex is a MinHash/LSH index over a prepared log — the
// candidate-generation structure of internal/approx. Neighbors does not
// use it: the exact row scan is cheaper on every workload shape the
// benchmark runs. It is kept, with BuildApproxIndex, only because the
// benchmark module (perfbench) still builds one for its traced replay
// of ApproxIndex.Candidates.
type ApproxIndex = approx.Index

// BuildApproxIndex signs every query of a prepared log into a fresh
// LSH index. Only the set-based measures (token, structure, result)
// support it; access-area does not. The index is deterministic in the
// log — two providers with the same measure build identical indexes.
func (p *Provider) BuildApproxIndex(pl *PreparedLog) (*ApproxIndex, error) {
	src, ok := pl.prep.(distance.SetSource)
	if !ok {
		return nil, fmt.Errorf("dpe: measure %s has no element sets to sign (its distance is not a set resemblance)", p.measure)
	}
	x, err := approx.New(approx.Params{})
	if err != nil {
		return nil, err
	}
	var buf []uint64
	for i := 0; i < src.Len(); i++ {
		buf = src.AppendElementHashes(buf[:0], i)
		x.AddSet(buf)
	}
	return x, nil
}

// Neighbor is one entry of a top-K neighbor list: a query index and
// its exact distance to the probe query.
type Neighbor = mining.Neighbor

// NeighborsResult is the outcome of a top-K search. It is exact: the
// neighbor list is the first entries of the probe's matrix row, q
// excluded, ordered by (distance, index).
type NeighborsResult struct {
	// Neighbors holds min(K, N−1) entries ordered by exact distance
	// with index tie-breaking.
	Neighbors []Neighbor `json:"neighbors"`
	// Candidates is how many exact distance computations the search
	// performed: N−1, one full row.
	Candidates int `json:"candidates"`
	// N is the log size the search ran against.
	N int `json:"n"`
}

// NeighborsPrepared is the top-K path: it fills query q's matrix row
// with the exact metric (at the provider's parallelism, never
// materializing the matrix) and keeps the min(k, n−1) closest entries
// with mining.Nearest, the selection kNN mining runs. Every measure
// supports it. Allocation is bounded by the log, not by k, so any
// positive k is safe. The row is a spare one when one is free (see
// spareRows), so a warm call allocates only its answer.
func (p *Provider) NeighborsPrepared(ctx context.Context, pl *PreparedLog, q, k int) (*NeighborsResult, error) {
	n := pl.Len()
	if q < 0 || q >= n {
		return nil, fmt.Errorf("dpe: query index %d outside log of %d queries", q, n)
	}
	if k <= 0 {
		return nil, fmt.Errorf("dpe: neighbors needs K > 0, got %d", k)
	}
	defer p.stage(ctx, "rerank")()
	row := getRow(n)
	// BuildRow's workers have stopped when it returns, and Nearest copies
	// out what it keeps, so the row is free again on every path.
	defer putRow(row)
	if err := distance.BuildRow(ctx, n, p.parallelism, q, pl.prep.Distance, row); err != nil {
		return nil, err
	}
	return &NeighborsResult{Neighbors: mining.Nearest(row, q, min(k, n-1)), Candidates: n - 1, N: n}, nil
}

// spareRows keeps NeighborsPrepared's rows between calls. It holds four:
// up to four searches at a time reuse a row, and more allocate their
// own. It is a bounded channel, as the service's spare row readers are,
// not a sync.Pool: a GC does not empty it, and it bounds what the
// spares pin.
var spareRows = make(chan []float64, 4)

// maxSpareRow caps a spare row at 64 Ki entries (512 KiB), the row of a
// log of 65,536 queries, so the spares pin at most 2 MiB. A longer row
// is allocated per call.
const maxSpareRow = 1 << 16

// getRow returns a row of n entries, a spare one when one is free and
// long enough. Its entries are whatever the last call left; BuildRow
// overwrites them all.
func getRow(n int) []float64 {
	if n <= maxSpareRow {
		select {
		case row := <-spareRows:
			if cap(row) >= n {
				return row[:n]
			}
		default:
		}
	}
	return make([]float64, n)
}

// putRow keeps row as a spare unless it is over the cap or four are
// kept already.
func putRow(row []float64) {
	if cap(row) > maxSpareRow {
		return
	}
	select {
	case spareRows <- row:
	default:
	}
}

// Neighbors prepares the log and runs the top-K search — the one-shot
// form of the two-phase service path.
func (p *Provider) Neighbors(ctx context.Context, log []string, q, k int) (*NeighborsResult, error) {
	pl, err := p.Prepare(ctx, log)
	if err != nil {
		return nil, err
	}
	return p.NeighborsPrepared(ctx, pl, q, k)
}
