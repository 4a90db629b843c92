package dpe

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/approx"
	"repro/internal/distance"
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
type Neighbor struct {
	Index    int     `json:"index"`
	Distance float64 `json:"distance"`
}

// NeighborsResult is the outcome of a top-K search. It is exact: the
// neighbor list is the first entries of the probe's matrix row, q
// excluded, ordered by (distance, index).
type NeighborsResult struct {
	// Neighbors holds min(K, N−1) entries ordered by exact distance
	// with index tie-breaking.
	Neighbors []Neighbor
	// Candidates is how many exact distance computations the search
	// performed: N−1, one full row.
	Candidates int
	// N is the log size the search ran against.
	N int
}

// NeighborsPrepared is the top-K path: it fills query q's matrix row
// with the exact metric (at the provider's parallelism, never
// materializing the matrix) and keeps the min(k, n−1) closest entries.
// Every measure supports it. Allocation is bounded by the log, not by
// k, so any positive k is safe.
func (p *Provider) NeighborsPrepared(ctx context.Context, pl *PreparedLog, q, k int) (*NeighborsResult, error) {
	n := pl.Len()
	if q < 0 || q >= n {
		return nil, fmt.Errorf("dpe: query index %d outside log of %d queries", q, n)
	}
	if k <= 0 {
		return nil, fmt.Errorf("dpe: neighbors needs K > 0, got %d", k)
	}
	defer p.stage(ctx, "rerank")()
	row := make([]float64, n)
	if err := distance.BuildRow(ctx, n, p.parallelism, q, pl.prep.Distance, row); err != nil {
		return nil, err
	}
	return &NeighborsResult{Neighbors: nearest(row, q, min(k, n-1)), Candidates: n - 1, N: n}, nil
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

// compareNeighbors orders neighbors by distance, then index.
func compareNeighbors(a, b Neighbor) int {
	return cmp.Or(cmp.Compare(a.Distance, b.Distance), cmp.Compare(a.Index, b.Index))
}

// nearest returns the k entries of row closest to q, q excluded,
// ordered by compareNeighbors; k must not exceed len(row)−1. One pass
// keeps the k best so far in a max-heap whose root, the farthest of
// them, is replaced whenever a closer entry arrives.
func nearest(row []float64, q, k int) []Neighbor {
	top := make([]Neighbor, 0, k)
	for j, d := range row {
		if j == q {
			continue
		}
		nb := Neighbor{Index: j, Distance: d}
		switch {
		case len(top) < k:
			top = append(top, nb)
			if len(top) == k {
				for i := k/2 - 1; i >= 0; i-- {
					siftDown(top, i)
				}
			}
		case compareNeighbors(nb, top[0]) < 0:
			top[0] = nb
			siftDown(top, 0)
		}
	}
	slices.SortFunc(top, compareNeighbors)
	return top
}

// siftDown restores the max-heap order of h below index i.
func siftDown(h []Neighbor, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && compareNeighbors(h[c+1], h[c]) > 0 {
			c++
		}
		if compareNeighbors(h[c], h[i]) <= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
