// Package distance implements the four SQL query-distance measures of
// the paper's Table I as Metric states (New, Prepare), plus the generic
// machinery (Jaccard, distance matrices) that distance-based mining
// consumes.
//
// Every measure works unchanged on plaintext and on encrypted artifacts:
// token distance tokenizes strings (plain or ciphertext), structure
// distance reads feature sets, result distance executes queries over a
// catalog (plain engine or encrypted engine via db.Options), and
// access-area distance runs the interval algebra over literals (plain
// values or OPE ciphertexts). Distance preservation (Definition 1) is
// then a checkable property: the same Metric prepared over encrypted
// inputs must return the same numbers.
package distance

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Jaccard returns the Jaccard distance 1 − |a∩b| / |a∪b| of two string
// sets. Two empty sets have distance 0 (identical).
func Jaccard[K comparable](a, b map[K]bool) float64 {
	inter, union := 0, 0
	for k := range a {
		union++
		if b[k] {
			inter++
		}
	}
	for k := range b {
		if !a[k] {
			union++
		}
	}
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}

// DefaultOverlapX is the paper's default for the partial-overlap value x
// in Definition 5.
const DefaultOverlapX = 0.5

// Matrix is a symmetric pairwise distance matrix.
type Matrix [][]float64

// NewMatrix allocates a zeroed n×n matrix over one contiguous backing
// array: two allocations total instead of n+1, and rows adjacent in
// memory so triangle sweeps stay in cache.
func NewMatrix(n int) Matrix {
	backing := make([]float64, n*n)
	m := make(Matrix, n)
	for i := range m {
		m[i] = backing[i*n : (i+1)*n : (i+1)*n]
	}
	return m
}

// PairFunc returns the distance of items i and j. BuildMatrix only calls
// it with i < j; with parallelism > 1 it must be safe for concurrent use.
type PairFunc func(i, j int) (float64, error)

// Tiling parameters for the matrix triangle. A work unit is a band of
// matrixBand rows; within a band pairs are visited in column tiles of
// matrixTile so the band's bitsets and the destination cells stay
// cache-resident. Cancellation is checked once per band-row per tile —
// bounded staleness of matrixTile pairs — instead of per pair, keeping
// the per-pair loop free of synchronized loads.
const (
	matrixBand = 16
	matrixTile = 256
)

// BuildMatrix fills a fresh n×n matrix from a pairwise distance
// function: NewMatrix followed by BuildMatrixInto, whose contract it
// shares. The matrix is one contiguous allocation; the build itself
// allocates nothing per pair.
func BuildMatrix(ctx context.Context, n, parallelism int, f PairFunc) (Matrix, error) {
	m := NewMatrix(n)
	if err := BuildMatrixInto(ctx, m, parallelism, f); err != nil {
		return nil, err
	}
	return m, nil
}

// BuildMatrixInto fills the caller's n×n matrix m (n = len(m)) from a
// pairwise distance function, computing each unordered pair of the
// upper triangle once. It zeroes the diagonal and overwrites every
// other entry, so m may hold anything on entry, a previous build's
// values included. With parallelism > 1, bands of rows are distributed
// over a worker pool; the result is entry-wise identical to the
// sequential build, and every worker has stopped when BuildMatrixInto
// returns, on error and on cancellation too. The build is cancellable:
// when ctx is done, it stops within at most one column tile of pairs
// and returns the context's error, leaving m partly written.
func BuildMatrixInto(ctx context.Context, m Matrix, parallelism int, f PairFunc) error {
	n := len(m)
	for i, row := range m {
		if len(row) != n {
			return fmt.Errorf("distance: matrix row %d has %d entries, want %d", i, len(row), n)
		}
		row[i] = 0
	}
	bands := (n + matrixBand - 1) / matrixBand
	// Workers pull bands dynamically, so the shrinking upper-triangle
	// bands still balance. Each pair (i,j) is computed by exactly one
	// band's worker, which owns both cell writes — cells of distinct
	// pairs never alias, so no locking is needed.
	band := func(ctx context.Context, b int) error {
		r0 := b * matrixBand
		r1 := min(r0+matrixBand, n)
		for c0 := r0 + 1; c0 < n; c0 += matrixTile {
			c1 := min(c0+matrixTile, n)
			for i := r0; i < r1; i++ {
				lo := max(i+1, c0)
				if lo >= c1 {
					continue
				}
				if err := ctx.Err(); err != nil {
					return err
				}
				row := m[i]
				for j := lo; j < c1; j++ {
					d, err := f(i, j)
					if err != nil {
						return fmt.Errorf("distance: pair (%d,%d): %w", i, j, err)
					}
					row[j] = d
					m[j][i] = d
				}
			}
		}
		return nil
	}
	return parallelFor(ctx, bands, parallelism, band)
}

// BuildRow fills out with the distances from item q to every item of
// [0, n) — one matrix row without materializing the matrix. out[q] is 0;
// len(out) must be n. Like BuildMatrix it distributes over a worker pool
// and is cancellable via ctx.
func BuildRow(ctx context.Context, n, parallelism, q int, f PairFunc, out []float64) error {
	if len(out) != n {
		return fmt.Errorf("distance: row buffer has %d entries, want %d", len(out), n)
	}
	if q < 0 || q >= n {
		return fmt.Errorf("distance: row index %d outside [0,%d)", q, n)
	}
	return parallelFor(ctx, n, parallelism, func(ctx context.Context, j int) error {
		if j == q {
			out[j] = 0
			return nil
		}
		i, k := q, j
		if i > k {
			i, k = k, i
		}
		d, err := f(i, k)
		if err != nil {
			return fmt.Errorf("distance: pair (%d,%d): %w", i, k, err)
		}
		out[j] = d
		return nil
	})
}

// parallelFor runs fn(ctx, i) for every i in [0, n). parallelism <= 1
// runs inline; otherwise a worker pool pulls indices from an atomic
// counter. The first error cancels the remaining work and is returned;
// cancellation of ctx itself surfaces as its error.
func parallelFor(ctx context.Context, n, parallelism int, fn func(ctx context.Context, i int) error) error {
	if parallelism <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	if parallelism > n {
		parallelism = n
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if cctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(cctx, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		// A worker that merely observed the parent cancellation reports
		// cctx's error; prefer the caller-visible ctx error in that case.
		if err := ctx.Err(); err != nil && firstErr == context.Canceled {
			return err
		}
		return firstErr
	}
	return ctx.Err()
}

// MaxAbsDiff returns the largest absolute entry-wise difference between
// two equally-sized matrices — the empirical check of Definition 1.
func MaxAbsDiff(a, b Matrix) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("distance: matrix sizes differ: %d vs %d", len(a), len(b))
	}
	var max float64
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return 0, fmt.Errorf("distance: row %d sizes differ", i)
		}
		for j := range a[i] {
			d := a[i][j] - b[i][j]
			if d < 0 {
				d = -d
			}
			if d > max {
				max = d
			}
		}
	}
	return max, nil
}
