// Package mining implements the data-mining algorithms the paper
// motivates DPE with (Section I): k-medoids clustering (Park–Jun [5]),
// DBSCAN [4], complete-link agglomerative clustering (Defays [3]),
// Knorr–Ng distance-based outlier detection [6] and kNN, which consume
// only a pairwise distance matrix, and Apriori association mining
// (apriori.go), which consumes transactions of opaque items.
//
// Every algorithm breaks ties deterministically (lowest index first,
// or item order), so two runs over equal matrices, or over
// transactions equal up to a renaming of items, produce bit-identical
// results. That is the property the mining-equality experiments (E3,
// E6) check: a distance-preserving encryption yields equal matrices and
// therefore equal mining output. Each algorithm has one
// implementation: DBSCAN, Apriori and KNN are the cold forms of the
// code the provider serves (DBSCANAppendGraph, AprioriAppend, Nearest),
// so the experiments check the code that runs.
package mining

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Matrix is a symmetric pairwise distance matrix with a zero diagonal.
type Matrix = [][]float64

func validate(m Matrix) error {
	n := len(m)
	for i, row := range m {
		if len(row) != n {
			return fmt.Errorf("mining: matrix row %d has length %d, want %d", i, len(row), n)
		}
	}
	return nil
}

// --- k-medoids (Park–Jun) ---

// KMedoidsResult holds a clustering.
type KMedoidsResult struct {
	// Medoids are the cluster representatives' indices, sorted.
	Medoids []int `json:"medoids"`
	// Assign maps each item to its position in Medoids.
	Assign []int `json:"assign"`
	// Cost is the total distance of items to their medoids.
	Cost float64 `json:"cost"`
	// Iterations until convergence.
	Iterations int `json:"iterations"`
}

// KMedoids runs the "simple and fast" k-medoids of Park & Jun [5]:
// initial medoids are the k items with the smallest normalized distance
// sums (parkJunInit); then alternate assignment and within-cluster
// medoid update until stable (kmedoidsRun). Fully deterministic.
func KMedoids(m Matrix, k int) (*KMedoidsResult, error) {
	res, _, err := KMedoidsCounted(m, k)
	return res, err
}

// --- DBSCAN ---

// Noise is the DBSCAN label of noise points.
const Noise = -1

// DBSCAN runs density-based clustering [4] on the distance matrix with
// radius eps (inclusive) and density threshold minPts (neighborhood
// includes the point itself). Cluster ids are assigned in order of
// discovery, so equal matrices yield identical labelings. It is the
// cold bootstrap of DBSCANAppendGraph: the eps-graph is built from the
// matrix's lower triangle and labeled by DBSCANGraph.
func DBSCAN(m Matrix, eps float64, minPts int) ([]int, error) {
	labels, _, _, err := DBSCANAppendGraph(m, eps, minPts, nil)
	return labels, err
}

// --- complete-link agglomerative clustering ---

// CompleteLink performs agglomerative clustering with the complete-link
// criterion [3], merging until k clusters remain, and returns cluster
// labels canonicalized by first occurrence. Ties break toward the
// lexicographically smallest cluster pair.
func CompleteLink(m Matrix, k int) ([]int, error) {
	if err := validate(m); err != nil {
		return nil, err
	}
	n := len(m)
	if k <= 0 || k > n {
		return nil, fmt.Errorf("mining: k=%d outside [1,%d]", k, n)
	}
	// clusters holds member lists; nil entries are merged away.
	clusters := make([][]int, n)
	for i := range clusters {
		clusters[i] = []int{i}
	}
	active := n
	linkage := func(a, b []int) float64 {
		worst := 0.0
		for _, i := range a {
			for _, j := range b {
				if m[i][j] > worst {
					worst = m[i][j]
				}
			}
		}
		return worst
	}
	for active > k {
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if clusters[i] == nil {
				continue
			}
			for j := i + 1; j < n; j++ {
				if clusters[j] == nil {
					continue
				}
				if d := linkage(clusters[i], clusters[j]); d < best {
					bi, bj, best = i, j, d
				}
			}
		}
		clusters[bi] = append(clusters[bi], clusters[bj]...)
		sort.Ints(clusters[bi])
		clusters[bj] = nil
		active--
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	next := 0
	for i := 0; i < n; i++ {
		if labels[i] != -1 {
			continue
		}
		// Find i's cluster.
		for _, members := range clusters {
			if members == nil || !slices.Contains(members, i) {
				continue
			}
			for _, mi := range members {
				labels[mi] = next
			}
			next++
			break
		}
	}
	return labels, nil
}

// --- distance-based outliers (Knorr–Ng) ---

// Outliers implements DB(p, D) outlier detection [6]: an object is an
// outlier when at least fraction p of the other objects lie at distance
// greater than D from it.
func Outliers(m Matrix, p, d float64) ([]bool, error) {
	if err := validate(m); err != nil {
		return nil, err
	}
	if p <= 0 || p > 1 || d < 0 {
		return nil, fmt.Errorf("mining: invalid outlier parameters p=%v D=%v", p, d)
	}
	n := len(m)
	out := make([]bool, n)
	if n <= 1 {
		return out, nil
	}
	for i := 0; i < n; i++ {
		far := 0
		for j := 0; j < n; j++ {
			if j != i && m[i][j] > d {
				far++
			}
		}
		out[i] = float64(far) >= p*float64(n-1)
	}
	return out, nil
}

// --- k nearest neighbors ---

// KNN returns the indices of q's k nearest neighbors (excluding q),
// ordered by distance with index tie-breaking: Nearest over row q.
func KNN(m Matrix, q, k int) ([]int, error) {
	if err := validate(m); err != nil {
		return nil, err
	}
	n := len(m)
	if q < 0 || q >= n {
		return nil, fmt.Errorf("mining: query index %d outside [0,%d)", q, n)
	}
	if k < 0 || k > n-1 {
		return nil, fmt.Errorf("mining: k=%d outside [0,%d]", k, n-1)
	}
	nb := Nearest(m[q], q, k)
	idx := make([]int, len(nb))
	for i, e := range nb {
		idx[i] = e.Index
	}
	return idx, nil
}

// Neighbor is one entry of a nearest-neighbor list: a row index and its
// distance to the query row.
type Neighbor struct {
	Index    int     `json:"index"`
	Distance float64 `json:"distance"`
}

// compareNeighbors orders neighbors by distance, then index.
func compareNeighbors(a, b Neighbor) int {
	return cmp.Or(cmp.Compare(a.Distance, b.Distance), cmp.Compare(a.Index, b.Index))
}

// Nearest returns the k entries of row closest to q, q excluded,
// ordered by compareNeighbors; k must lie in [0, len(row)−1]. One pass
// keeps the k best so far in a max-heap whose root, the farthest of
// them, is replaced whenever a closer entry arrives, so it allocates k
// entries whatever the row's length.
func Nearest(row []float64, q, k int) []Neighbor {
	top := make([]Neighbor, 0, k)
	if k == 0 {
		return top
	}
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
