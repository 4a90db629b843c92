package mining

import (
	"fmt"
	"sort"
)

// DBSCANGraph is DBSCAN over a precomputed eps-neighborhood graph
// instead of a full distance matrix: adj[p] lists the points within
// eps of p, excluding p itself (the point always counts toward its own
// density, so the density test is len(adj[p])+1 >= minPts). The
// expansion, labeling, and cluster-id assignment are identical to
// DBSCAN — when adj contains exactly the pairs at distance <= eps, the
// labelings match entry-wise. Incremental mining runs it over the
// eps-graph DBSCANAppendGraph builds and extends across appends.
//
// The adjacency must be symmetric; each list is sorted internally so
// callers need not pre-sort.
func DBSCANGraph(n int, adj [][]int, minPts int) ([]int, error) {
	if len(adj) != n {
		return nil, fmt.Errorf("mining: adjacency has %d rows, want %d", len(adj), n)
	}
	if minPts < 1 {
		return nil, fmt.Errorf("mining: invalid DBSCAN parameter minPts=%d", minPts)
	}
	sorted := make([][]int, n)
	for p, nb := range adj {
		for _, q := range nb {
			if q < 0 || q >= n {
				return nil, fmt.Errorf("mining: neighbor %d of %d outside [0,%d)", q, p, n)
			}
			if q == p {
				return nil, fmt.Errorf("mining: adjacency of %d contains itself", p)
			}
		}
		s := append([]int(nil), nb...)
		sort.Ints(s)
		sorted[p] = s
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -2 // unvisited
	}
	cluster := 0
	for p := 0; p < n; p++ {
		if labels[p] != -2 {
			continue
		}
		if len(sorted[p])+1 < minPts {
			labels[p] = Noise
			continue
		}
		labels[p] = cluster
		queue := append([]int(nil), sorted[p]...)
		for qi := 0; qi < len(queue); qi++ {
			q := queue[qi]
			if labels[q] == Noise {
				labels[q] = cluster // border point
			}
			if labels[q] != -2 {
				continue
			}
			labels[q] = cluster
			if len(sorted[q])+1 >= minPts {
				queue = append(queue, sorted[q]...)
			}
		}
		cluster++
	}
	return labels, nil
}
