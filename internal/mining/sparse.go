package mining

import "fmt"

// DBSCANGraph is DBSCAN over a precomputed eps-neighborhood graph
// instead of a full distance matrix: adj[p] lists the points within
// eps of p, excluding p itself (the point always counts toward its own
// density, so the density test is len(adj[p])+1 >= minPts). Cluster
// ids follow discovery order. It is the package's one DBSCAN
// expansion: DBSCAN and DBSCANAppendGraph label through it, over the
// eps-graph DBSCANAppendGraph builds and extends across appends.
//
// The adjacency must be symmetric. It is read in place, in any order:
// a cluster is expanded to completion before the scan moves on, so the
// scan order and density-reachability alone fix its members, however
// each list is ordered. A point is labeled when it is first reached,
// so the queue holds each core point at most once, and the call
// allocates only the labels and that queue.
func DBSCANGraph(n int, adj [][]int, minPts int) ([]int, error) {
	if len(adj) != n {
		return nil, fmt.Errorf("mining: adjacency has %d rows, want %d", len(adj), n)
	}
	if minPts < 1 {
		return nil, fmt.Errorf("mining: invalid DBSCAN parameter minPts=%d", minPts)
	}
	for p, nb := range adj {
		for _, q := range nb {
			if q < 0 || q >= n {
				return nil, fmt.Errorf("mining: neighbor %d of %d outside [0,%d)", q, p, n)
			}
			if q == p {
				return nil, fmt.Errorf("mining: adjacency of %d contains itself", p)
			}
		}
	}
	const unvisited = -2
	labels := make([]int, n)
	for i := range labels {
		labels[i] = unvisited
	}
	queue := make([]int, 0, n)
	cluster := 0
	for p := 0; p < n; p++ {
		if labels[p] != unvisited {
			continue
		}
		if len(adj[p])+1 < minPts {
			labels[p] = Noise
			continue
		}
		labels[p] = cluster
		queue = append(queue[:0], p)
		for qi := 0; qi < len(queue); qi++ {
			for _, r := range adj[queue[qi]] {
				switch labels[r] {
				case Noise:
					labels[r] = cluster // border point
				case unvisited:
					labels[r] = cluster
					if len(adj[r])+1 >= minPts {
						queue = append(queue, r)
					}
				}
			}
		}
		cluster++
	}
	return labels, nil
}
