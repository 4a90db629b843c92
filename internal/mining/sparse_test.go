package mining

import (
	"math/rand"
	"slices"
	"testing"
)

// randMatrix builds a deterministic random symmetric matrix with a zero
// diagonal.
func randMatrix(rng *rand.Rand, n int) Matrix {
	m := make(Matrix, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := rng.Float64()
			m[i][j], m[j][i] = d, d
		}
	}
	return m
}

// TestDBSCANGraphMatchesDBSCAN pins the equivalence incremental mining
// (and so MinePrepared) relies on: when the graph contains exactly the
// pairs at distance <= eps, DBSCANGraph and the matrix-scan reference
// produce identical labelings — across random matrices and parameter
// settings.
func TestDBSCANGraphMatchesDBSCAN(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(30)
		m := randMatrix(rng, n)
		eps := 0.1 + rng.Float64()*0.5
		minPts := 1 + rng.Intn(5)
		adj := epsGraph(m, eps)
		want, err := refDBSCAN(m, eps, minPts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DBSCANGraph(n, adj, minPts)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d eps=%v minPts=%d): graph labels %v != matrix labels %v",
				trial, n, eps, minPts, got, want)
		}
	}
}

// TestDBSCANGraphValidation pins the error paths: wrong row count,
// out-of-range neighbors, self-loops, bad minPts.
func TestDBSCANGraphValidation(t *testing.T) {
	if _, err := DBSCANGraph(3, make([][]int, 2), 1); err == nil {
		t.Error("row-count mismatch accepted")
	}
	if _, err := DBSCANGraph(2, [][]int{{5}, nil}, 1); err == nil {
		t.Error("out-of-range neighbor accepted")
	}
	if _, err := DBSCANGraph(2, [][]int{{0}, nil}, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := DBSCANGraph(2, [][]int{nil, nil}, 0); err == nil {
		t.Error("minPts=0 accepted")
	}
}

// epsGraph lists, for each row of m, the other rows within eps, in
// ascending order.
func epsGraph(m Matrix, eps float64) [][]int {
	adj := make([][]int, len(m))
	for i := range m {
		for j := range m {
			if j != i && m[i][j] <= eps {
				adj[i] = append(adj[i], j)
			}
		}
	}
	return adj
}

// TestDBSCANGraphListOrder is the property DBSCANGraph's in-place read
// rests on: labels do not depend on the order of an adjacency list. A
// cluster is expanded to completion before the scan moves on, so scan
// order and reachability alone fix its members. Every list of random
// graphs is shuffled, and the labels must equal the sorted graph's and
// the matrix-scan reference's.
func TestDBSCANGraphListOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(40)
		m := randMatrix(rng, n)
		eps := rng.Float64() * 0.6
		minPts := 1 + rng.Intn(6)
		adj := epsGraph(m, eps)
		want, err := refDBSCAN(m, eps, minPts)
		if err != nil {
			t.Fatal(err)
		}
		sorted, err := DBSCANGraph(n, adj, minPts)
		if err != nil {
			t.Fatal(err)
		}
		for _, nb := range adj {
			rng.Shuffle(len(nb), func(a, b int) { nb[a], nb[b] = nb[b], nb[a] })
		}
		shuffled, err := DBSCANGraph(n, adj, minPts)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sorted, want) || !slices.Equal(shuffled, want) {
			t.Fatalf("trial %d (n=%d eps=%v minPts=%d): sorted lists %v, shuffled %v, reference %v",
				trial, n, eps, minPts, sorted, shuffled, want)
		}
	}
}

// TestDBSCANGraphAllocs pins DBSCANGraph's allocations over a prebuilt
// graph at the labels and one queue, from an empty graph to a complete
// one: it neither copies nor sorts a list, and the queue, which holds
// each point at most once, never grows.
func TestDBSCANGraphAllocs(t *testing.T) {
	const n = 200
	m := randMatrix(rand.New(rand.NewSource(43)), n)
	for _, eps := range []float64{-1, 0.05, 0.3, 1} {
		adj := epsGraph(m, eps)
		edges := 0
		for _, nb := range adj {
			edges += len(nb)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := DBSCANGraph(n, adj, 4); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 2 {
			t.Errorf("eps=%v (%d directed edges): %v allocations per call, want 2 (labels and queue)", eps, edges, allocs)
		}
	}
}
