package mining

import (
	"math/rand"
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
// pairs at distance <= eps, DBSCANGraph and DBSCAN produce identical
// labelings — across random matrices and parameter settings.
func TestDBSCANGraphMatchesDBSCAN(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(30)
		m := randMatrix(rng, n)
		eps := 0.1 + rng.Float64()*0.5
		minPts := 1 + rng.Intn(5)
		adj := make([][]int, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if j != i && m[i][j] <= eps {
					adj[i] = append(adj[i], j)
				}
			}
		}
		want, err := DBSCAN(m, eps, minPts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DBSCANGraph(n, adj, minPts)
		if err != nil {
			t.Fatal(err)
		}
		if !EqualLabels(got, want) {
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
