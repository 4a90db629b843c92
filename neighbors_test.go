package dpe

import (
	"context"
	"reflect"
	"sort"
	"testing"
)

// neighborLog is a log with deliberate cluster structure: three groups
// of near-duplicate queries (high Jaccard inside a group, low across),
// so each query's nearest neighbors are its group mates.
func neighborLog() []string {
	groups := [][]string{
		{
			"SELECT name, age, city FROM users WHERE age > 30",
			"SELECT name, age, city FROM users WHERE age > 40",
			"SELECT name, age, city FROM users WHERE age > 50",
			"SELECT name, age, city FROM users WHERE age > 60",
		},
		{
			"SELECT product, price FROM items WHERE price < 10 ORDER BY price",
			"SELECT product, price FROM items WHERE price < 20 ORDER BY price",
			"SELECT product, price FROM items WHERE price < 30 ORDER BY price",
			"SELECT product, price FROM items WHERE price < 40 ORDER BY price",
		},
		{
			"SELECT count(id) FROM orders GROUP BY region",
			"SELECT count(id) FROM orders GROUP BY status",
			"SELECT count(id) FROM orders GROUP BY vendor",
			"SELECT count(id) FROM orders GROUP BY channel",
		},
	}
	var log []string
	// Interleave groups so cluster membership is not index-adjacent.
	for i := 0; i < len(groups[0]); i++ {
		for _, g := range groups {
			log = append(log, g[i])
		}
	}
	return log
}

// exactTopK is the reference answer: row q of the full matrix, q
// excluded, stably sorted by (distance, index) and cut to k entries.
func exactTopK(m Matrix, q, k int) []Neighbor {
	want := make([]Neighbor, 0, len(m)-1)
	for j, d := range m[q] {
		if j != q {
			want = append(want, Neighbor{Index: j, Distance: d})
		}
	}
	sort.SliceStable(want, func(a, b int) bool { return want[a].Distance < want[b].Distance })
	return want[:min(k, len(want))]
}

// TestNeighborsMatchesExactRerank pins the API contract for all four
// measures on encrypted artifacts: Neighbors is the first min(k, n−1)
// entries of the probe's matrix row (from the independent full-matrix
// build), q excluded, in (distance, index) order, and every search
// reports n−1 candidates.
func TestNeighborsMatchesExactRerank(t *testing.T) {
	ctx := context.Background()
	w, owner := workloadFixture(t)
	for _, m := range []Measure{MeasureToken, MeasureStructure, MeasureResult, MeasureAccessArea} {
		t.Run(m.String(), func(t *testing.T) {
			encLog, err := owner.EncryptLog(w.Queries, m)
			if err != nil {
				t.Fatal(err)
			}
			_, p := measureProviders(t, w, owner, m, WithParallelism(4))
			pl, err := p.Prepare(ctx, encLog)
			if err != nil {
				t.Fatal(err)
			}
			mat, err := p.DistanceMatrixPrepared(ctx, pl)
			if err != nil {
				t.Fatal(err)
			}
			n := len(encLog)
			for q := 0; q < n; q++ {
				for _, k := range []int{1, 3, n - 1, n + 5} {
					got, err := p.NeighborsPrepared(ctx, pl, q, k)
					if err != nil {
						t.Fatal(err)
					}
					if got.Candidates != n-1 || got.N != n {
						t.Fatalf("q=%d k=%d: %d candidates over n=%d, want %d over %d", q, k, got.Candidates, got.N, n-1, n)
					}
					if want := exactTopK(mat, q, k); !reflect.DeepEqual(got.Neighbors, want) {
						t.Fatalf("q=%d k=%d: neighbors = %v, want %v", q, k, got.Neighbors, want)
					}
				}
			}
		})
	}
}

// TestNeighborsFindsClusterMates checks the answer's quality on the
// clustered log: each query's nearest neighbors are its group mates.
func TestNeighborsFindsClusterMates(t *testing.T) {
	ctx := context.Background()
	log := neighborLog()
	p, err := NewProvider(MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < len(log); q++ {
		res, err := p.Neighbors(ctx, log, q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Neighbors) != 3 {
			t.Fatalf("q=%d: got %d neighbors, want 3", q, len(res.Neighbors))
		}
		for _, nb := range res.Neighbors {
			if nb.Index%3 != q%3 {
				t.Errorf("q=%d: neighbor %d is from another group (distance %v)", q, nb.Index, nb.Distance)
			}
		}
	}
}

// TestNeighborsValidation covers the argument checks, a one-query log,
// and the access-area measure, which the exact search serves like the
// set-based ones.
func TestNeighborsValidation(t *testing.T) {
	ctx := context.Background()
	log := neighborLog()
	p, err := NewProvider(MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := p.Prepare(ctx, log)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.NeighborsPrepared(ctx, pl, -1, 3); err == nil {
		t.Error("negative query index must error")
	}
	if _, err := p.NeighborsPrepared(ctx, pl, len(log), 3); err == nil {
		t.Error("out-of-range query index must error")
	}
	if _, err := p.NeighborsPrepared(ctx, pl, 0, 0); err == nil {
		t.Error("k = 0 must error")
	}
	if _, err := p.NeighborsPrepared(ctx, pl, 0, -1); err == nil {
		t.Error("negative k must error")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := p.NeighborsPrepared(cancelled, pl, 0, 3); err == nil {
		t.Error("a cancelled context must error")
	}
	if res, err := p.Neighbors(ctx, log[:1], 0, 3); err != nil || len(res.Neighbors) != 0 || res.Candidates != 0 || res.N != 1 {
		t.Errorf("one-query log: %+v, %v; want no neighbors of 0 candidates", res, err)
	}

	w, _ := workloadFixture(t)
	aa, err := NewProvider(MeasureAccessArea, WithDomains(w.Domains))
	if err != nil {
		t.Fatal(err)
	}
	res, err := aa.Neighbors(ctx, w.Queries, 0, 3)
	if err != nil {
		t.Fatalf("access-area Neighbors: %v", err)
	}
	if n := len(w.Queries); len(res.Neighbors) != 3 || res.Candidates != n-1 || res.N != n {
		t.Errorf("access-area Neighbors = %+v, want 3 neighbors of %d candidates", res, n-1)
	}
}

// TestNeighborsHugeK asks for k = 2⁴⁰ neighbors: the answer is the whole
// ranked row, and the search allocates no more than it does at
// k = n−1 — the selection is sized by the log, never by k.
func TestNeighborsHugeK(t *testing.T) {
	ctx := context.Background()
	log := neighborLog()
	n := len(log)
	p, err := NewProvider(MeasureToken, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := p.Prepare(ctx, log)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := p.DistanceMatrixPrepared(ctx, pl)
	if err != nil {
		t.Fatal(err)
	}
	alloc := func(k int) uint64 {
		least := ^uint64(0)
		for i := 0; i < 5; i++ {
			var res *NeighborsResult
			got := allocatedBy(func() { res, err = p.NeighborsPrepared(ctx, pl, 2, k) })
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Neighbors, exactTopK(mat, 2, n-1)) || res.Candidates != n-1 {
				t.Fatalf("k=%d: %+v, want all %d other queries ranked", k, res, n-1)
			}
			least = min(least, got)
		}
		return least
	}
	full, huge := alloc(n-1), alloc(1<<40)
	if huge > full {
		t.Errorf("k=2^40 allocated %d bytes, k=n-1 %d", huge, full)
	}
	if bound := uint64(1024 + 32*n); huge > bound {
		t.Errorf("k=2^40 allocated %d bytes, want at most %d for n=%d", huge, bound, n)
	}
}
