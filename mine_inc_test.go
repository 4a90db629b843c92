package dpe

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/mining"
)

// assignCost is the distance sum of a k-medoids result's own
// assignment over m, in row order.
func assignCost(m Matrix, c *mining.KMedoidsResult) float64 {
	cost := 0.0
	for i, a := range c.Assign {
		cost += m[i][c.Medoids[a]]
	}
	return cost
}

// TestMineIncrementalChecksCarriedKMedoids warm-starts k-medoids from
// carried states whose cost or assignment was altered, as a journal or
// an imported bundle could carry them. The served cost is always the
// distance sum of the served assignment, and an assignment of the old
// rows that is not the nearest-medoid one falls back to the cold mine.
func TestMineIncrementalChecksCarriedKMedoids(t *testing.T) {
	ctx := context.Background()
	p, base, full := prepareFixture(t)
	spec := MineSpec{Algorithm: MineKMedoids, K: 3}
	_, state, err := p.MineIncremental(ctx, base, nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := p.MinePrepared(ctx, full, spec)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]int(nil), state.kmed.Assign...)
	flipped[0] = (flipped[0] + 1) % spec.K
	cases := []struct {
		name     string
		cost     float64
		assign   []int
		fallback bool
	}{
		{"true cost", state.kmed.Cost, state.kmed.Assign, false},
		{"cost -5", -5, state.kmed.Assign, false},
		{"cost 100", 100, state.kmed.Assign, false},
		{"one row flipped", state.kmed.Cost, flipped, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			kmed := *state.kmed
			kmed.Cost, kmed.Assign = tc.cost, tc.assign
			carried := *state
			carried.kmed = &kmed
			got, _, err := p.MineIncremental(ctx, full, &carried, spec)
			if err != nil {
				t.Fatal(err)
			}
			if want := assignCost(got.Matrix, got.Clusters); got.Clusters.Cost != want {
				t.Errorf("served cost %v, its assignment costs %v", got.Clusters.Cost, want)
			}
			if st := got.Incremental; !st.Warm || st.ColdFallback != tc.fallback {
				t.Errorf("stats %+v, want warm with ColdFallback %v", st, tc.fallback)
			}
			if tc.fallback && !reflect.DeepEqual(got.Clusters, cold.Clusters) {
				t.Errorf("fallback served %+v, the cold mine %+v", got.Clusters, cold.Clusters)
			}
		})
	}
}

// TestMineIncrementalWorkCounters pins the counters of the algorithms
// with a warm start, cold and warm: PairsComputed is the full triangle
// cold and the append delta warm, and Examined is the count the mining
// call returns over the same matrix or transactions — for DBSCAN, the
// pairs its graph reads, which are the pairs the matrix computed.
func TestMineIncrementalWorkCounters(t *testing.T) {
	ctx := context.Background()
	p, base, full := prepareFixture(t)
	txs, err := p.transactions(full)
	if err != nil {
		t.Fatal(err)
	}
	const oldN, n = 9, 14
	specs := []MineSpec{
		{Algorithm: MineKMedoids, K: 3},
		{Algorithm: MineDBSCAN, Eps: 0.4, MinPts: 2},
		{Algorithm: MineApriori, MinSupport: 4, MaxLen: 2},
	}
	for _, spec := range specs {
		_, state, err := p.MineIncremental(ctx, base, nil, spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, prev := range []*MineState{nil, state} {
			warm := prev != nil
			res, _, err := p.MineIncremental(ctx, full, prev, spec)
			if err != nil {
				t.Fatal(err)
			}
			pairs := int64(n * (n - 1) / 2)
			if warm {
				pairs = oldN*(n-oldN) + (n-oldN)*(n-oldN-1)/2
			}
			var work int64
			switch {
			case spec.Algorithm == MineKMedoids && warm:
				_, work, err = mining.KMedoidsWarm(res.Matrix, spec.K, prev.kmed, oldN)
			case spec.Algorithm == MineKMedoids:
				_, work, err = mining.KMedoidsCounted(res.Matrix, spec.K)
			case spec.Algorithm == MineDBSCAN:
				work = pairs
			case warm:
				_, _, work, err = mining.AprioriAppend(txs, oldN, prev.counts, spec.MinSupport, spec.MaxLen)
				pairs = 0
			default:
				_, _, work, err = mining.AprioriAppend(txs, 0, nil, spec.MinSupport, spec.MaxLen)
				pairs = 0
			}
			if err != nil {
				t.Fatal(err)
			}
			if st := res.Incremental; st.Warm != warm || st.ColdFallback || st.PairsComputed != pairs || st.Examined != work {
				t.Errorf("%s warm=%v: stats %+v, want %d pairs and %d examined", spec.Algorithm, warm, st, pairs, work)
			}
		}
	}
}
