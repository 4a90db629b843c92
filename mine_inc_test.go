package dpe

import (
	"context"
	"reflect"
	"slices"
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
			// The rejected assignment was never checked, so a fallback
			// reports changed labels as a cold run does: none.
			if tc.fallback && len(got.Incremental.ChangedLabels) != 0 {
				t.Errorf("fallback reports changed labels %v against the rejected assignment", got.Incremental.ChangedLabels)
			}
		})
	}
}

// TestMineIncrementalChecksDecodedState covers the states that come
// from outside the process. A DBSCAN graph or apriori count table
// cannot reach a warm start: the forged ones an earlier encoder could
// write (the forged_* corpus seeds: a graph edge outside eps, which
// merged two clusters, and inflated counts, which served itemsets the
// log does not support) no longer decode, so after a restart the log
// mines cold. A decoded k-medoids state whose assignment of row 0 is
// not the nearest-medoid one falls back cold over the whole built
// matrix, and, as a cold run, reports no changed labels.
func TestMineIncrementalChecksDecodedState(t *testing.T) {
	ctx := context.Background()
	p, base, full := prepareFixture(t)
	for _, name := range []string{"forged_dbscan_edge", "forged_apriori_counts"} {
		t.Run(name, func(t *testing.T) {
			if s, err := UnmarshalMineState(corpusSeed(t, name)); err == nil {
				t.Fatalf("the forged state decoded to %+v", s)
			}
		})
	}
	t.Run("forged_kmedoids_assign", func(t *testing.T) {
		spec := MineSpec{Algorithm: MineKMedoids, K: 3}
		_, state, err := p.MineIncremental(ctx, base, nil, spec)
		if err != nil {
			t.Fatal(err)
		}
		kmed := *state.kmed
		kmed.Assign = slices.Clone(kmed.Assign)
		kmed.Assign[0] = (kmed.Assign[0] + 1) % spec.K
		forged := *state
		forged.kmed = &kmed
		blob, err := MarshalMineState(&forged)
		if err != nil {
			t.Fatal(err)
		}
		s, err := UnmarshalMineState(blob)
		if err != nil {
			t.Fatalf("the forged state does not decode: %v", err)
		}
		got, _, err := p.MineIncremental(ctx, full, s, spec)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := p.MinePrepared(ctx, full, spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := got.Incremental; !st.Warm || !st.ColdFallback || st.PairsComputed != 14*13/2 || len(st.ChangedLabels) != 0 {
			t.Errorf("stats %+v, want a warm run over 91 pairs that fell back cold and changed no labels", st)
		}
		if !reflect.DeepEqual(got.Clusters, cold.Clusters) {
			t.Errorf("served %+v, the cold mine %+v", got.Clusters, cold.Clusters)
		}
	})
}

// TestMineIncrementalZeroDelta replays a warm run over the log its
// in-memory state already covers: no pair is computed, the carried
// matrix is served as is, not copied, and the result is the cold one.
func TestMineIncrementalZeroDelta(t *testing.T) {
	ctx := context.Background()
	p, _, full := prepareFixture(t)
	for _, spec := range fixtureSpecs {
		t.Run(spec.Algorithm.String(), func(t *testing.T) {
			cold, state, err := p.MineIncremental(ctx, full, nil, spec)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := p.MineIncremental(ctx, full, state, spec)
			if err != nil {
				t.Fatal(err)
			}
			if st := got.Incremental; !st.Warm || st.ColdFallback || st.PairsComputed != 0 {
				t.Errorf("stats %+v, want a warm run with no pairs", st)
			}
			if (got.Matrix == nil) != (state.matrix == nil) || got.Matrix != nil && &got.Matrix[0] != &state.matrix[0] {
				t.Error("the zero-delta run did not serve the carried matrix")
			}
			if !sameMine(got, cold) {
				t.Error("the zero-delta run differs from the cold mine")
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
