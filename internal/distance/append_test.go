package distance

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/accessarea"
	"repro/internal/value"
)

// pairDist is a deterministic asymmetric-looking but well-defined
// distance for tests: distinct for distinct pairs.
func pairDist(i, j int) (float64, error) {
	return float64(i*1000 + j), nil
}

func TestAppendRowsMatchesBuildMatrix(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct{ n, k, par int }{
		{0, 3, 1}, {1, 1, 1}, {5, 0, 1}, {5, 3, 1}, {5, 3, 4}, {8, 8, 3}, {12, 1, 2},
	} {
		t.Run(fmt.Sprintf("n=%d,k=%d,par=%d", tc.n, tc.k, tc.par), func(t *testing.T) {
			total := tc.n + tc.k
			want, err := BuildMatrix(ctx, total, 1, pairDist)
			if err != nil {
				t.Fatal(err)
			}
			old, err := BuildMatrix(ctx, tc.n, 1, pairDist)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ExtendMatrix(ctx, old, total, tc.par, pairDist)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("ExtendMatrix differs from BuildMatrix:\ngot  %v\nwant %v", got, want)
			}
		})
	}
}

// TestAppendRowsPairCount is the incremental path's contract: exactly
// n·k + k·(k−1)/2 pair computations, no matter the parallelism — never
// a pair between two old items.
func TestAppendRowsPairCount(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct{ n, k, par int }{
		{10, 4, 1}, {10, 4, 3}, {0, 5, 2}, {7, 1, 1}, {3, 9, 4},
	} {
		var calls atomic.Int64
		counted := func(i, j int) (float64, error) {
			calls.Add(1)
			if i >= j {
				t.Errorf("pair (%d,%d): want i < j", i, j)
			}
			if j < tc.n {
				t.Errorf("pair (%d,%d) is entirely inside the old block", i, j)
			}
			return pairDist(i, j)
		}
		if _, err := AppendRows(ctx, tc.n, tc.n+tc.k, tc.par, counted); err != nil {
			t.Fatal(err)
		}
		if want := int64(AppendPairs(tc.n, tc.k)); calls.Load() != want {
			t.Errorf("n=%d k=%d par=%d: %d pair computations, want %d",
				tc.n, tc.k, tc.par, calls.Load(), want)
		}
	}
}

func TestAppendRowsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AppendRows(ctx, 50, 100, 2, pairDist); !errors.Is(err, context.Canceled) {
		t.Errorf("AppendRows with cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestAppendRowsBadRange(t *testing.T) {
	ctx := context.Background()
	if _, err := AppendRows(ctx, 5, 3, 1, pairDist); err == nil {
		t.Error("total < n should error")
	}
	if _, err := AppendRows(ctx, -1, 3, 1, pairDist); err == nil {
		t.Error("negative n should error")
	}
}

func TestSpliceRowsValidation(t *testing.T) {
	old := Matrix{{0, 1}, {1, 0}}
	if _, err := SpliceRows(old, [][]float64{{1, 2}}); err == nil {
		t.Error("short appended row should error")
	}
	if _, err := SpliceRows(Matrix{{0, 1}}, nil); err == nil {
		t.Error("ragged old matrix should error")
	}
}

// TestMetricExtend pins the Extend contract on every measure:
// Extend(prev, new) equals Prepare(old ∘ new) distance-wise.
func TestMetricExtend(t *testing.T) {
	ctx := context.Background()
	oldLog := []string{
		"SELECT a FROM r WHERE a > 1",
		"SELECT b FROM r WHERE b > 20",
		"SELECT a, b FROM r",
	}
	newLog := []string{
		"SELECT a FROM r WHERE a > 7",
		"SELECT b FROM r",
	}
	arts := Artifacts{
		Catalog: resultFixture(t),
		Domains: map[string]accessarea.Domain{
			"a": {Min: value.Int(0), Max: value.Int(100)},
			"b": {Min: value.Int(0), Max: value.Int(1000)},
		},
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			m, err := New(name, arts)
			if err != nil {
				t.Fatal(err)
			}
			prev, err := m.Prepare(ctx, oldLog)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.Extend(ctx, prev, newLog)
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.Prepare(ctx, append(append([]string(nil), oldLog...), newLog...))
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != want.Len() {
				t.Fatalf("extended Len = %d, want %d", got.Len(), want.Len())
			}
			for i := 0; i < want.Len(); i++ {
				for j := i + 1; j < want.Len(); j++ {
					dg, err := got.Distance(i, j)
					if err != nil {
						t.Fatal(err)
					}
					dw, err := want.Distance(i, j)
					if err != nil {
						t.Fatal(err)
					}
					if dg != dw {
						t.Errorf("pair (%d,%d): extended %v, combined %v", i, j, dg, dw)
					}
				}
			}
			// A foreign prepared state is rejected, not misread.
			if _, err := m.Extend(ctx, foreignPrepared{}, newLog); err == nil {
				t.Error("Extend accepted a foreign prepared state")
			}
		})
	}
}

type foreignPrepared struct{}

func (foreignPrepared) Len() int                           { return 0 }
func (foreignPrepared) Distance(i, j int) (float64, error) { return 0, nil }
