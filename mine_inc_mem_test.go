package dpe

import (
	"context"
	"math"
	"runtime"
	"sort"
	"testing"
)

// dbscanChain prepares the chain one ingest-mine tenant mines: a
// generated log of 128 + 24·8 queries under the token measure, as the
// base and each of its 24 extensions by 8, with the DBSCAN spec
// perfbench derives from the base matrix (eps the 10th-percentile
// distance, clamped to [0.05, 0.5]; MinPts 4). The provider runs
// sequentially, so every allocation of a call is the caller's.
func dbscanChain(t *testing.T) (*Provider, []*PreparedLog, MineSpec) {
	t.Helper()
	const base, k, appends = 128, 8, 24
	ctx := context.Background()
	w, err := GenerateWorkload(WorkloadConfig{
		Seed: "dbscan-chain", Queries: base + k*appends, Rows: 40,
		IncludeAggregates: true, IncludeJoins: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProvider(MeasureToken, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := p.Prepare(ctx, w.Queries[:base])
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.DistanceMatrixPrepared(ctx, pl)
	if err != nil {
		t.Fatal(err)
	}
	var ds []float64
	for i := range m {
		ds = append(ds, m[i][i+1:]...)
	}
	sort.Float64s(ds)
	eps := math.Min(math.Max(ds[int(0.1*float64(len(ds)-1))], 0.05), 0.5)
	chain := []*PreparedLog{pl}
	for a := 0; a < appends; a++ {
		lo := base + a*k
		if pl, err = p.ExtendPrepared(ctx, pl, w.Queries[lo:lo+k]); err != nil {
			t.Fatal(err)
		}
		chain = append(chain, pl)
	}
	return p, chain, MineSpec{Algorithm: MineDBSCAN, Eps: eps, MinPts: 4}
}

// edgeCount is the number of directed edges of an adjacency.
func edgeCount(adj [][]int) int {
	e := 0
	for _, nb := range adj {
		e += len(nb)
	}
	return e
}

// allocBytes reports the bytes f allocates, the least of three runs so
// that a background goroutine's allocation cannot fail a bound.
func allocBytes(f func()) int64 {
	var before, after runtime.MemStats
	least := int64(math.MaxInt64)
	for r := 0; r < 3; r++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, int64(after.TotalAlloc-before.TotalAlloc))
	}
	return least
}

// TestWarmDBSCANAppendAllocBytes gates the bytes a warm DBSCAN append
// allocates at O(n·k + edges): the k new rows, the graph's lists that
// change, and O(n) for the graph's headers, the labels and the label
// delta. No n×n matrix is spliced and no list is copied twice, so each
// append stays within twice the rows' and the graph's bytes.
func TestWarmDBSCANAppendAllocBytes(t *testing.T) {
	ctx := context.Background()
	p, chain, spec := dbscanChain(t)
	_, state, err := p.MineIncremental(ctx, chain[0], nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	var total, most int64
	for _, pl := range chain[1:] {
		var next *MineState
		bytes := allocBytes(func() {
			if _, next, err = p.MineIncremental(ctx, pl, state, spec); err != nil {
				t.Fatal(err)
			}
		})
		n, k, edges := int64(pl.Len()), int64(pl.Len()-state.n), int64(edgeCount(next.adj))
		if bound := 2*8*(n*k+edges) + 128*n + 16<<10; bytes > bound {
			t.Errorf("n=%d: a warm append allocated %d B, bound 2·8·(n·k + %d edges) + 128·n + 16 KiB = %d B",
				n, bytes, edges, bound)
		}
		total, most = total+bytes, max(most, bytes)
		state = next
	}
	t.Logf("%d warm appends: %.1f KiB on average, %.1f KiB at most", len(chain)-1,
		float64(total)/float64(len(chain)-1)/1024, float64(most)/1024)
}

// TestDBSCANStateSizeBytes checks that a DBSCAN state holds the
// eps-graph and the labels alone, cold and after every warm append, so
// its SizeBytes has no n² term.
func TestDBSCANStateSizeBytes(t *testing.T) {
	ctx := context.Background()
	p, chain, spec := dbscanChain(t)
	var state *MineState
	for _, pl := range chain {
		var err error
		if _, state, err = p.MineIncremental(ctx, pl, state, spec); err != nil {
			t.Fatal(err)
		}
		n, edges := int64(state.n), int64(edgeCount(state.adj))
		if state.matrix != nil {
			t.Errorf("n=%d: the DBSCAN state carries a matrix", n)
		}
		if size, bound := state.SizeBytes(), 8*edges+64*n+1024; size > bound {
			t.Errorf("n=%d: SizeBytes %d, bound 8·%d edges + 64·n + 1 KiB = %d", n, size, edges, bound)
		}
	}
	t.Logf("n=%d: SizeBytes %d", state.n, state.SizeBytes())
}
