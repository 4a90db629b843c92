package service

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	dpe "repro"
)

// growSpec is the DBSCAN spec the growth tests mine clusteredLog with.
var growSpec = dpe.MineSpec{Algorithm: dpe.MineDBSCAN, Eps: 0.4, MinPts: 2}

// tokenSession opens a token-measure session on a fresh test server.
func tokenSession(t *testing.T) *Session {
	t.Helper()
	sess, err := NewClient(startServer(t, Config{}).URL).NewSession(context.Background(), dpe.MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// coldMatrix is the in-process matrix of the concatenated logs.
func coldMatrix(t *testing.T, logs ...[]string) dpe.Matrix {
	t.Helper()
	p, err := dpe.NewProvider(dpe.MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	for _, l := range logs {
		log = append(log, l...)
	}
	m, err := p.DistanceMatrix(context.Background(), log)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func cloneMatrix(m dpe.Matrix) dpe.Matrix {
	c := make(dpe.Matrix, len(m))
	for i, row := range m {
		c[i] = append([]float64(nil), row...)
	}
	return c
}

// TestAppendGrowBranch appends twice onto one old matrix, the one the
// session returned last: the first append grows it in place, the
// second (a branch) copies it. Both equal their cold matrices, and
// neither changes old or the other.
func TestAppendGrowBranch(t *testing.T) {
	ctx := context.Background()
	log := clusteredLog()
	sess := tokenSession(t)
	m0, err := sess.DistanceMatrix(ctx, log[:6])
	if err != nil {
		t.Fatal(err)
	}
	old, err := sess.Append(ctx, m0, log[:6], log[6:8])
	if err != nil {
		t.Fatal(err)
	}
	frozen := cloneMatrix(old)

	a, err := sess.Append(ctx, old, log[:8], log[8:10])
	if err != nil {
		t.Fatal(err)
	}
	b, res, err := sess.AppendMine(ctx, old, log[:8], log[10:12], growSpec)
	if err != nil {
		t.Fatal(err)
	}
	wantA, wantB := coldMatrix(t, log[:10]), coldMatrix(t, log[:8], log[10:12])
	if !reflect.DeepEqual(a, wantA) {
		t.Error("the in-place append differs from the cold matrix")
	}
	if !reflect.DeepEqual(b, wantB) || !reflect.DeepEqual(res.Matrix, wantB) {
		t.Error("the branch's append_mine differs from the cold matrix")
	}
	if !reflect.DeepEqual(old, frozen) {
		t.Error("appending onto old changed it")
	}
	if &a[0][0] != &old[0][0] {
		t.Error("the append onto the session's last matrix copied it instead of growing it in place")
	}
	if &b[0][0] == &old[0][0] {
		t.Error("the branch grew storage another matrix had grown into")
	}
}

// TestAppendGrowCallerAppend appends to the rows and the row list of a
// returned matrix. The matrix still grows in place, and the caller's
// appended entries and the next append's result do not reach each
// other.
func TestAppendGrowCallerAppend(t *testing.T) {
	ctx := context.Background()
	log := clusteredLog()
	sess := tokenSession(t)
	m0, err := sess.DistanceMatrix(ctx, log[:6])
	if err != nil {
		t.Fatal(err)
	}
	m1, err := sess.Append(ctx, m0, log[:6], log[6:8])
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, len(m1))
	for i := range m1 {
		rows[i] = append(m1[i], -1)
	}
	list := append(m1, []float64{-2})

	m2, _, err := sess.AppendMine(ctx, m1, log[:8], log[8:12], growSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m2, coldMatrix(t, log)) {
		t.Error("the append after the caller's appends differs from the cold matrix")
	}
	if &m2[0][0] != &m1[0][0] {
		t.Error("the matrix did not grow in place")
	}
	for i, row := range rows {
		if row[len(m1)] != -1 {
			t.Errorf("the caller's entry appended to row %d reads %v, want -1", i, row[len(m1)])
		}
	}
	if list[len(m1)][0] != -2 {
		t.Errorf("the caller's row appended to the list reads %v, want [-2]", list[len(m1)])
	}
}

// TestAppendGrowInterleavedChains alternates two append chains on one
// session, over clusteredLog in order and reversed: each append is onto
// the other chain's matrix's predecessor, so each copies, and every
// result equals its cold matrix.
func TestAppendGrowInterleavedChains(t *testing.T) {
	ctx := context.Background()
	logs := [2][]string{clusteredLog(), clusteredLog()}
	for i, j := 0, len(logs[1])-1; i < j; i, j = i+1, j-1 {
		logs[1][i], logs[1][j] = logs[1][j], logs[1][i]
	}
	sess := tokenSession(t)
	var ms [2]dpe.Matrix
	for c, log := range logs {
		var err error
		if ms[c], err = sess.DistanceMatrix(ctx, log[:4]); err != nil {
			t.Fatal(err)
		}
	}
	for n := 4; n < len(logs[0]); n += 2 {
		for c, log := range logs {
			var err error
			if c == 0 {
				ms[c], err = sess.Append(ctx, ms[c], log[:n], log[n:n+2])
			} else {
				ms[c], _, err = sess.AppendMine(ctx, ms[c], log[:n], log[n:n+2], growSpec)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ms[c], coldMatrix(t, log[:n+2])) {
				t.Fatalf("chain %d at %d queries differs from the cold matrix", c, n+2)
			}
		}
	}
}

// TestAppendGrowConcurrent appends onto one old matrix, the session's
// last, from 8 goroutines at once: at most one grows it in place, the
// rest copy, and every result equals its cold matrix. Run it under
// -race.
func TestAppendGrowConcurrent(t *testing.T) {
	ctx := context.Background()
	log := clusteredLog()
	sess := tokenSession(t)
	m0, err := sess.DistanceMatrix(ctx, log[:6])
	if err != nil {
		t.Fatal(err)
	}
	old, err := sess.Append(ctx, m0, log[:6], log[6:8])
	if err != nil {
		t.Fatal(err)
	}
	frozen := cloneMatrix(old)
	tails := make([][]string, 8)
	for g := range tails {
		tails[g] = []string{log[8+g%4], log[8+(g+1)%4]}
	}
	got := make([]dpe.Matrix, len(tails))
	var wg sync.WaitGroup
	for g, tail := range tails {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if g%2 == 0 {
				got[g], err = sess.Append(ctx, old, log[:8], tail)
			} else {
				got[g], _, err = sess.AppendMine(ctx, old, log[:8], tail, growSpec)
			}
			if err != nil {
				t.Errorf("append %d: %v", g, err)
			}
		}()
	}
	wg.Wait()
	for g, tail := range tails {
		if !reflect.DeepEqual(got[g], coldMatrix(t, log[:8], tail)) {
			t.Errorf("append %d differs from the cold matrix", g)
		}
	}
	if !reflect.DeepEqual(old, frozen) {
		t.Error("the concurrent appends changed old")
	}
}

// TestAppendGrowAllocBytes gates the bytes the growth helper allocates
// over ingest-mine's chain shape: a base of 128 queries, a bootstrap
// that appends none, then 24 appends of 8. Over the whole chain it may
// allocate at most 4·8·n² bytes for the final n: geometric growth keeps
// the total within a constant factor of the last matrix, however many
// appends the chain has. Splicing a fresh n×n matrix per append, as
// dpe.SpliceMatrixRows does, allocates about three times that.
func TestAppendGrowAllocBytes(t *testing.T) {
	const base, k, appends = 128, 8, 24
	const n = base + k*appends
	rng := rand.New(rand.NewPCG(128, 8))
	full := dpe.Matrix(make([][]float64, n))
	for i := range full {
		full[i] = make([]float64, n)
		for j := range i {
			full[i][j] = rng.Float64()
			full[j][i] = full[i][j]
		}
	}
	start := make(dpe.Matrix, base)
	for i := range start {
		start[i] = append([]float64(nil), full[i][:base]...)
	}
	chunks := make([][][]float64, appends)
	for a := range chunks {
		lo := base + a*k
		for r := lo; r < lo+k; r++ {
			chunks[a] = append(chunks[a], append([]float64(nil), full[r][:lo+k]...))
		}
	}

	s := &Session{}
	var m dpe.Matrix
	var err error
	got := allocatedBy(func() {
		if m, err = s.grow(start, nil); err != nil {
			return
		}
		for _, rows := range chunks {
			if m, err = s.grow(m, rows); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, full) {
		t.Fatal("the grown matrix differs from the full one")
	}
	t.Logf("the chain allocated %d KiB, %d KiB per call", got>>10, got/(appends+1)>>10)
	if bound := uint64(4 * 8 * n * n); got > bound {
		t.Errorf("the chain allocated %d bytes, bound %d", got, bound)
	}
}

// TestClientKeepsConnection runs /mine and append_mine calls, whose
// bodies outgrow the server's write buffer and so arrive chunked, on
// one session: the client must read each body to EOF, so the transport
// reuses one connection for all of them.
func TestClientKeepsConnection(t *testing.T) {
	srv := startServer(t, Config{})
	var dials atomic.Int64
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		var d net.Dialer
		return d.DialContext(ctx, network, addr)
	}}
	t.Cleanup(tr.CloseIdleConnections)
	ctx := context.Background()
	sess, err := NewClient(srv.URL, WithHTTPClient(&http.Client{Transport: tr})).NewSession(ctx, dpe.MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	log := make([]string, 48)
	for i := range log {
		log[i] = fmt.Sprintf("SELECT c%d, c%d FROM t%d WHERE a > %d", i%4, i%6, i%3, i)
	}
	m, err := sess.DistanceMatrix(ctx, log[:32])
	if err != nil {
		t.Fatal(err)
	}
	for n := 32; n < len(log); n += 4 {
		if _, err := sess.Mine(ctx, log[:n], growSpec); err != nil {
			t.Fatal(err)
		}
		if m, _, err = sess.AppendMine(ctx, m, log[:n], log[n:n+4], growSpec); err != nil {
			t.Fatal(err)
		}
	}
	if got := dials.Load(); got != 1 {
		t.Errorf("the calls opened %d connections, want 1", got)
	}
}

// TestAppendRaggedOld passes an old matrix with one short row: Append
// and AppendMine must reject it before the round trip, so the server
// registers no combined log.
func TestAppendRaggedOld(t *testing.T) {
	ctx := context.Background()
	log := clusteredLog()
	sess := tokenSession(t)
	old, err := sess.DistanceMatrix(ctx, log[:8])
	if err != nil {
		t.Fatal(err)
	}
	before, err := sess.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ragged := cloneMatrix(old)
	ragged[3] = ragged[3][:7]
	if _, err := sess.Append(ctx, ragged, log[:8], log[8:]); err == nil {
		t.Error("Append accepted a ragged old matrix")
	}
	if _, _, err := sess.AppendMine(ctx, ragged, log[:8], log[8:], growSpec); err == nil {
		t.Error("AppendMine accepted a ragged old matrix")
	}
	after, err := sess.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Logs != before.Logs {
		t.Errorf("the session holds %d logs after the rejected appends, %d before", after.Logs, before.Logs)
	}
}
