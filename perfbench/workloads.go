package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"
	"sync/atomic"

	dpe "repro"
	"repro/internal/distance"
	"repro/internal/service"
)

// measure is every workload's distance measure. Token matrices carry
// full-precision distances, so the wire moves ~940 KB of JSON per
// n=256 matrix.
const measure = dpe.MeasureToken

// workload is one seeded traffic mix against a fresh server stack.
type workload interface {
	// setup is the timed set-up on a fresh stack: owner keys, log
	// encryption, session creates, uploads, and each tenant's first
	// cold request.
	setup(ctx context.Context, s *stack) error
	// reference builds the expected answers from the inputs setup
	// encrypted and checks Definition 1 for every tenant. It runs once,
	// untimed.
	reference(ctx context.Context) error
	// warmup runs untimed ops through rec before the timed phase.
	warmup(ctx context.Context, s *stack, rec func(c int) *recorder) error
	// step runs client c's next unit of work: one op, or for
	// ingest-mine one whole cycle of ops.
	step(ctx context.Context, c int, rec *recorder)
	// approxCounts returns the cumulative approx-index cache outcomes
	// of the workload's sessions.
	approxCounts(ctx context.Context) (hits, misses int64)
}

// shape is a workload's size, as spec.json records it.
type shape struct {
	tenants, n, k, appends int
	// warmSteps is the number of untimed steps per client.
	warmSteps int
}

var shapes = map[string]shape{
	"matrix-warm":    {tenants: 8, n: 256, warmSteps: 8},
	"neighbors-topk": {tenants: 4, n: 2048, k: 10, warmSteps: 128},
	"ingest-mine":    {tenants: 2, n: 128, k: 8, appends: 24, warmSteps: 1},
}

// clients is the closed loop's concurrency: two clients, one per vCPU
// of the sizing host; two clients were about half as sensitive to host
// CPU steal as one.
const clients = 2

// tenant is one data owner: a plaintext log, the owner's secret, and —
// after setup — the encrypted log and the remote session holding it.
type tenant struct {
	plain  []string
	schema *dpe.Schema
	master []byte

	enc   []string
	logID string
	sess  *service.Session
}

// genTenants generates count tenants' plaintext logs of n queries from
// the seed alone. The owner secret is fixed per tenant index, so key
// generation costs the same under every seed.
func genTenants(name string, seed int64, count, n int) ([]*tenant, error) {
	out := make([]*tenant, count)
	for i := range out {
		w, err := dpe.GenerateWorkload(dpe.WorkloadConfig{
			Seed:    fmt.Sprintf("perfbench/%s/seed-%d/tenant-%d", name, seed, i),
			Queries: n, Rows: 40, IncludeAggregates: true, IncludeJoins: true,
		})
		if err != nil {
			return nil, err
		}
		out[i] = &tenant{plain: w.Queries, schema: w.Schema, master: []byte(fmt.Sprintf("perfbench-owner-%d", i))}
	}
	return out, nil
}

// encrypt derives the owner's keys and encrypts the log for measure.
func (t *tenant) encrypt() error {
	owner, err := dpe.NewOwner(t.master, t.schema, dpe.Config{})
	if err != nil {
		return err
	}
	if err := owner.DeclareJoins(t.plain); err != nil {
		return err
	}
	if t.enc, err = owner.EncryptLog(t.plain, measure); err != nil {
		return err
	}
	return nil
}

// open creates the tenant's session and uploads prefix queries of its
// encrypted log.
func (t *tenant) open(ctx context.Context, s *stack, prefix int) error {
	sess, err := s.client.NewSession(ctx, measure)
	if err != nil {
		return err
	}
	t.sess = sess
	t.logID, err = sess.UploadLog(ctx, t.enc[:prefix])
	return err
}

func sessionApprox(ctx context.Context, ts []*tenant) (hits, misses int64) {
	for _, t := range ts {
		if st, err := t.sess.Stats(ctx); err == nil {
			hits += st.ApproxHits
			misses += st.ApproxMisses
		}
	}
	return hits, misses
}

// checkDefinition1 verifies distance preservation (Definition 1) of a
// tenant's log: the encrypted log's matrix equals the plaintext's.
func checkDefinition1(ctx context.Context, p *dpe.Provider, plain []string, encM dpe.Matrix) error {
	plainM, err := p.DistanceMatrix(ctx, plain)
	if err != nil {
		return err
	}
	rep, err := p.VerifyPreservation(plainM, encM)
	if err != nil {
		return err
	}
	if !rep.Preserved {
		return fmt.Errorf("definition 1 violated: max error %g over %d pairs %s", rep.MaxAbsError, rep.Pairs, rep.Error)
	}
	return nil
}

func checksum(m dpe.Matrix) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, row := range m {
		for _, v := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func queryBytes(qs []string) int64 {
	var n int64
	for _, q := range qs {
		n += int64(len(q))
	}
	return n
}

// replayMatrix replays the matrix call's public codec and client calls
// on the op's own inputs.
func replayMatrix(tr *tracer, op int64, log []string, logID string, m dpe.Matrix) {
	tr.replay(op, "replay.logid", func() int64 { service.LogID(log); return 0 })
	var req []byte
	tr.replay(op, "replay.req_encode", func() int64 {
		req, _ = json.Marshal(&service.MatrixRequest{Log: logID})
		return int64(len(req))
	})
	tr.replay(op, "replay.req_decode", func() int64 {
		var r service.MatrixRequest
		json.Unmarshal(req, &r)
		return 0
	})
	var buf bytes.Buffer
	tr.replay(op, "replay.resp_encode", func() int64 {
		service.WriteMatrix(&buf, m)
		return int64(buf.Len())
	})
	tr.replay(op, "replay.resp_decode", func() int64 {
		service.ReadMatrix(bytes.NewReader(buf.Bytes()))
		return 0
	})
}

// ---- matrix-warm ----

// matrixWarm pulls warm n=256 matrices round-robin over 8 tenants: the
// kernel builds each in ~1 ms, so the wire codecs do nearly all of the
// op's work.
type matrixWarm struct {
	tenants []*tenant
	warm    int
	sums    []uint64
	next    atomic.Int64
	pairs   int64
}

func newMatrixWarm(seed int64, sh shape) (*matrixWarm, error) {
	ts, err := genTenants("matrix-warm", seed, sh.tenants, sh.n)
	if err != nil {
		return nil, err
	}
	return &matrixWarm{tenants: ts, warm: sh.warmSteps, sums: make([]uint64, len(ts)), pairs: int64(sh.n * (sh.n - 1) / 2)}, nil
}

func (w *matrixWarm) setup(ctx context.Context, s *stack) error {
	for _, t := range w.tenants {
		if err := t.encrypt(); err != nil {
			return err
		}
		if err := t.open(ctx, s, len(t.enc)); err != nil {
			return err
		}
		if _, err := t.sess.DistanceMatrix(ctx, t.enc); err != nil {
			return err
		}
	}
	return nil
}

func (w *matrixWarm) reference(ctx context.Context) error {
	p, err := dpe.NewProvider(measure)
	if err != nil {
		return err
	}
	for i, t := range w.tenants {
		m, err := p.DistanceMatrix(ctx, t.enc)
		if err != nil {
			return err
		}
		if err := checkDefinition1(ctx, p, t.plain, m); err != nil {
			return fmt.Errorf("matrix-warm tenant %d: %w", i, err)
		}
		w.sums[i] = checksum(m)
	}
	return nil
}

func (w *matrixWarm) warmup(ctx context.Context, s *stack, rec func(int) *recorder) error {
	return runSteps(ctx, w, w.warm, rec)
}

func (w *matrixWarm) step(ctx context.Context, c int, rec *recorder) {
	i := int((w.next.Add(1) - 1) % int64(len(w.tenants)))
	t := w.tenants[i]
	var m dpe.Matrix
	op, err := rec.op(ctx, "matrix", func(ctx context.Context) (err error) {
		m, err = t.sess.DistanceMatrix(ctx, t.enc)
		return err
	})
	if err != nil {
		return
	}
	if checksum(m) != w.sums[i] {
		rec.fail(fmt.Errorf("matrix-warm: tenant %d matrix differs from the reference", i))
		return
	}
	rec.pairs += w.pairs
	if op != 0 {
		replayMatrix(rec.tr, op, t.enc, t.logID, m)
	}
}

func (w *matrixWarm) approxCounts(ctx context.Context) (int64, int64) {
	return sessionApprox(ctx, w.tenants)
}

// ---- neighbors-topk ----

// neighborsTopK asks top-10 neighbors of seeded, never-repeating
// queries over 4 tenants' n=2048 logs: responses are ~1 KB, so the
// per-request path (client log hashing, re-rank, candidates, HTTP)
// dominates.
type neighborsTopK struct {
	tenants []*tenant
	k       int
	warm    int
	order   [][2]int // seeded permutation of (tenant, query)
	next    atomic.Int64

	exact []distance.Prepared // per tenant: exact pairwise distances
	truth [][][]float64       // per tenant, per query: exact top-k genuine distances
	index []*dpe.ApproxIndex  // per tenant: replica of the server's index
}

func newNeighborsTopK(seed int64, sh shape) (*neighborsTopK, error) {
	ts, err := genTenants("neighbors-topk", seed, sh.tenants, sh.n)
	if err != nil {
		return nil, err
	}
	order := make([][2]int, 0, sh.tenants*sh.n)
	for t := 0; t < sh.tenants; t++ {
		for q := 0; q < sh.n; q++ {
			order = append(order, [2]int{t, q})
		}
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x6e6569676862))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return &neighborsTopK{tenants: ts, k: sh.k, warm: sh.warmSteps, order: order}, nil
}

func (w *neighborsTopK) setup(ctx context.Context, s *stack) error {
	for _, t := range w.tenants {
		if err := t.encrypt(); err != nil {
			return err
		}
		if err := t.open(ctx, s, len(t.enc)); err != nil {
			return err
		}
		if _, err := t.sess.Neighbors(ctx, t.enc, 0, w.k); err != nil {
			return err
		}
	}
	return nil
}

func (w *neighborsTopK) reference(ctx context.Context) error {
	p, err := dpe.NewProvider(measure)
	if err != nil {
		return err
	}
	metric, err := distance.New(measure.String(), distance.Artifacts{})
	if err != nil {
		return err
	}
	for i, t := range w.tenants {
		m, err := p.DistanceMatrix(ctx, t.enc)
		if err != nil {
			return err
		}
		if err := checkDefinition1(ctx, p, t.plain, m); err != nil {
			return fmt.Errorf("neighbors-topk tenant %d: %w", i, err)
		}
		w.truth = append(w.truth, topDistances(m, w.k))
		prep, err := metric.Prepare(ctx, t.enc)
		if err != nil {
			return err
		}
		w.exact = append(w.exact, prep)
		pl, err := p.Prepare(ctx, t.enc)
		if err != nil {
			return err
		}
		idx, err := p.BuildApproxIndex(pl)
		if err != nil {
			return err
		}
		w.index = append(w.index, idx)
	}
	return nil
}

// topDistances returns, per query, the k smallest distances to other
// queries that share any element (distance < 1: which disjoint queries
// tie into an exact top-k is an index-order artifact).
func topDistances(m dpe.Matrix, k int) [][]float64 {
	out := make([][]float64, len(m))
	row := make([]float64, 0, len(m))
	for q := range m {
		row = row[:0]
		for j, d := range m[q] {
			if j != q && d < 1 {
				row = append(row, d)
			}
		}
		sort.Float64s(row)
		if len(row) > k {
			row = row[:k]
		}
		out[q] = append([]float64(nil), row...)
	}
	return out
}

func (w *neighborsTopK) warmup(ctx context.Context, s *stack, rec func(int) *recorder) error {
	return runSteps(ctx, w, w.warm, rec)
}

func (w *neighborsTopK) step(ctx context.Context, c int, rec *recorder) {
	pick := w.order[(w.next.Add(1)-1)%int64(len(w.order))]
	ti, q := pick[0], pick[1]
	t := w.tenants[ti]
	var res *dpe.NeighborsResult
	op, err := rec.op(ctx, "neighbors", func(ctx context.Context) (err error) {
		res, err = t.sess.Neighbors(ctx, t.enc, q, w.k)
		return err
	})
	if err != nil {
		return
	}
	if err := w.check(ti, q, res); err != nil {
		rec.fail(err)
		return
	}
	rec.recall += recallAt(res.Neighbors, w.truth[ti][q])
	rec.recallN++
	rec.cands += int64(res.Candidates)
	rec.pairs += int64(res.Candidates)
	if op != 0 {
		tr := rec.tr
		tr.replay(op, "replay.logid", func() int64 { service.LogID(t.enc); return 0 })
		var body []byte
		tr.replay(op, "replay.resp_encode", func() int64 {
			body, _ = json.Marshal(service.NeighborsResponse{Neighbors: res.Neighbors, Candidates: res.Candidates, N: res.N})
			return int64(len(body))
		})
		tr.replay(op, "replay.resp_decode", func() int64 {
			var r service.NeighborsResponse
			json.Unmarshal(body, &r)
			return 0
		})
		tr.replay(op, "replay.candidates", func() int64 { return int64(len(w.index[ti].Candidates(q))) })
	}
}

// check verifies one answer: the right length, ranked ascending, and
// every distance equal to the exact one.
func (w *neighborsTopK) check(ti, q int, res *dpe.NeighborsResult) error {
	n := len(w.tenants[ti].enc)
	want := min(w.k, res.Candidates)
	if res.N != n || len(res.Neighbors) != want {
		return fmt.Errorf("neighbors-topk: tenant %d query %d: %d neighbors of %d (n=%d), want %d of %d", ti, q, len(res.Neighbors), res.N, n, want, n)
	}
	prev := math.Inf(-1)
	for _, nb := range res.Neighbors {
		if nb.Index < 0 || nb.Index >= n || nb.Index == q {
			return fmt.Errorf("neighbors-topk: tenant %d query %d: neighbor index %d", ti, q, nb.Index)
		}
		d, err := w.exact[ti].Distance(q, nb.Index)
		if err != nil {
			return err
		}
		if d != nb.Distance || nb.Distance < prev {
			return fmt.Errorf("neighbors-topk: tenant %d query %d: neighbor %d distance %v, exact %v", ti, q, nb.Index, nb.Distance, d)
		}
		prev = nb.Distance
	}
	return nil
}

// recallAt is the share of the exact top-k found, counting a returned
// neighbor as found when its (verified exact) distance is within the
// k-th exact distance, so ties at the boundary count either way.
func recallAt(got []dpe.Neighbor, truth []float64) float64 {
	if len(truth) == 0 {
		return 1
	}
	bound := truth[len(truth)-1]
	hits := 0
	for _, nb := range got {
		if nb.Distance <= bound && nb.Distance < 1 {
			hits++
		}
	}
	return float64(min(hits, len(truth))) / float64(len(truth))
}

func (w *neighborsTopK) approxCounts(ctx context.Context) (int64, int64) {
	return sessionApprox(ctx, w.tenants)
}

// ---- ingest-mine ----

// ingestMine streams appends with incremental DBSCAN on 2 tenants at
// once: the journaled write path (combined log, prepared snapshot and
// mining state per append, each fsynced) beside the two read paths.
// Every cycle replays the same stream, so the op mix is the same at any
// run length.
type ingestMine struct {
	tenants []*tenant
	base    int
	k       int
	appends int
	warm    int
	s       *stack

	spec   []dpe.MineSpec     // per tenant, eps from the pulled base matrix
	full   []dpe.Matrix       // per tenant: reference matrix of the whole stream
	labels [][]int            // per tenant: canonical cold DBSCAN labels
	states [][]*dpe.MineState // per tenant: bootstrap + per-append states

	approxHits, approxMisses atomic.Int64
}

func newIngestMine(seed int64, sh shape) (*ingestMine, error) {
	ts, err := genTenants("ingest-mine", seed, sh.tenants, sh.n+sh.k*sh.appends)
	if err != nil {
		return nil, err
	}
	return &ingestMine{tenants: ts, base: sh.n, k: sh.k, appends: sh.appends, warm: sh.warmSteps, spec: make([]dpe.MineSpec, len(ts))}, nil
}

// dbscanSpec derives the mining spec from the base matrix as incmine
// does: eps is the 10th-percentile off-diagonal distance clamped to
// [0.05, 0.5].
func dbscanSpec(m dpe.Matrix) dpe.MineSpec {
	var ds []float64
	for i := range m {
		ds = append(ds, m[i][i+1:]...)
	}
	sort.Float64s(ds)
	eps := ds[int(0.10*float64(len(ds)-1))]
	eps = math.Min(math.Max(eps, 0.05), 0.5)
	return dpe.MineSpec{Algorithm: dpe.MineDBSCAN, Eps: eps, MinPts: 4}
}

func (w *ingestMine) setup(ctx context.Context, s *stack) error {
	w.s = s
	for i, t := range w.tenants {
		if err := t.encrypt(); err != nil {
			return err
		}
		if err := t.open(ctx, s, w.base); err != nil {
			return err
		}
		base := t.enc[:w.base]
		m, err := t.sess.DistanceMatrix(ctx, base)
		if err != nil {
			return err
		}
		w.spec[i] = dbscanSpec(m)
		if _, _, err := t.sess.AppendMine(ctx, m, base, nil, w.spec[i]); err != nil {
			return err
		}
	}
	return nil
}

func (w *ingestMine) reference(ctx context.Context) error {
	p, err := dpe.NewProvider(measure)
	if err != nil {
		return err
	}
	for i, t := range w.tenants {
		m, err := p.DistanceMatrix(ctx, t.enc)
		if err != nil {
			return err
		}
		if err := checkDefinition1(ctx, p, t.plain, m); err != nil {
			return fmt.Errorf("ingest-mine tenant %d: %w", i, err)
		}
		cold, err := p.Mine(ctx, t.enc, w.spec[i])
		if err != nil {
			return err
		}
		w.full = append(w.full, m)
		w.labels = append(w.labels, canonicalLabels(cold.Labels))

		pl, err := p.Prepare(ctx, t.enc[:w.base])
		if err != nil {
			return err
		}
		_, st, err := p.MineIncremental(ctx, pl, nil, w.spec[i])
		if err != nil {
			return err
		}
		states := []*dpe.MineState{st}
		for a := 0; a < w.appends; a++ {
			if pl, err = p.ExtendPrepared(ctx, pl, w.chunk(t, a)); err != nil {
				return err
			}
			if _, st, err = p.MineIncremental(ctx, pl, st, w.spec[i]); err != nil {
				return err
			}
			states = append(states, st)
		}
		w.states = append(w.states, states)
	}
	return nil
}

func (w *ingestMine) chunk(t *tenant, a int) []string {
	lo := w.base + a*w.k
	return t.enc[lo : lo+w.k]
}

func (w *ingestMine) warmup(ctx context.Context, s *stack, rec func(int) *recorder) error {
	for _, t := range w.tenants {
		if err := t.sess.Close(ctx); err != nil {
			return err
		}
	}
	return runSteps(ctx, w, w.warm, rec)
}

// step runs one whole cycle for tenant c: create a session, upload the
// base log and pull its matrix, bootstrap the mining state, append the
// stream in chunks with incremental DBSCAN, verify, delete.
func (w *ingestMine) step(ctx context.Context, c int, rec *recorder) {
	t, spec := w.tenants[c], w.spec[c]
	tr := rec.tr
	var sess *service.Session
	op, err := rec.op(ctx, "create", func(ctx context.Context) (err error) {
		sess, err = w.s.client.NewSession(ctx, measure)
		return err
	})
	if err != nil {
		return
	}
	if op != 0 {
		m := measure
		replayJSON(tr, op, &service.CreateSessionRequest{Measure: &m}, new(service.CreateSessionRequest), "req")
	}
	defer func() {
		if tr != nil {
			if st, err := sess.Stats(ctx); err == nil {
				w.approxHits.Add(st.ApproxHits)
				w.approxMisses.Add(st.ApproxMisses)
			}
		}
		rec.op(ctx, "delete", func(ctx context.Context) error { return sess.Close(ctx) })
	}()

	log := t.enc[:w.base:w.base]
	var logID string
	op, err = rec.op(ctx, "upload", func(ctx context.Context) (err error) {
		logID, err = sess.UploadLog(ctx, log)
		return err
	})
	if err != nil {
		return
	}
	rec.ingested += queryBytes(log)
	if op != 0 {
		tr.replay(op, "replay.logid", func() int64 { service.LogID(log); return 0 })
		replayJSON(tr, op, &service.UploadLogRequest{Queries: log}, new(service.UploadLogRequest), "req")
	}

	var m dpe.Matrix
	op, err = rec.op(ctx, "matrix", func(ctx context.Context) (err error) {
		m, err = sess.DistanceMatrix(ctx, log)
		return err
	})
	if err != nil {
		return
	}
	if bad := mismatches(m, w.full[c], len(log)); bad != 0 {
		rec.fail(fmt.Errorf("ingest-mine: tenant %d base matrix has %d wrong entries", c, bad))
		return
	}
	rec.pairs += int64(len(log) * (len(log) - 1) / 2)
	if op != 0 {
		replayMatrix(tr, op, log, logID, m)
	}

	var res *dpe.MineResult
	for a := -1; a < w.appends; a++ {
		var tail []string
		kind := "bootstrap"
		if a >= 0 {
			tail, kind = w.chunk(t, a), "append_mine"
		}
		prev := log
		op, err = rec.op(ctx, kind, func(ctx context.Context) (err error) {
			m, res, err = sess.AppendMine(ctx, m, prev, tail, spec)
			return err
		})
		if err != nil {
			return
		}
		log = append(log, tail...)
		rec.ingested += queryBytes(tail)
		rec.mines++
		if res.Incremental != nil {
			if res.Incremental.Warm {
				rec.warm++
			}
			rec.pairs += res.Incremental.PairsComputed
			rec.examined += res.Incremental.Examined
		}
		if op != 0 {
			w.replayAppend(tr, op, prev, log, tail, spec, m, res, w.states[c][a+1])
		}
	}
	if bad := mismatches(m, w.full[c], len(w.full[c])); bad != 0 || len(m) != len(w.full[c]) {
		rec.fail(fmt.Errorf("ingest-mine: tenant %d spliced matrix has %d wrong entries", c, bad))
		return
	}
	if got := canonicalLabels(res.Labels); !equalInts(got, w.labels[c]) {
		rec.fail(fmt.Errorf("ingest-mine: tenant %d incremental DBSCAN labels differ from a cold mine", c))
	}
}

func (w *ingestMine) replayAppend(tr *tracer, op int64, prev, log, tail []string, spec dpe.MineSpec, m dpe.Matrix, res *dpe.MineResult, state *dpe.MineState) {
	tr.replay(op, "replay.logid", func() int64 { service.LogID(prev); service.LogID(log); return 0 })
	replayJSON(tr, op, &service.AppendMineRequest{Log: service.LogID(prev), Queries: tail, Spec: service.EncodeMineSpec(spec)}, new(service.AppendMineRequest), "req")
	wire := service.EncodeMineResult(res)
	wire.Matrix = nil
	resp := &service.AppendMineResponse{Log: service.LogID(log), N: len(log), Offset: len(prev), Rows: m[len(prev):], Result: wire}
	replayJSON(tr, op, resp, new(service.AppendMineResponse), "resp")
	tr.replay(op, "replay.state_encode", func() int64 {
		b, _ := dpe.MarshalMineState(state)
		return int64(len(b))
	})
}

// replayJSON replays one JSON body's encode and decode; side is "req"
// or "resp".
func replayJSON(tr *tracer, op int64, v, into any, side string) {
	var b []byte
	tr.replay(op, "replay."+side+"_encode", func() int64 {
		b, _ = json.Marshal(v)
		return int64(len(b))
	})
	tr.replay(op, "replay."+side+"_decode", func() int64 {
		json.Unmarshal(b, into)
		return 0
	})
}

func (w *ingestMine) approxCounts(context.Context) (int64, int64) {
	return w.approxHits.Load(), w.approxMisses.Load()
}

// mismatches counts entries of m's leading n×n block that differ from
// want's.
func mismatches(m, want dpe.Matrix, n int) int {
	if len(m) != n {
		return n * n
	}
	bad := 0
	for i := 0; i < n; i++ {
		if len(m[i]) != n {
			bad += n
			continue
		}
		for j := 0; j < n; j++ {
			if m[i][j] != want[i][j] {
				bad++
			}
		}
	}
	return bad
}

// canonicalLabels renumbers clusters by first appearance, keeping noise
// (< 0) as is: cluster ids are discovery-order artifacts.
func canonicalLabels(labels []int) []int {
	remap := map[int]int{}
	out := make([]int, len(labels))
	for i, l := range labels {
		if l < 0 {
			out[i] = l
			continue
		}
		if _, ok := remap[l]; !ok {
			remap[l] = len(remap)
		}
		out[i] = remap[l]
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
