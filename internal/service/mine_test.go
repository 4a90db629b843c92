package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	dpe "repro"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/store"
)

// restartSpecs are one spec per mining algorithm over clusteredLog.
var restartSpecs = []dpe.MineSpec{
	{Algorithm: dpe.MineKMedoids, K: 3},
	{Algorithm: dpe.MineDBSCAN, Eps: 0.4, MinPts: 2},
	{Algorithm: dpe.MineCompleteLink, K: 3},
	{Algorithm: dpe.MineOutliers, P: 0.8, D: 0.7},
	{Algorithm: dpe.MineKNN, Query: 1, K: 3},
	{Algorithm: dpe.MineApriori, MinSupport: 4, MaxLen: 2},
}

// sameMineResult reports whether two mining results agree exactly:
// labels, itemsets, outliers, neighbors, and the k-medoids medoids and
// assignment.
func sameMineResult(a, b *dpe.MineResult) bool {
	clusters := func(r *dpe.MineResult) [2][]int {
		if r.Clusters == nil {
			return [2][]int{}
		}
		return [2][]int{r.Clusters.Medoids, r.Clusters.Assign}
	}
	return reflect.DeepEqual(a.Labels, b.Labels) && mining.EqualItemsets(a.Itemsets, b.Itemsets) &&
		reflect.DeepEqual(a.Outliers, b.Outliers) && reflect.DeepEqual(a.Neighbors, b.Neighbors) &&
		reflect.DeepEqual(clusters(a), clusters(b))
}

// TestMineStateSurvivesRestart is the persistence check, for every
// algorithm: an append_mine populates a mining state, the registry is
// killed and reopened from its journals, and the first post-restart
// append_mine serves what the same append serves on a registry that
// never restarted. Only the k-medoids state is journaled, and it runs
// warm from the replayed state, with no fallback, building the whole
// matrix the journal leaves out. The other algorithms journal no state:
// their first post-restart append_mine is the cold mine a fresh session
// runs, stats and all.
func TestMineStateSurvivesRestart(t *testing.T) {
	ctx := context.Background()
	token := dpe.MeasureToken
	log := clusteredLog()
	for _, spec := range restartSpecs {
		t.Run(spec.Algorithm.String(), func(t *testing.T) {
			persisted := spec.Algorithm == dpe.MineKMedoids
			// appendTwice runs the two append_mines of this test on s and
			// returns the second's rows and result.
			appendTwice := func(s *session) (string, [][]float64, *dpe.MineResult) {
				t.Helper()
				baseID, err := s.AddLog(log[:8])
				if err != nil {
					t.Fatal(err)
				}
				combinedID, _, _, res, err := s.AppendMine(ctx, baseID, log[8:10], spec)
				if err != nil {
					t.Fatal(err)
				}
				if res.Incremental == nil || res.Incremental.Warm {
					t.Fatalf("first append_mine must bootstrap cold, got %+v", res.Incremental)
				}
				_, _, rows, res, err := s.AppendMine(ctx, combinedID, log[10:12], spec)
				if err != nil {
					t.Fatal(err)
				}
				return combinedID, rows, res
			}
			ref := NewRegistry(Config{Shards: 4})
			defer ref.Close()
			rs, err := ref.CreateSession(&CreateSessionRequest{Measure: &token})
			if err != nil {
				t.Fatal(err)
			}
			_, wantRows, want := appendTwice(rs)
			// A fresh session holds no mining state, so the same append
			// is a cold mine of the 12 rows there.
			fs, err := ref.CreateSession(&CreateSessionRequest{Measure: &token})
			if err != nil {
				t.Fatal(err)
			}
			freshID, err := fs.AddLog(log[:10])
			if err != nil {
				t.Fatal(err)
			}
			_, _, _, coldRes, err := fs.AppendMine(ctx, freshID, log[10:12], spec)
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			reg := NewRegistry(persistentConfig(t, dir, 4))
			s, err := reg.CreateSession(&CreateSessionRequest{Measure: &token})
			if err != nil {
				t.Fatal(err)
			}
			baseID, err := s.AddLog(log[:8])
			if err != nil {
				t.Fatal(err)
			}
			combinedID, _, _, _, err := s.AppendMine(ctx, baseID, log[8:10], spec)
			if err != nil {
				t.Fatal(err)
			}
			id := s.ID()
			reg.Close()

			wantStates := 0
			if persisted {
				wantStates = 1
			}
			if got := journalKinds(t, dir)[store.KindMining]; got != wantStates {
				t.Fatalf("the journal holds %d mining records, want %d", got, wantStates)
			}
			reg2, err := OpenRegistry(persistentConfig(t, dir, 4))
			if err != nil {
				t.Fatal(err)
			}
			defer reg2.Close()
			if rec := reg2.Recovery(); rec.MineStates != wantStates || rec.Skipped != 0 {
				t.Fatalf("recovery replayed %d mining states, want %d (%+v)", rec.MineStates, wantStates, rec)
			}
			s2, err := reg2.Session(id)
			if err != nil {
				t.Fatal(err)
			}
			_, _, rows, res, err := s2.AppendMine(ctx, combinedID, log[10:12], spec)
			if err != nil {
				t.Fatal(err)
			}
			st := res.Incremental
			if persisted {
				// The journaled state carries no matrix, so this run builds
				// the whole 12-row matrix: the 10-row prefix's 45 pairs and
				// the 21 new ones.
				if st == nil || !st.Warm || st.ColdFallback || st.OldN != 10 || st.PairsComputed != 12*11/2 {
					t.Fatalf("first post-restart append_mine = %+v, want a warm run from the replayed 10 rows over 66 pairs", st)
				}
			} else if !reflect.DeepEqual(st, coldRes.Incremental) {
				t.Fatalf("first post-restart append_mine = %+v, want a fresh session's cold mine %+v", st, coldRes.Incremental)
			}
			if !sameMineResult(res, want) || !reflect.DeepEqual(rows, wantRows) {
				t.Errorf("post-restart append_mine serves %+v, a registry that never restarted %+v", res, want)
			}
			if !persisted && !sameMineResult(res, coldRes) {
				// Warm k-medoids may settle in another local optimum; the
				// other algorithms must agree with a cold mine exactly.
				t.Errorf("post-restart result %+v differs from the cold mine %+v", res, coldRes)
			}

			// Replaying the identical append_mine hits the combined state
			// outright: a zero-delta warm run, no pairs computed.
			_, _, _, res3, err := s2.AppendMine(ctx, combinedID, log[10:12], spec)
			if err != nil {
				t.Fatal(err)
			}
			if res3.Incremental == nil || !res3.Incremental.Warm || res3.Incremental.PairsComputed != 0 {
				t.Errorf("replayed append_mine should be a zero-delta warm hit, got %+v", res3.Incremental)
			}
			if stats := s2.Stats(); stats.MineStateHits != 1 {
				t.Errorf("post-restart mine-state hits = %d, want 1 (the zero-delta replay)", stats.MineStateHits)
			}
		})
	}
}

// TestRestoredMineStateRepeatAppendMine repeats one append_mine whose
// combined log's k-medoids state was replayed from the journal. The
// decoded state carries no matrix, so the first call builds all 66
// pairs; it caches the state it built in the decoded one's place, so
// the repeats are zero-delta runs that compute none. The replacement
// is not journaled again. After a second restart, concurrent repeats
// race the replacement and all serve the same answer.
func TestRestoredMineStateRepeatAppendMine(t *testing.T) {
	ctx := context.Background()
	token := dpe.MeasureToken
	log := clusteredLog()
	spec := dpe.MineSpec{Algorithm: dpe.MineKMedoids, K: 3}
	dir := t.TempDir()
	reg := NewRegistry(persistentConfig(t, dir, 2))
	s, err := reg.CreateSession(&CreateSessionRequest{Measure: &token})
	if err != nil {
		t.Fatal(err)
	}
	baseID, err := s.AddLog(log[:8])
	if err != nil {
		t.Fatal(err)
	}
	_, _, wantRows, want, err := s.AppendMine(ctx, baseID, log[8:12], spec)
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID()
	reg.Close()

	reg2, err := OpenRegistry(persistentConfig(t, dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := reg2.Session(id)
	if err != nil {
		t.Fatal(err)
	}
	var pairs []int64
	for i := 0; i < 3; i++ {
		_, _, rows, res, err := s2.AppendMine(ctx, baseID, log[8:12], spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := res.Incremental; !st.Warm || st.ColdFallback || st.OldN != 12 {
			t.Errorf("call %d: %+v, want a warm zero-delta run over 12 rows", i, st)
		}
		if !sameMineResult(res, want) || !reflect.DeepEqual(rows, wantRows) {
			t.Errorf("call %d serves %+v, the first append_mine %+v", i, res, want)
		}
		pairs = append(pairs, res.Incremental.PairsComputed)
	}
	if want := []int64{12 * 11 / 2, 0, 0}; !reflect.DeepEqual(pairs, want) {
		t.Errorf("pairs computed per call %v, want %v", pairs, want)
	}
	if st := s2.Stats(); st.MineStateHits != 3 || st.MineStateMisses != 0 {
		t.Errorf("mine-state hits/misses %d/%d, want 3/0", st.MineStateHits, st.MineStateMisses)
	}
	reg2.Close()
	if got := journalKinds(t, dir)[store.KindMining]; got != 1 {
		t.Errorf("the journal holds %d mining records, want the one replayed", got)
	}

	reg3, err := OpenRegistry(persistentConfig(t, dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer reg3.Close()
	s3, err := reg3.Session(id)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _, res, err := s3.AppendMine(ctx, baseID, log[8:12], spec)
			if err != nil {
				t.Error(err)
			} else if !sameMineResult(res, want) {
				t.Errorf("a concurrent repeat serves %+v, the first append_mine %+v", res, want)
			}
		}()
	}
	wg.Wait()
	if _, _, _, res, err := s3.AppendMine(ctx, baseID, log[8:12], spec); err != nil || res.Incremental.PairsComputed != 0 {
		t.Errorf("a repeat after the concurrent ones: %v, %+v, want no pairs computed", err, res)
	}
}

// TestMineStateKeyNegativeZero checks that a mining state is found by
// spec equality, the test MineIncremental applies: a DBSCAN append_mine
// whose D is -0 warm-starts from the state one with D = 0 cached, and
// on clusteredLog's 8 + 2 + 2 computes only the 21 pairs of the last
// two rows instead of 66 for a cold mine. It runs once in process and
// once with the -0 in a raw /v1 body (Client cannot send one: omitempty
// drops a negative zero).
func TestMineStateKeyNegativeZero(t *testing.T) {
	ctx := context.Background()
	reg := NewRegistry(Config{Shards: 2, JanitorInterval: -1})
	defer reg.Close()
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	token := dpe.MeasureToken
	log := clusteredLog()
	spec := dpe.MineSpec{Algorithm: dpe.MineDBSCAN, Eps: 0.4, MinPts: 2}
	negZero := spec
	negZero.D = math.Copysign(0, -1)
	// mid appends two queries to the base with D = 0 and returns the
	// session and the combined log.
	mid := func() (*session, string) {
		t.Helper()
		s, err := reg.CreateSession(&CreateSessionRequest{Measure: &token})
		if err != nil {
			t.Fatal(err)
		}
		base, err := s.AddLog(log[:8])
		if err != nil {
			t.Fatal(err)
		}
		id, _, _, _, err := s.AppendMine(ctx, base, log[8:10], spec)
		if err != nil {
			t.Fatal(err)
		}
		return s, id
	}
	check := func(how string, st *dpe.IncrementalStats) {
		t.Helper()
		if st == nil || !st.Warm || st.PairsComputed != 21 {
			t.Errorf("%s: D = -0 after D = 0 ran %+v, want a warm run computing 21 pairs", how, st)
		}
	}

	s, id := mid()
	_, _, _, res, err := s.AppendMine(ctx, id, log[10:12], negZero)
	if err != nil {
		t.Fatal(err)
	}
	check("in process", res.Incremental)

	s, id = mid()
	queries, err := json.Marshal(log[10:12])
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"log":%q,"queries":%s,"spec":{"algorithm":"dbscan","eps":0.4,"min_pts":2,"d":-0}}`, id, queries)
	resp, err := http.Post(srv.URL+"/v1/sessions/"+s.ID()+"/logs:append_mine", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out AppendMineResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("append_mine: HTTP %d, %v", resp.StatusCode, err)
	}
	check("over /v1", out.Result.Incremental)
}

// rejectStore wraps a store and rejects every append of the kinds in
// reject, counting the rejections per kind. Over store.Null it journals
// nothing, yet it is not store.Null, so a registry over it journals as
// a persistent one.
type rejectStore struct {
	store.Store
	mu     sync.Mutex
	reject map[store.Kind]bool
	failed map[store.Kind]int
}

func newRejectStore(kinds ...store.Kind) *rejectStore {
	return rejectOver(store.Null{}, kinds...)
}

// rejectOver wraps st.
func rejectOver(st store.Store, kinds ...store.Kind) *rejectStore {
	f := &rejectStore{Store: st, failed: map[store.Kind]int{}}
	f.rejecting(kinds...)
	return f
}

// rejecting replaces the set of kinds the store rejects.
func (f *rejectStore) rejecting(kinds ...store.Kind) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reject = map[store.Kind]bool{}
	for _, k := range kinds {
		f.reject[k] = true
	}
}

func (f *rejectStore) Open(shard int) (store.Log, error) {
	lg, err := f.Store.Open(shard)
	return &rejectLog{Log: lg, st: f}, err
}

type rejectLog struct {
	store.Log
	st *rejectStore
}

func (l *rejectLog) Append(rec store.Record) error {
	l.st.mu.Lock()
	rejected := l.st.reject[rec.Kind]
	if rejected {
		l.st.failed[rec.Kind]++
	}
	l.st.mu.Unlock()
	if rejected {
		return fmt.Errorf("%s append rejected", rec.Kind)
	}
	return l.Log.Append(rec)
}

// TestDroppedJournalAppendsCounted fails every artifact append: the
// append_mine calls still succeed, and dpe_store_append_errors_total
// counts exactly the records the store rejected, per kind. Each
// k-medoids append_mine journals (and here drops) one mining record; a
// DBSCAN one journals none.
func TestDroppedJournalAppendsCounted(t *testing.T) {
	st := newRejectStore(store.KindSnapshot, store.KindMining)
	o := obs.NewRegistry()
	reg, err := OpenRegistry(Config{Shards: 2, Store: st, JanitorInterval: -1, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ctx := context.Background()
	token := dpe.MeasureToken
	log := clusteredLog()
	s, err := reg.CreateSession(&CreateSessionRequest{Measure: &token})
	if err != nil {
		t.Fatal(err)
	}
	baseID, err := s.AddLog(log[:8])
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []dpe.MineSpec{
		{Algorithm: dpe.MineKMedoids, K: 3},
		{Algorithm: dpe.MineDBSCAN, Eps: 0.4, MinPts: 2},
	} {
		combinedID, _, _, _, err := s.AppendMine(ctx, baseID, log[8:10], spec)
		if err != nil {
			t.Fatalf("append_mine failed on a dropped artifact append: %v", err)
		}
		if _, _, _, res, err := s.AppendMine(ctx, combinedID, log[10:12], spec); err != nil || !res.Incremental.Warm {
			t.Fatalf("chained append_mine: %v, %+v", err, res)
		}
	}

	samples := scrape(t, o)
	if st.failed[store.KindSnapshot] == 0 || st.failed[store.KindMining] != 2 {
		t.Fatalf("the store rejected %v, want snapshot records and the 2 k-medoids mining records", st.failed)
	}
	for _, kind := range []store.Kind{store.KindDelete, store.KindSnapshot, store.KindApprox, store.KindMining} {
		key := fmt.Sprintf("dpe_store_append_errors_total{kind=%q}", kind)
		if got, want := samples[key], float64(st.failed[kind]); got != want {
			t.Errorf("%s = %v, want %v dropped records", key, got, want)
		}
	}
}

// TestDurableJournalFailureIs500 rejects each durable record kind in
// turn: the request it belongs to answers 500, not 400, and a failed
// create, upload or import leaves no live session or registered log.
func TestDurableJournalFailureIs500(t *testing.T) {
	st := newRejectStore()
	reg, err := OpenRegistry(Config{Shards: 2, Store: st, JanitorInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	do := func(method, path string, body []byte, into any) int {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if into != nil {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	token := dpe.MeasureToken
	createBody := mustJSON(CreateSessionRequest{Measure: &token})

	st.rejecting(store.KindSession)
	if code := do("POST", "/v1/sessions", createBody, nil); code != http.StatusInternalServerError {
		t.Fatalf("create with a failing session append: HTTP %d, want 500", code)
	}
	if n := reg.Stats().Sessions; n != 0 {
		t.Fatalf("%d live sessions after a failed create, want 0", n)
	}

	st.rejecting()
	var created CreateSessionResponse
	if code := do("POST", "/v1/sessions", createBody, &created); code != http.StatusCreated {
		t.Fatalf("create: HTTP %d", code)
	}
	id := created.Session
	log := clusteredLog()
	var base UploadLogResponse
	if code := do("POST", "/v1/sessions/"+id+"/logs", mustJSON(UploadLogRequest{Queries: log[:4]}), &base); code != http.StatusCreated {
		t.Fatalf("upload: HTTP %d", code)
	}

	st.rejecting(store.KindLog)
	if code := do("POST", "/v1/sessions/"+id+"/logs", mustJSON(UploadLogRequest{Queries: log[4:8]}), nil); code != http.StatusInternalServerError {
		t.Fatalf("upload with a failing log append: HTTP %d, want 500", code)
	}
	if code := do("POST", "/v1/sessions/"+id+"/logs:append", mustJSON(AppendLogRequest{Log: base.Log, Queries: log[4:8]}), nil); code != http.StatusInternalServerError {
		t.Fatalf("logs:append with a failing log append: HTTP %d, want 500", code)
	}
	s, err := reg.Session(id)
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Stats().Logs; n != 1 {
		t.Fatalf("%d registered logs after failed uploads, want only the base", n)
	}

	var bundle bytes.Buffer
	if err := reg.ExportSession(id, &bundle); err != nil {
		t.Fatal(err)
	}
	st.rejecting(store.KindDelete)
	if code := do("DELETE", "/v1/sessions/"+id, nil, nil); code != http.StatusInternalServerError {
		t.Fatalf("delete with a failing tombstone append: HTTP %d, want 500", code)
	}

	st.rejecting(store.KindSession)
	if code := do("POST", "/v1/sessions:import", bundle.Bytes(), nil); code != http.StatusInternalServerError {
		t.Fatalf("import with a failing session append: HTTP %d, want 500", code)
	}
	if _, err := reg.Session(id); err == nil {
		t.Fatal("a failed import left the session live")
	}
}

// TestAppendMineChurn races batched append_mine traffic against stats
// polling and janitor ticks across a sharded registry — the CI -race
// check for the incremental-mining path's locking: the mining-state
// singleflight, the shard LRU, and the registry counters.
func TestAppendMineChurn(t *testing.T) {
	reg := NewRegistry(Config{
		Shards:          4,
		MaxSessions:     64,
		CacheEntries:    16,
		JanitorInterval: time.Millisecond,
		SessionTTL:      time.Hour,
	})
	defer reg.Close()
	ctx := context.Background()
	token := dpe.MeasureToken
	log := clusteredLog()
	spec := dpe.MineSpec{Algorithm: dpe.MineDBSCAN, Eps: 0.4, MinPts: 2}

	// Shared sessions: identical append_mine calls race the mining
	// singleflight and the hit counters.
	const sharedSessions = 3
	shared := make([]*session, sharedSessions)
	for i := range shared {
		s, err := reg.CreateSession(&CreateSessionRequest{Measure: &token})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddLog(log[:8]); err != nil {
			t.Fatal(err)
		}
		shared[i] = s
	}
	baseID := LogID(log[:8])

	const (
		workers = 8
		iters   = 5
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers*3)
	fail := func(format string, args ...any) { errs <- fmt.Errorf(format, args...) }

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s := shared[(w+i)%sharedSessions]
				if _, _, _, _, err := s.AppendMine(ctx, baseID, log[8:10], spec); err != nil {
					fail("shared append_mine: %v", err)
					return
				}
			}
		}(w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Private lifecycle: create, append_mine, chained
				// append_mine on the grown log, delete — racing the
				// janitor ticks.
				s, err := reg.CreateSession(&CreateSessionRequest{Measure: &token})
				if err != nil {
					fail("create: %v", err)
					return
				}
				baseID, err := s.AddLog(log[:6])
				if err != nil {
					fail("add log: %v", err)
					return
				}
				tail := []string{fmt.Sprintf("SELECT w%d, i%d FROM churn", w, i)}
				combinedID, _, _, res, err := s.AppendMine(ctx, baseID, tail, spec)
				if err != nil {
					fail("append_mine: %v", err)
					return
				}
				if res.Incremental == nil {
					fail("append_mine result carries no incremental stats")
					return
				}
				// The chained call usually warm-starts from the cached
				// state, but the deliberately tiny LRU may have evicted
				// it under churn — a cold bootstrap is then correct, so
				// only the stats' presence is asserted here (the
				// deterministic warm guarantees live in
				// TestMineStateSurvivesRestart and the facade property
				// test).
				if _, _, _, res, err = s.AppendMine(ctx, combinedID, tail, spec); err != nil {
					fail("chained append_mine: %v", err)
					return
				}
				if res.Incremental == nil {
					fail("chained append_mine result carries no incremental stats")
					return
				}
				if err := reg.DeleteSession(s.ID()); err != nil {
					fail("delete: %v", err)
					return
				}
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				reg.Stats()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The shared traffic quiesced: every worker call either bootstrapped
	// (miss) or reused state (hit); totals must match the call count.
	stats := reg.Stats()
	if got := stats.MineStateHits + stats.MineStateMisses; got < workers*iters {
		t.Errorf("mine-state hits+misses = %d, want at least the %d shared calls", got, workers*iters)
	}
}

// TestAppendMineRowsFromTwoBases reaches one combined log from two
// bases, 8 + 4 and 10 + 2 queries of clusteredLog, with DBSCAN
// append_mines that each run warm from their base's state. A warm
// DBSCAN run holds only the rows it appended, from its own base, so
// each call must still answer its own rows offset..12, equal to the
// cold matrix's: once one after the other, where the second call finds
// the first's state cached and replays it without rows, and once
// concurrently, where the second coalesces onto the first's in-flight
// run, whose rows start at the other base. Each order runs both ways.
func TestAppendMineRowsFromTwoBases(t *testing.T) {
	ctx := context.Background()
	token := dpe.MeasureToken
	log := clusteredLog()[:12]
	spec := dpe.MineSpec{Algorithm: dpe.MineDBSCAN, Eps: 0.4, MinPts: 2}
	p, err := dpe.NewProvider(token)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := p.Mine(ctx, log, spec)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64(cold.Matrix)
	reg := NewRegistry(Config{Shards: 2, JanitorInterval: -1, Obs: obs.NewRegistry()})
	defer reg.Close()
	bases := [2]int{8, 10}

	// open creates a session whose provider reports every stage to
	// observe, uploads both bases and bootstraps their DBSCAN states.
	open := func(observe dpe.StageObserver) (*session, [2]string) {
		t.Helper()
		s, err := reg.CreateSession(&CreateSessionRequest{Measure: &token})
		if err != nil {
			t.Fatal(err)
		}
		if s.provider, err = dpe.NewProvider(token, dpe.WithStageObserver(observe)); err != nil {
			t.Fatal(err)
		}
		var ids [2]string
		for i, b := range bases {
			if ids[i], err = s.AddLog(log[:b]); err != nil {
				t.Fatal(err)
			}
			if _, _, _, _, err := s.AppendMine(ctx, ids[i], nil, spec); err != nil {
				t.Fatal(err)
			}
		}
		return s, ids
	}
	type answer struct {
		offset int
		rows   [][]float64
		res    *dpe.MineResult
		err    error
	}
	call := func(s *session, ids [2]string, i int) answer {
		_, offset, rows, res, err := s.AppendMine(ctx, ids[i], log[bases[i]:], spec)
		return answer{offset, rows, res, err}
	}
	check := func(how string, i int, a answer) {
		t.Helper()
		switch {
		case a.err != nil:
			t.Errorf("%s, base %d: %v", how, bases[i], a.err)
		case a.offset != bases[i] || !reflect.DeepEqual(a.rows, want[bases[i]:]):
			t.Errorf("%s, base %d: answered offset %d and rows %v, want offset %d and the cold rows %v",
				how, bases[i], a.offset, a.rows, bases[i], want[bases[i]:])
		case !a.res.Incremental.Warm || !reflect.DeepEqual(a.res.Labels, cold.Labels):
			t.Errorf("%s, base %d: %+v labels %v, want a warm run and the cold labels %v",
				how, bases[i], a.res.Incremental, a.res.Labels, cold.Labels)
		}
	}

	for first := range bases {
		second := 1 - first
		how := fmt.Sprintf("cached, base %d first", bases[first])
		s, ids := open(nil)
		check(how, first, call(s, ids, first))
		a := call(s, ids, second)
		check(how, second, a)
		if a.err == nil && (a.res.Incremental.OldN != 12 || a.res.Incremental.PairsComputed != 0) {
			t.Errorf("%s: the second call ran %+v, want a zero-delta replay of the cached state", how, a.res.Incremental)
		}

		// The first call's run blocks at the end of its mine until the
		// second has coalesced onto it.
		how = fmt.Sprintf("coalesced, base %d leads", bases[first])
		var hold atomic.Bool
		entered, release := make(chan struct{}), make(chan struct{})
		s, ids = open(func(_ context.Context, stage string, _ time.Duration) {
			if stage == "mine_delta" && hold.CompareAndSwap(true, false) {
				close(entered)
				<-release
			}
		})
		hold.Store(true)
		answers := make([]answer, 2)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); answers[first] = call(s, ids, first) }()
		<-entered
		dedups := reg.metrics.flightDedups.Value()
		wg.Add(1)
		go func() { defer wg.Done(); answers[second] = call(s, ids, second) }()
		for deadline := time.Now().Add(time.Minute); reg.metrics.flightDedups.Value() == dedups; runtime.Gosched() {
			if time.Now().After(deadline) {
				close(release)
				t.Fatalf("%s: the second call never coalesced onto the first", how)
			}
		}
		close(release)
		wg.Wait()
		for i, a := range answers {
			check(how, i, a)
		}
		if a := answers[second]; a.err == nil && a.res.Incremental.OldN != bases[first] {
			t.Errorf("%s: the follower's result is %+v, want the leader's run from %d rows", how, a.res.Incremental, bases[first])
		}
	}
}
