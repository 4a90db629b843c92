package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	dpe "repro"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/store/journal"
)

// TestMineStateSurvivesRestart is the tentpole's persistence check: an
// append_mine populates a mining state, the registry is killed and
// reopened from its journals, and the first post-restart append_mine
// must run warm from the replayed state — no cold bootstrap, only the
// journal-omitted prefix matrix rebuilt — while agreeing with a cold
// mine over the same log.
func TestMineStateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(persistentConfig(t, dir, 4))
	ctx := context.Background()
	token := dpe.MeasureToken
	log := clusteredLog()
	spec := dpe.MineSpec{Algorithm: dpe.MineDBSCAN, Eps: 0.4, MinPts: 2}

	s, err := reg.CreateSession(&CreateSessionRequest{Measure: &token})
	if err != nil {
		t.Fatal(err)
	}
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
	id := s.ID()
	reg.Close()

	reg2, err := OpenRegistry(persistentConfig(t, dir, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	if rec := reg2.Recovery(); rec.MineStates < 1 {
		t.Fatalf("recovery replayed %d mining states, want >= 1 (%+v)", rec.MineStates, rec)
	}
	s2, err := reg2.Session(id)
	if err != nil {
		t.Fatal(err)
	}
	combined2, _, _, res2, err := s2.AppendMine(ctx, combinedID, log[10:12], spec)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Incremental == nil || !res2.Incremental.Warm || res2.Incremental.ColdFallback {
		t.Fatalf("first post-restart append_mine must run warm from the replayed state, got %+v",
			res2.Incremental)
	}
	if res2.Incremental.OldN != 10 {
		t.Errorf("warm run extended %d rows, want the pre-restart 10", res2.Incremental.OldN)
	}
	// The journaled state carries no matrix, so this run rebuilds the
	// 10-row prefix's 45 pairs before computing the 21 new ones.
	if got := res2.Incremental.PairsComputed; got != 45+21 {
		t.Errorf("first post-restart warm run computed %d pairs, want 66 (45 rebuilt + 21 new)", got)
	}

	// The warm continuation must agree with a cold mine of the full log.
	cold, err := s2.Mine(ctx, combined2, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mining.CanonicalLabels(res2.Labels), mining.CanonicalLabels(cold.Labels)) {
		t.Errorf("post-restart warm labels %v differ from cold labels %v", res2.Labels, cold.Labels)
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
}

// TestMineStateV1JournalReplay replays a mining record whose blob the
// JSON-era (v1) encoder wrote: the registry restores it with its
// matrix, and the first append_mine runs warm, computing only the
// appended rows' pairs.
func TestMineStateV1JournalReplay(t *testing.T) {
	fixtures := filepath.Join("..", "..", "testdata", "minestate_v1")
	raw, err := os.ReadFile(filepath.Join(fixtures, "log.txt"))
	if err != nil {
		t.Fatal(err)
	}
	log := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	blob, err := os.ReadFile(filepath.Join(fixtures, "dbscan.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec := dpe.MineSpec{Algorithm: dpe.MineDBSCAN, Eps: 0.4, MinPts: 2}

	dir := t.TempDir()
	reg := NewRegistry(persistentConfig(t, dir, 2))
	token := dpe.MeasureToken
	s, err := reg.CreateSession(&CreateSessionRequest{Measure: &token})
	if err != nil {
		t.Fatal(err)
	}
	baseID, err := s.AddLog(log[:9])
	if err != nil {
		t.Fatal(err)
	}
	if err := s.sh.journal.Append(journal.Artifact{Kind: store.KindMining, SessionID: s.ID(), LogID: baseID, Blob: blob}); err != nil {
		t.Fatal(err)
	}
	id := s.ID()
	reg.Close()

	reg2, err := OpenRegistry(persistentConfig(t, dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	if rec := reg2.Recovery(); rec.MineStates != 1 || rec.Skipped != 0 {
		t.Fatalf("recovery %+v, want the v1 mining state applied", rec)
	}
	s2, err := reg2.Session(id)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	combinedID, _, _, res, err := s2.AppendMine(ctx, baseID, log[9:], spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Incremental; st == nil || !st.Warm || st.ColdFallback || st.OldN != 9 || st.PairsComputed != 9*5+10 {
		t.Fatalf("first append_mine over the v1 state: %+v, want warm from 9 rows with 55 pairs", st)
	}
	cold, err := s2.Mine(ctx, combinedID, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mining.CanonicalLabels(res.Labels), mining.CanonicalLabels(cold.Labels)) {
		t.Errorf("warm labels %v differ from cold labels %v", res.Labels, cold.Labels)
	}
}

// artifactFailStore journals nothing and rejects every artifact
// append, counting the rejections per kind. It is not store.Null, so a
// registry over it journals as a persistent one.
type artifactFailStore struct {
	store.Null
	mu     sync.Mutex
	failed map[store.Kind]int
}

func (f *artifactFailStore) Open(shard int) (store.Log, error) {
	lg, err := f.Null.Open(shard)
	return &artifactFailLog{Log: lg, st: f}, err
}

type artifactFailLog struct {
	store.Log
	st *artifactFailStore
}

func (l *artifactFailLog) Append(rec store.Record) error {
	switch rec.Kind {
	case store.KindSnapshot, store.KindMining:
		l.st.mu.Lock()
		l.st.failed[rec.Kind]++
		l.st.mu.Unlock()
		return errors.New("artifact append rejected")
	}
	return l.Log.Append(rec)
}

// TestDroppedJournalAppendsCounted fails every artifact append: the
// append_mine calls still succeed, and dpe_store_append_errors_total
// counts exactly the records the store rejected, per kind.
func TestDroppedJournalAppendsCounted(t *testing.T) {
	st := &artifactFailStore{failed: map[store.Kind]int{}}
	o := obs.NewRegistry()
	reg, err := OpenRegistry(Config{Shards: 2, Store: st, JanitorInterval: -1, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ctx := context.Background()
	token := dpe.MeasureToken
	log := clusteredLog()
	spec := dpe.MineSpec{Algorithm: dpe.MineDBSCAN, Eps: 0.4, MinPts: 2}
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
		t.Fatalf("append_mine failed on a dropped artifact append: %v", err)
	}
	if _, _, _, res, err := s.AppendMine(ctx, combinedID, log[10:12], spec); err != nil || !res.Incremental.Warm {
		t.Fatalf("chained append_mine: %v, %+v", err, res)
	}

	samples := scrape(t, o)
	if st.failed[store.KindSnapshot] == 0 || st.failed[store.KindMining] == 0 {
		t.Fatalf("the store rejected %v, want snapshot and mining records among them", st.failed)
	}
	for _, kind := range []store.Kind{store.KindDelete, store.KindSnapshot, store.KindApprox, store.KindMining} {
		key := fmt.Sprintf("dpe_store_append_errors_total{kind=%q}", kind)
		if got, want := samples[key], float64(st.failed[kind]); got != want {
			t.Errorf("%s = %v, want %v dropped records", key, got, want)
		}
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
