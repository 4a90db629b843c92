package service

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	dpe "repro"
)

// clusteredLog mirrors the facade tests' shape: three interleaved
// groups of near-duplicate queries, so each query's nearest neighbors
// are its group mates.
func clusteredLog() []string {
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
	for i := 0; i < len(groups[0]); i++ {
		for _, g := range groups {
			log = append(log, g[i])
		}
	}
	return log
}

// TestNeighborsRemoteLocalParity is the acceptance check for the top-K
// API: at 1 and 16 shards, for every measure, the neighbors served over
// HTTP are entry-wise identical to the in-process provider on the same
// encrypted log, each search scores the full row (n−1 candidates), and
// the repeat calls for the same log hit the prepared-state cache.
func TestNeighborsRemoteLocalParity(t *testing.T) {
	f := newFixture(t)
	clients := map[string]*Client{
		"shards=1":  NewClient(startServer(t, Config{Shards: 1}).URL),
		"shards=16": NewClient(startServer(t, Config{Shards: 16}).URL),
	}
	ctx := context.Background()
	measures := []dpe.Measure{dpe.MeasureToken, dpe.MeasureStructure, dpe.MeasureResult, dpe.MeasureAccessArea}
	if testing.Short() {
		measures = measures[:2] // skip the Paillier-heavy artifact encryptions
	}
	for _, m := range measures {
		encLog, local, remoteOpts := f.measureSetup(t, m)
		n := len(encLog)
		for name, client := range clients {
			t.Run(m.String()+"/"+name, func(t *testing.T) {
				sess, err := client.NewSession(ctx, m, remoteOpts...)
				if err != nil {
					t.Fatal(err)
				}
				for _, q := range []int{0, n / 2, n - 1} {
					want, err := local.Neighbors(ctx, encLog, q, 5)
					if err != nil {
						t.Fatal(err)
					}
					got, err := sess.Neighbors(ctx, encLog, q, 5)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("q=%d: remote neighbors %+v != local %+v", q, got, want)
					}
					if got.Candidates != n-1 || len(got.Neighbors) != 5 {
						t.Fatalf("q=%d: %d neighbors of %d candidates, want 5 of %d", q, len(got.Neighbors), got.Candidates, n-1)
					}
				}
				stats, err := sess.Stats(ctx)
				if err != nil {
					t.Fatal(err)
				}
				// Three queries on one log: one cold prepare, then hits.
				if stats.PreparedMisses != 1 || stats.PreparedHits != 2 || stats.ApproxHits != 0 || stats.ApproxMisses != 0 {
					t.Errorf("prepared hits/misses = %d/%d, approx %d/%d; want 2/1 and 0/0",
						stats.PreparedHits, stats.PreparedMisses, stats.ApproxHits, stats.ApproxMisses)
				}
			})
		}
	}
}

// TestNeighborsHugeKRemote sends k=1000000000 over HTTP: the server
// answers with all n−1 other queries ranked, and the round trip
// allocates no more than one at k = n−1 plus noise — far below the
// 16 GB a selection sized by k would take.
func TestNeighborsHugeKRemote(t *testing.T) {
	srv := startServer(t, Config{Shards: 2, Parallelism: 1})
	ctx := context.Background()
	sess, err := NewClient(srv.URL).NewSession(ctx, dpe.MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	log := clusteredLog()
	n := len(log)
	local, err := dpe.NewProvider(dpe.MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Neighbors(ctx, log, 4, n-1)
	if err != nil {
		t.Fatal(err)
	}
	alloc := func(k int) uint64 {
		least := ^uint64(0)
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := sess.Neighbors(ctx, log, 4, k)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || len(got.Neighbors) != n-1 {
				t.Fatalf("k=%d: %+v, want all %d other queries ranked: %+v", k, got, n-1, want)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	full, huge := alloc(n-1), alloc(1000000000)
	if huge > full+64<<10 {
		t.Errorf("k=1000000000 allocated %d bytes, k=n-1 %d", huge, full)
	}
}

// TestApproxIndexEvictedWithSession: both the delete path and the
// janitor's TTL reap must evict the prepared state a neighbors call
// cached, leaving the shard's byte accounting at zero — no orphaned
// artifact bytes.
func TestApproxIndexEvictedWithSession(t *testing.T) {
	for _, path := range []string{"delete", "reap"} {
		t.Run(path, func(t *testing.T) {
			reg := NewRegistry(Config{SessionTTL: time.Nanosecond, JanitorInterval: -1})
			defer reg.Close()
			token := dpe.MeasureToken
			s, err := reg.CreateSession(&CreateSessionRequest{Measure: &token})
			if err != nil {
				t.Fatal(err)
			}
			logID, err := s.AddLog(clusteredLog())
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if _, err := s.Neighbors(ctx, logID, 0, 3); err != nil {
				t.Fatal(err)
			}
			sh := reg.shardFor(s.ID())
			if st := sh.cache.stats(); st.Entries != 1 || st.Bytes <= 0 {
				t.Fatalf("after neighbors: cache %d entries / %d bytes, want the prepared state alone", st.Entries, st.Bytes)
			}
			switch path {
			case "delete":
				if err := reg.DeleteSession(s.ID()); err != nil {
					t.Fatal(err)
				}
			case "reap":
				time.Sleep(time.Millisecond) // idle past the 1ns TTL
				reg.reapIdle(time.Now())
				if _, err := reg.Session(s.ID()); err == nil {
					t.Fatal("session should have been reaped")
				}
			}
			if st := sh.cache.stats(); st.Entries != 0 || st.Bytes != 0 {
				t.Errorf("after %s: cache %d entries / %d bytes, want 0/0", path, st.Entries, st.Bytes)
			}
		})
	}
}

// TestNeighborsSurviveRestart is the persistence acceptance check: the
// journaled prepared state is recovered on restart, so the first
// neighbors call of the new process is a prepared-cache hit with
// identical results.
func TestNeighborsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(persistentConfig(t, dir, 4))
	ctx := context.Background()
	token := dpe.MeasureToken
	s, err := reg.CreateSession(&CreateSessionRequest{Measure: &token})
	if err != nil {
		t.Fatal(err)
	}
	logID, err := s.AddLog(clusteredLog())
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Neighbors(ctx, logID, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID()
	reg.Close()

	reg2, err := OpenRegistry(persistentConfig(t, dir, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	if rec := reg2.Recovery(); rec.Snapshots != 1 || rec.Skipped != 0 {
		t.Fatalf("recovery %+v, want 1 prepared snapshot and nothing skipped", rec)
	}
	s2, err := reg2.Session(id)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Neighbors(ctx, logID, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-restart neighbors %+v != pre-restart %+v", got, want)
	}
	if stats := s2.Stats(); stats.PreparedHits != 1 || stats.PreparedMisses != 0 {
		t.Errorf("post-restart prepared hits/misses = %d/%d, want 1/0 (state recovered from journal)",
			stats.PreparedHits, stats.PreparedMisses)
	}
}

// TestAppendExtendsApproxIndex checks append-then-neighbors: after an
// append, the combined log's prepared state is already warm (extended
// from the base's, not rebuilt), so the neighbors call on it is a
// cache hit, and its answer matches a from-scratch provider on the
// combined log.
func TestAppendExtendsApproxIndex(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close()
	ctx := context.Background()
	token := dpe.MeasureToken
	s, err := reg.CreateSession(&CreateSessionRequest{Measure: &token})
	if err != nil {
		t.Fatal(err)
	}
	log := clusteredLog()
	base, tail := log[:8], log[8:]
	baseID, err := s.AddLog(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Neighbors(ctx, baseID, 0, 3); err != nil {
		t.Fatal(err)
	}
	combinedID, _, _, err := s.Append(ctx, baseID, tail)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Neighbors(ctx, combinedID, len(log)-1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Misses: the base prepare and the combined log's extension. Hits:
	// the extension's read of the base, and the neighbors call.
	if stats := s.Stats(); stats.PreparedMisses != 2 || stats.PreparedHits != 2 {
		t.Errorf("prepared hits/misses = %d/%d, want 2/2 (append should extend the cached state, not rebuild)",
			stats.PreparedHits, stats.PreparedMisses)
	}
	local, err := dpe.NewProvider(dpe.MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Neighbors(ctx, log, len(log)-1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("neighbors on the appended log %+v != from-scratch %+v", got, want)
	}
}

// TestNeighborsChurn races neighbors traffic, appends, and session
// deletes across a sharded registry, with the janitor ticking — the
// -race check for the prepared-state cache the neighbors path reads,
// its singleflight builds, and the eviction sweeps.
func TestNeighborsChurn(t *testing.T) {
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

	// Shared sessions: concurrent neighbors on the same log race the
	// prepared-state singleflight and the hit counters.
	const sharedSessions = 3
	shared := make([]*session, sharedSessions)
	for i := range shared {
		s, err := reg.CreateSession(&CreateSessionRequest{Measure: &token})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddLog(log); err != nil {
			t.Fatal(err)
		}
		shared[i] = s
	}
	logID := LogID(log)

	const (
		workers = 8
		iters   = 5
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers*2)
	fail := func(format string, args ...any) { errs <- fmt.Errorf(format, args...) }

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s := shared[(w+i)%sharedSessions]
				if _, err := s.Neighbors(ctx, logID, (w+i)%len(log), 3); err != nil {
					fail("shared neighbors: %v", err)
					return
				}
			}
		}(w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Private lifecycle: create, neighbors, append, neighbors
				// on the grown log, delete — racing the janitor ticks.
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
				if _, err := s.Neighbors(ctx, baseID, 0, 2); err != nil {
					fail("neighbors: %v", err)
					return
				}
				combinedID, _, _, err := s.Append(ctx, baseID, []string{fmt.Sprintf("SELECT w%d, i%d FROM churn", w, i)})
				if err != nil {
					fail("append: %v", err)
					return
				}
				if _, err := s.Neighbors(ctx, combinedID, 6, 2); err != nil {
					fail("neighbors after append: %v", err)
					return
				}
				if err := reg.DeleteSession(s.ID()); err != nil {
					fail("delete: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
