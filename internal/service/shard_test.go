package service

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	dpe "repro"
)

// TestInMemoryRegistryHasNoJournal: a registry without a Store gives
// every shard a nil journal, so serving a warm tenant encodes and
// writes nothing, compaction is a no-op, and stats report no recovery.
func TestInMemoryRegistryHasNoJournal(t *testing.T) {
	reg := NewRegistry(Config{Shards: 4, JanitorInterval: -1})
	defer reg.Close()
	populateTenant(t, reg)
	for i, sh := range reg.shards {
		if sh.journal != nil {
			t.Errorf("shard %d has a journal on a registry without a Store", i)
		}
	}
	if err := reg.CompactAll(); err != nil {
		t.Errorf("CompactAll without a Store: %v", err)
	}
	if rec := reg.Stats().Recovered; rec != nil {
		t.Errorf("stats of a registry without a Store report recovery %+v", rec)
	}
}

// TestDefaultShards pins the derived shard count's shape: a power of
// two in [1, 256].
func TestDefaultShards(t *testing.T) {
	n := DefaultShards()
	if n < 1 || n > 256 {
		t.Fatalf("DefaultShards() = %d, want within [1, 256]", n)
	}
	if n&(n-1) != 0 {
		t.Errorf("DefaultShards() = %d, want a power of two", n)
	}
}

// TestBudgetSplitting pins how the registry-wide cache budgets divide
// across shards: rounded up, never below one per shard, and exactly the
// configured totals when shards = 1.
func TestBudgetSplitting(t *testing.T) {
	entryCases := []struct {
		total, shards, want int
	}{
		{128, 1, 128},
		{128, 16, 8},
		{10, 4, 3},
		{1, 8, 1},
		{7, 2, 4},
		{256, 256, 1},
		// Fewer entries than shards: every shard still gets one slot
		// (the aggregate grows above the configured total — cacheable
		// beats configured-exactly here).
		{3, 8, 1},
		{1, 256, 1},
		// Exact division: no rounding slack in either direction.
		{64, 8, 8},
		{12, 4, 3},
	}
	for _, c := range entryCases {
		if got := splitEntries(c.total, c.shards); got != c.want {
			t.Errorf("splitEntries(%d, %d) = %d, want %d", c.total, c.shards, got, c.want)
		}
	}
	byteCases := []struct {
		total int64
		n     int
		want  int64
	}{
		{64 << 20, 1, 64 << 20},
		{64 << 20, 16, 4 << 20},
		{10, 4, 3},
		{1, 8, 1},
		// Fewer bytes than shards and exact division, as above.
		{3, 8, 1},
		{1 << 20, 16, 1 << 16},
	}
	for _, c := range byteCases {
		if got := splitBytes(c.total, c.n); got != c.want {
			t.Errorf("splitBytes(%d, %d) = %d, want %d", c.total, c.n, got, c.want)
		}
	}

	// The split budgets land on the actual shard caches.
	reg := NewRegistry(Config{CacheEntries: 10, CacheBytes: 100, Shards: 4, JanitorInterval: -1})
	defer reg.Close()
	if len(reg.shards) != 4 {
		t.Fatalf("shards = %d, want 4", len(reg.shards))
	}
	for i, sh := range reg.shards {
		if sh.cache.maxEntries != 3 || sh.cache.maxBytes != 25 {
			t.Errorf("shard %d cache budgets = %d entries / %d bytes, want 3 / 25",
				i, sh.cache.maxEntries, sh.cache.maxBytes)
		}
	}
}

// TestSingleShardMatchesUnsharded pins the shards=1 contract: one shard
// holding the exact global budgets, with every id routed to it — the
// historical unsharded registry.
func TestSingleShardMatchesUnsharded(t *testing.T) {
	reg := NewRegistry(Config{CacheEntries: 128, CacheBytes: 64 << 20, Shards: 1, JanitorInterval: -1})
	defer reg.Close()
	if len(reg.shards) != 1 {
		t.Fatalf("shards = %d, want 1", len(reg.shards))
	}
	if reg.shards[0].cache.maxEntries != 128 || reg.shards[0].cache.maxBytes != 64<<20 {
		t.Errorf("single-shard cache budgets = %d / %d, want the unsplit 128 / %d",
			reg.shards[0].cache.maxEntries, reg.shards[0].cache.maxBytes, int64(64<<20))
	}
	for _, id := range []string{"s-00", "s-deadbeef", "anything"} {
		if sh := reg.shardFor(id); sh != reg.shards[0] {
			t.Errorf("shardFor(%q) missed the only shard", id)
		}
	}
}

// TestShardRoutingIsFNV1aModulo pins the routing function. Journals are
// placed by it, so changing it re-homes sessions at the next boot. The
// registry's inline loop must agree with hash/fnv's 64-bit FNV-1a
// modulo the shard count, and route without allocating.
func TestShardRoutingIsFNV1aModulo(t *testing.T) {
	ids := []string{"s-00000000000000000000000000000000", "s-deadbeefdeadbeefdeadbeefdeadbeef", "s-42", "x", ""}
	for _, n := range []int{1, 2, 3, 8, 256} {
		reg := NewRegistry(Config{Shards: n, JanitorInterval: -1})
		for _, id := range ids {
			h := fnv.New64a()
			h.Write([]byte(id))
			want := int(h.Sum64() % uint64(n))
			if got := reg.shardIndex(id); got != want {
				t.Errorf("shards=%d: shardIndex(%q) = %d, want FNV-1a mod %d = %d", n, id, got, n, want)
			}
			if reg.shardFor(id) != reg.shards[want] {
				t.Errorf("shards=%d: shardFor(%q) is not shard %d", n, id, want)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { reg.shardFor(ids[1]) }); allocs != 0 {
			t.Errorf("shards=%d: routing allocates %.0f times per call, want 0", n, allocs)
		}
		reg.Close()
	}
}

// TestJanitorReapsIdleSessions is the reaping bugfix's check: a session
// idle past the TTL is reclaimed by the background janitor under pure
// read-only traffic — no CreateSession pressure required.
func TestJanitorReapsIdleSessions(t *testing.T) {
	reg := NewRegistry(Config{
		MaxSessions: 8, Shards: 4,
		SessionTTL: 5 * time.Millisecond, JanitorInterval: time.Millisecond,
	})
	defer reg.Close()
	token := dpe.MeasureToken
	s, err := reg.CreateSession(&CreateSessionRequest{Measure: &token})
	if err != nil {
		t.Fatal(err)
	}
	// Cache something so the reap has prepared state to release.
	logID, err := s.AddLog([]string{"SELECT a FROM t", "SELECT b FROM t"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Matrix(t.Context(), logID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := reg.Session(s.ID()); err != nil {
			break // reaped
		}
		if time.Now().After(deadline) {
			t.Fatal("janitor never reaped the idle session")
		}
		time.Sleep(time.Millisecond)
	}
	stats := reg.Stats()
	if stats.Sessions != 0 {
		t.Errorf("sessions after reap = %d, want 0", stats.Sessions)
	}
	if stats.PreparedCache.Entries != 0 {
		t.Errorf("cache entries after reap = %d, want 0 (prepared state released)", stats.PreparedCache.Entries)
	}
}

// TestJanitorDisabled pins the opt-out: with a negative interval, idle
// sessions survive read-only traffic (only capacity pressure reaps).
func TestJanitorDisabled(t *testing.T) {
	reg := NewRegistry(Config{SessionTTL: time.Nanosecond, JanitorInterval: -1, Shards: 2})
	defer reg.Close()
	token := dpe.MeasureToken
	s, err := reg.CreateSession(&CreateSessionRequest{Measure: &token})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if _, err := reg.Session(s.ID()); err != nil {
		t.Errorf("session reaped with the janitor disabled: %v", err)
	}
}

// TestCloseStopsJanitor checks Close actually retires the background
// goroutines: after Close, an expired session stays (nothing sweeps it).
func TestCloseStopsJanitor(t *testing.T) {
	reg := NewRegistry(Config{SessionTTL: 5 * time.Millisecond, JanitorInterval: time.Millisecond, Shards: 2})
	reg.Close() // immediately — janitors must exit
	token := dpe.MeasureToken
	s, err := reg.CreateSession(&CreateSessionRequest{Measure: &token})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if _, err := reg.Session(s.ID()); err != nil {
		t.Errorf("session reaped after Close: %v", err)
	}
	reg.Close() // idempotent
}

// TestCloseThenContinuedTraffic pins Registry.Close's contract: the
// janitor goroutines retire (no leak — this test runs under -race in
// CI), but the in-memory registry keeps serving — existing sessions
// answer matrix calls from the warm cache, new logs and sessions and
// deletes all still work. Concurrent traffic across the Close makes
// the handoff itself race-checked.
func TestCloseThenContinuedTraffic(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := NewRegistry(Config{Shards: 4, JanitorInterval: time.Millisecond, SessionTTL: time.Hour})
	ctx := context.Background()
	token := dpe.MeasureToken
	s, err := reg.CreateSession(&CreateSessionRequest{Measure: &token})
	if err != nil {
		t.Fatal(err)
	}
	log := []string{"SELECT a FROM t", "SELECT b FROM t"}
	logID, err := s.AddLog(log)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Matrix(ctx, logID)
	if err != nil {
		t.Fatal(err)
	}

	// Traffic racing the Close: the janitor shutdown must not disturb
	// in-flight tenant calls.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := s.Matrix(ctx, logID); err != nil {
					t.Errorf("matrix during close: %v", err)
					return
				}
			}
		}()
	}
	reg.Close()
	wg.Wait()

	// After Close: warm reads, new writes, and lifecycle calls all work.
	got, err := s.Matrix(ctx, logID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("matrix changed across Close")
	}
	if stats := s.Stats(); stats.PreparedMisses != 1 {
		t.Errorf("post-Close matrix misses = %d, want 1 (cache still warm)", stats.PreparedMisses)
	}
	if _, err := s.AddLog([]string{"SELECT c FROM t"}); err != nil {
		t.Errorf("AddLog after Close: %v", err)
	}
	s2, err := reg.CreateSession(&CreateSessionRequest{Measure: &token})
	if err != nil {
		t.Fatalf("CreateSession after Close: %v", err)
	}
	if err := reg.DeleteSession(s2.ID()); err != nil {
		t.Errorf("DeleteSession after Close: %v", err)
	}
	reg.Close() // idempotent

	// The janitors are gone: the goroutine count settles back to (at
	// most) where it started.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after Close = %d, started with %d (janitor leak)", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStatsPerShard checks the wire behavior of GET /v1/stats: the
// aggregate shape is unchanged by default, and ?per_shard=1 adds a
// breakdown whose slices sum to the aggregate.
func TestStatsPerShard(t *testing.T) {
	reg := NewRegistry(Config{Shards: 4, JanitorInterval: -1})
	defer reg.Close()
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	token := dpe.MeasureToken
	for i := 0; i < 6; i++ {
		if _, err := reg.CreateSession(&CreateSessionRequest{Measure: &token}); err != nil {
			t.Fatal(err)
		}
	}

	var plain map[string]json.RawMessage
	getJSON(t, srv.URL+"/v1/stats", &plain)
	if _, ok := plain["per_shard"]; ok {
		t.Error("per_shard present without the query parameter")
	}
	if _, ok := plain["shards"]; !ok {
		t.Error("aggregate stats missing the shard count")
	}

	var stats RegistryStats
	getJSON(t, srv.URL+"/v1/stats?per_shard=1", &stats)
	if stats.Shards != 4 || len(stats.PerShard) != 4 {
		t.Fatalf("per-shard stats: shards=%d breakdown=%d, want 4/4", stats.Shards, len(stats.PerShard))
	}
	total := 0
	for i, s := range stats.PerShard {
		if s.Shard != i {
			t.Errorf("PerShard[%d].Shard = %d, want %d", i, s.Shard, i)
		}
		total += s.Sessions
	}
	if total != stats.Sessions || stats.Sessions != 6 {
		t.Errorf("per-shard sessions sum to %d, aggregate says %d (want 6)", total, stats.Sessions)
	}
}

// getJSON fetches a URL and decodes its JSON body.
func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

// TestShardCountParity is the acceptance check in miniature: the same
// traffic against a 1-shard and a 16-shard server produces entry-wise
// identical matrices and identical per-session cache behavior — shard
// count is invisible on the wire.
func TestShardCountParity(t *testing.T) {
	log := []string{
		"SELECT a FROM t WHERE x = 1",
		"SELECT b FROM t WHERE x = 2",
		"SELECT a, b FROM t",
		"SELECT COUNT(*) FROM t",
	}
	tail := []string{"SELECT b FROM t WHERE y = 9"}
	ctx := t.Context()

	type outcome struct {
		matrix dpe.Matrix
		grown  dpe.Matrix
		stats  SessionStats
	}
	runAt := func(shards int) outcome {
		srv := startServer(t, Config{Shards: shards})
		sess, err := NewClient(srv.URL).NewSession(ctx, dpe.MeasureToken)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sess.DistanceMatrix(ctx, log)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.DistanceMatrix(ctx, log); err != nil { // warm
			t.Fatal(err)
		}
		grown, err := sess.Append(ctx, m, log, tail)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := sess.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{matrix: m, grown: grown, stats: *stats}
	}

	one, sixteen := runAt(1), runAt(16)
	if !reflect.DeepEqual(one.matrix, sixteen.matrix) || !reflect.DeepEqual(one.grown, sixteen.grown) {
		t.Error("matrices differ between 1-shard and 16-shard servers")
	}
	if one.stats.PreparedHits != sixteen.stats.PreparedHits ||
		one.stats.PreparedMisses != sixteen.stats.PreparedMisses {
		t.Errorf("cache behavior differs across shard counts: 1 shard %d/%d, 16 shards %d/%d (hits/misses)",
			one.stats.PreparedHits, one.stats.PreparedMisses,
			sixteen.stats.PreparedHits, sixteen.stats.PreparedMisses)
	}
}
