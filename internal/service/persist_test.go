package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	dpe "repro"
	"repro/internal/store"
	"repro/internal/store/journal"
)

// persistentConfig is the kill-and-restart tests' shared shape: a
// multi-shard registry journaling to dir.
func persistentConfig(t *testing.T, dir string, shards int) Config {
	t.Helper()
	st, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Shards: shards, Store: st, JanitorInterval: -1}
}

// TestKillAndRestartRecovery is the tentpole's acceptance check: a
// multi-shard persistent registry is populated with sessions, logs, and
// warm prepared state for all four measures (encrypted artifacts),
// closed, and reopened from the same backend. Every session must
// route to the same shard, every log must be servable, the first matrix
// request after restart must be a prepared-cache hit, and the matrices
// must be entry-wise identical to their pre-restart values.
func TestKillAndRestartRecovery(t *testing.T) {
	t.Run("segments", func(t *testing.T) {
		dir := t.TempDir()
		testKillAndRestart(t, func() store.Store {
			st, err := store.OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			return st
		})
	})
}

// testKillAndRestart drives the kill-and-restart check against one
// backend; open reopens the same underlying data each call, the way a
// restarted process would.
func testKillAndRestart(t *testing.T, open func() store.Store) {
	f := newFixture(t)
	const shards = 4
	reg := NewRegistry(Config{Shards: shards, Store: open(), JanitorInterval: -1})
	ctx := context.Background()

	measures := []dpe.Measure{dpe.MeasureToken, dpe.MeasureStructure, dpe.MeasureResult, dpe.MeasureAccessArea}
	if testing.Short() {
		measures = measures[:2] // skip the Paillier-heavy artifact encryptions
	}

	type tenant struct {
		id     string
		shard  int
		logID  string
		matrix dpe.Matrix
	}
	var tenants []tenant
	byID := map[string]dpe.Measure{}
	for _, m := range measures {
		encLog, _, remoteOpts := f.measureSetup(t, m)
		req, err := BuildCreateSessionRequest(m, remoteOpts...)
		if err != nil {
			t.Fatal(err)
		}
		s, err := reg.CreateSession(req)
		if err != nil {
			t.Fatal(err)
		}
		logID, err := s.AddLog(encLog)
		if err != nil {
			t.Fatal(err)
		}
		matrix, err := s.Matrix(ctx, logID) // warms the prepared cache → snapshot journaled
		if err != nil {
			t.Fatal(err)
		}
		tenants = append(tenants, tenant{
			id: s.ID(), shard: reg.shardIndex(s.ID()), logID: logID, matrix: matrix,
		})
		byID[s.ID()] = m
	}
	// Session ids are random; add cheap token tenants until the
	// population provably spans at least two shards.
	occupied := map[int]bool{}
	for _, tn := range tenants {
		occupied[tn.shard] = true
	}
	for i := 0; len(occupied) < 2; i++ {
		if i >= 64 {
			t.Fatal("could not spread sessions over 2 shards in 64 tries")
		}
		encLog, _, _ := f.measureSetup(t, dpe.MeasureToken)
		req, _ := BuildCreateSessionRequest(dpe.MeasureToken)
		s, err := reg.CreateSession(req)
		if err != nil {
			t.Fatal(err)
		}
		logID, err := s.AddLog(encLog)
		if err != nil {
			t.Fatal(err)
		}
		matrix, err := s.Matrix(ctx, logID)
		if err != nil {
			t.Fatal(err)
		}
		tenants = append(tenants, tenant{id: s.ID(), shard: reg.shardIndex(s.ID()), logID: logID, matrix: matrix})
		byID[s.ID()] = dpe.MeasureToken
		occupied[reg.shardIndex(s.ID())] = true
	}

	reg.Close() // the "kill": flush journals and stop

	reg2, err := OpenRegistry(Config{Shards: shards, Store: open(), JanitorInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()

	rec := reg2.Recovery()
	if rec.Sessions != len(tenants) || rec.Logs != len(tenants) || rec.Snapshots != len(tenants) {
		t.Errorf("recovery = %+v, want %d sessions, logs, and snapshots", rec, len(tenants))
	}
	if stats := reg2.Stats(); stats.Recovered == nil || stats.Recovered.Sessions != len(tenants) {
		t.Errorf("stats.Recovered = %+v, want the recovery counters surfaced", stats.Recovered)
	}

	for _, tn := range tenants {
		if got := reg2.shardIndex(tn.id); got != tn.shard {
			t.Errorf("session %s routes to shard %d after restart, was %d", tn.id, got, tn.shard)
		}
		s, err := reg2.Session(tn.id)
		if err != nil {
			t.Fatalf("session %s (measure %v) not recovered: %v", tn.id, byID[tn.id], err)
		}
		if s.measure != byID[tn.id] {
			t.Errorf("session %s recovered with measure %v, want %v", tn.id, s.measure, byID[tn.id])
		}
		matrix, err := s.Matrix(ctx, tn.logID)
		if err != nil {
			t.Fatalf("log %s not servable after restart: %v", tn.logID, err)
		}
		if !reflect.DeepEqual(matrix, tn.matrix) {
			t.Errorf("measure %v matrix differs after restart", byID[tn.id])
		}
		stats := s.Stats()
		if stats.PreparedMisses != 0 || stats.PreparedHits != 1 {
			t.Errorf("measure %v first post-restart matrix: hits %d misses %d, want a pure cache hit (1/0)",
				byID[tn.id], stats.PreparedHits, stats.PreparedMisses)
		}
	}
}

// TestRecoveredStatsJSON pins the recovered object of GET /v1/stats:
// its keys, in order, and each count landing under its own key.
func TestRecoveredStatsJSON(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	reg := NewRegistry(persistentConfig(t, dir, 2))
	token := dpe.MeasureToken
	log := clusteredLog()
	for i := 0; i < 3; i++ {
		s, err := reg.CreateSession(&CreateSessionRequest{Measure: &token})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := reg.DeleteSession(s.ID()); err != nil {
				t.Fatal(err)
			}
			continue
		}
		base, err := s.AddLog(log[:8])
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if _, _, _, _, err := s.AppendMine(ctx, base, log[8:10], dpe.MineSpec{Algorithm: dpe.MineKMedoids, K: 3}); err != nil {
				t.Fatal(err)
			}
		}
	}
	reg.Close()

	reg2, err := OpenRegistry(persistentConfig(t, dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	srv := httptest.NewServer(NewHandler(reg2))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct{ Recovered json.RawMessage }
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	// Three creates, one tombstone, three logs (two bases, one combined),
	// the two snapshots of the append_mine and one k-medoids state.
	const want = `{"sessions":3,"logs":3,"snapshots":2,"mine_states":1,"tombstones":1,"skipped":0}`
	if got := string(body.Recovered); got != want {
		t.Errorf("recovered = %s, want %s", got, want)
	}
}

// TestRecoveryAfterCrash reopens a data directory that was never
// cleanly closed — the journals are whatever the crashed process had
// written, including a torn tail — and must recover everything intact
// up to the damage.
func TestRecoveryAfterCrash(t *testing.T) {
	dir := t.TempDir()
	st, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(Config{Shards: 2, Store: st, JanitorInterval: -1})
	// No reg.Close(): the process "crashes".
	ctx := context.Background()
	req, _ := BuildCreateSessionRequest(dpe.MeasureToken)
	s, err := reg.CreateSession(req)
	if err != nil {
		t.Fatal(err)
	}
	log := []string{"SELECT a FROM t", "SELECT b FROM t", "SELECT a, b FROM t"}
	logID, err := s.AddLog(log)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Matrix(ctx, logID)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the owning shard's journal tail: chop a few bytes off the
	// last record (the snapshot). Recovery must keep the session and
	// log, drop the damaged snapshot, and re-prepare on demand.
	shardIdx := reg.shardIndex(s.ID())
	path := filepath.Join(dir, fmt.Sprintf("segment-%04d.log", shardIdx))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	// A real crash takes the process's data-dir lock with it; release
	// the crashed handle's lock the same way (the journal bytes on disk
	// are untouched — recovery sees exactly the torn tail).
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	reg2, err := OpenRegistry(persistentConfig(t, dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	rec := reg2.Recovery()
	if rec.Sessions != 1 || rec.Logs != 1 || rec.Snapshots != 0 {
		t.Errorf("recovery after torn tail = %+v, want 1 session, 1 log, 0 snapshots", rec)
	}
	s2, err := reg2.Session(s.ID())
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Matrix(ctx, logID) // cold re-prepare from the recovered log
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("matrix differs after crash recovery")
	}
	if stats := s2.Stats(); stats.PreparedMisses != 1 {
		t.Errorf("post-crash matrix misses = %d, want 1 (snapshot was torn off)", stats.PreparedMisses)
	}
}

// TestRecoveryAcrossShardCounts reopens a journal under a different
// -shards value: replay routes records by id through the new ring, so
// every session lands on (and is journaled into) its new owning shard.
func TestRecoveryAcrossShardCounts(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(persistentConfig(t, dir, 4))
	ctx := context.Background()
	log := []string{"SELECT a FROM t", "SELECT b FROM t"}
	var ids []string
	for i := 0; i < 6; i++ {
		req, _ := BuildCreateSessionRequest(dpe.MeasureToken)
		s, err := reg.CreateSession(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddLog(log); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID())
	}
	reg.Close()

	for _, shards := range []int{1, 2, 8} {
		reg2, err := OpenRegistry(persistentConfig(t, dir, shards))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if rec := reg2.Recovery(); rec.Sessions != len(ids) || rec.Logs != len(ids) {
			t.Errorf("shards=%d: recovery = %+v, want %d sessions and logs", shards, rec, len(ids))
		}
		for _, id := range ids {
			s, err := reg2.Session(id)
			if err != nil {
				t.Fatalf("shards=%d: session %s lost: %v", shards, id, err)
			}
			if _, err := s.Matrix(ctx, LogID(log)); err != nil {
				t.Fatalf("shards=%d: log not servable: %v", shards, err)
			}
		}
		reg2.Close()
	}
}

// TestDeleteSurvivesRestart pins the tombstone path: a deleted (or
// TTL-reaped) session must not resurrect when the journal replays.
func TestDeleteSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(persistentConfig(t, dir, 2))
	req, _ := BuildCreateSessionRequest(dpe.MeasureToken)
	keep, err := reg.CreateSession(req)
	if err != nil {
		t.Fatal(err)
	}
	req2, _ := BuildCreateSessionRequest(dpe.MeasureToken)
	doomed, err := reg.CreateSession(req2)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.DeleteSession(doomed.ID()); err != nil {
		t.Fatal(err)
	}
	reg.Close()

	reg2, err := OpenRegistry(persistentConfig(t, dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	if _, err := reg2.Session(doomed.ID()); err == nil {
		t.Error("deleted session resurrected after restart")
	}
	if _, err := reg2.Session(keep.ID()); err != nil {
		t.Errorf("surviving session lost after restart: %v", err)
	}
	if live := reg2.live.Load(); live != 1 {
		t.Errorf("live after restart = %d, want 1", live)
	}

	// The startup compaction dropped the tombstone and the doomed
	// session's records: a third open replays only the survivor and no
	// tombstones.
	reg2.Close()
	reg3, err := OpenRegistry(persistentConfig(t, dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer reg3.Close()
	if rec := reg3.Recovery(); rec.Sessions != 1 || rec.Tombstones != 0 || rec.Skipped != 0 {
		t.Errorf("post-compaction recovery = %+v, want exactly the surviving session", rec)
	}
}

// TestCreateIgnoresTolerance: the "tolerance" field that create bodies
// carried while the server checked Definition 1 is ignored, whether an
// old client sends it or an older release journaled it. Both sessions
// are live with an equal matrix after a reopen over the same segments
// directory.
func TestCreateIgnoresTolerance(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	log := clusteredLog()
	const old = `{"measure":"token","tolerance":1e-9}`

	reg := NewRegistry(persistentConfig(t, dir, 1))
	srv := httptest.NewServer(NewHandler(reg))
	resp, err := http.Post(srv.URL+"/v1/sessions", "application/json", strings.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	var created CreateSessionResponse
	err = json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("create with a tolerance = HTTP %d, %v; want 201", resp.StatusCode, err)
	}
	sess, err := NewClient(srv.URL).AttachSession(ctx, created.Session)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sess.DistanceMatrix(ctx, log)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	reg.Close()

	// An older release journaled the create body as it came.
	journaled := "s-dddddddddddddddddddddddddddddddd"
	st, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := st.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	jl := journal.New(lg)
	for _, rec := range []journal.Record{
		journal.Session{ID: journaled, Created: time.Now(), Request: []byte(old)},
		journal.Log{SessionID: journaled, LogID: LogID(log), Queries: log},
	} {
		if err := jl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	reg2, err := OpenRegistry(persistentConfig(t, dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	srv2 := httptest.NewServer(NewHandler(reg2))
	defer srv2.Close()
	for _, id := range []string{created.Session, journaled} {
		sess, err := NewClient(srv2.URL).AttachSession(ctx, id)
		if err != nil {
			t.Fatalf("session %s after reopen: %v", id, err)
		}
		got, err := sess.DistanceMatrix(ctx, log)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("session %s: matrix after reopen differs", id)
		}
	}
}

// TestCompactionBoundsJournal checks the janitor-driven rewrite: churn
// that journals many dead records compacts down to the live state, and
// the compacted journal still recovers it.
func TestCompactionBoundsJournal(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(persistentConfig(t, dir, 1))
	ctx := context.Background()
	// Churn: 8 tenant lifecycles that each journal a create, a log, a
	// snapshot, and a tombstone.
	for i := 0; i < 8; i++ {
		req, _ := BuildCreateSessionRequest(dpe.MeasureToken)
		s, err := reg.CreateSession(req)
		if err != nil {
			t.Fatal(err)
		}
		logID, err := s.AddLog([]string{fmt.Sprintf("SELECT c%d FROM t", i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Matrix(ctx, logID); err != nil {
			t.Fatal(err)
		}
		if err := reg.DeleteSession(s.ID()); err != nil {
			t.Fatal(err)
		}
	}
	req, _ := BuildCreateSessionRequest(dpe.MeasureToken)
	survivor, err := reg.CreateSession(req)
	if err != nil {
		t.Fatal(err)
	}
	logID, err := survivor.AddLog([]string{"SELECT a FROM t", "SELECT b FROM t"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := survivor.Matrix(ctx, logID); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "segment-0000.log")
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.CompactAll(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Errorf("compaction grew the journal: %d -> %d bytes", before.Size(), after.Size())
	}
	reg.Close()

	reg2, err := OpenRegistry(persistentConfig(t, dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	if rec := reg2.Recovery(); rec.Sessions != 1 || rec.Logs != 1 || rec.Snapshots != 1 || rec.Tombstones != 0 {
		t.Errorf("recovery from compacted journal = %+v, want exactly the survivor's records", rec)
	}
	s, err := reg2.Session(survivor.ID())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Matrix(ctx, logID); err != nil {
		t.Fatal(err)
	}
	if stats := s.Stats(); stats.PreparedMisses != 0 {
		t.Errorf("post-compaction matrix missed the recovered snapshot (%d misses)", stats.PreparedMisses)
	}
}

// TestCompactionWritesChainAsDeltas: compacting a session whose log
// was appended to k times writes its root and k deltas, each after its
// base, into a smaller segment than rewriting every log whole, as
// releases before delta records did, and the compacted journal replays
// to the same logs.
func TestCompactionWritesChainAsDeltas(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(persistentConfig(t, dir, 1))
	log := clusteredLog()
	s, ids := appendChain(t, reg, log, 4, 2)
	if err := reg.CompactAll(); err != nil {
		t.Fatal(err)
	}
	reg.Close()

	// The compacted segment's log records, in order, and its size as
	// it is and with each delta framed as its whole log.
	var logs []journal.Log
	var size, wholeSize int
	eachRecord(t, dir, func(_ int, raw store.Record) {
		frame, err := store.AppendFrame(nil, raw)
		if err != nil {
			t.Fatal(err)
		}
		size += len(frame)
		if raw.Kind == store.KindLog {
			rec, err := journal.Decode(raw)
			if err != nil {
				t.Fatal(err)
			}
			l := rec.(journal.Log)
			logs = append(logs, l)
			whole, err := json.Marshal(log[:4+2*slices.Index(ids, l.LogID)])
			if err != nil {
				t.Fatal(err)
			}
			raw = store.Record{Kind: store.KindLog, Session: raw.Session, Log: raw.Log, Data: whole}
			if frame, err = store.AppendFrame(nil, raw); err != nil {
				t.Fatal(err)
			}
		}
		wholeSize += len(frame)
	})
	if len(logs) != len(ids) {
		t.Fatalf("compaction wrote %d log records, want %d", len(logs), len(ids))
	}
	for i, l := range logs {
		base, queries := "", log[:4]
		if i > 0 {
			base, queries = ids[i-1], log[2+2*i:4+2*i]
		}
		if l.LogID != ids[i] || l.Base != base || !reflect.DeepEqual(l.Queries, queries) {
			t.Errorf("log record %d = %s against %q with %d queries, want %s against %q with %d", i, l.LogID, l.Base, len(l.Queries), ids[i], base, len(queries))
		}
	}
	if size >= wholeSize {
		t.Errorf("compacted segment holds %d bytes, not fewer than the %d of whole logs", size, wholeSize)
	}

	reg2, err := OpenRegistry(persistentConfig(t, dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	if rec := reg2.Recovery(); rec.Logs != len(ids) || rec.Skipped != 0 {
		t.Errorf("recovery from the compacted journal = %+v, want %d logs and no skips", rec, len(ids))
	}
	s2, err := reg2.Session(s.ID())
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if got, err := s2.log(id); err != nil || !reflect.DeepEqual(got, log[:4+2*i]) {
			t.Errorf("log %d after the restart = %v, %v; want its %d queries", i, got, err, 4+2*i)
		}
	}
}

// TestJanitorDrivesCompaction checks the periodic path end to end: with
// a tiny CompactEvery, dead records disappear from the journal without
// any explicit CompactAll call.
func TestJanitorDrivesCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(Config{
		Shards: 1, Store: st,
		SessionTTL: time.Hour, JanitorInterval: time.Millisecond, CompactEvery: 2 * time.Millisecond,
	})
	defer reg.Close()
	for i := 0; i < 4; i++ {
		req, _ := BuildCreateSessionRequest(dpe.MeasureToken)
		s, err := reg.CreateSession(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.DeleteSession(s.ID()); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "segment-0000.log")
	deadline := time.Now().Add(5 * time.Second)
	for {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			break // everything was dead; the janitor compacted it away
		}
		if time.Now().After(deadline) {
			t.Fatalf("janitor never compacted the journal (still %d bytes)", fi.Size())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTombstoneBeforeCreateAcrossJournals pins replay-order
// independence: when a session's create record lives in a journal that
// replays *after* the journal holding its tombstone (a re-homed
// session whose orphan retirement failed), the tombstone must still
// win — a deleted tenant never resurrects.
func TestTombstoneBeforeCreateAcrossJournals(t *testing.T) {
	dir := t.TempDir()
	// Hand-write the journals: shard 0 (replayed first) holds the
	// tombstone, shard 5 (an orphan under shards=2, replayed last)
	// holds the create and a log.
	st, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := "s-aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
	token := dpe.MeasureToken
	reqData, err := json.Marshal(&CreateSessionRequest{Measure: &token})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"SELECT a FROM t"}
	earlyLog, err := st.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	early := journal.New(earlyLog)
	if err := early.Append(journal.Delete{ID: id}); err != nil {
		t.Fatal(err)
	}
	early.Close()
	lateLog, err := st.Open(5)
	if err != nil {
		t.Fatal(err)
	}
	late := journal.New(lateLog)
	if err := late.Append(journal.Session{ID: id, Created: time.Now(), Request: reqData}); err != nil {
		t.Fatal(err)
	}
	if err := late.Append(journal.Log{SessionID: id, LogID: LogID(queries), Queries: queries}); err != nil {
		t.Fatal(err)
	}
	late.Close()
	// Release the hand-writer's dir lock before the registry opens it.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	reg, err := OpenRegistry(persistentConfig(t, dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if _, err := reg.Session(id); err == nil {
		t.Error("tombstoned session resurrected from a later journal")
	}
	if live := reg.live.Load(); live != 0 {
		t.Errorf("live = %d after replaying a fully-tombstoned journal set, want 0", live)
	}
	rec := reg.Recovery()
	if rec.Tombstones != 1 || rec.Sessions != 0 {
		t.Errorf("recovery = %+v, want the tombstone honored and no session restored", rec)
	}
}

// --- session-lifecycle bugfix regressions ---

// TestStatsPollingDoesNotImmortalizeSession is the stats bugfix check:
// a monitoring poller hitting GET /v1/sessions/{id} more often than the
// TTL must not keep an otherwise-idle session alive — observing is not
// using, and the janitor must still reap it.
func TestStatsPollingDoesNotImmortalizeSession(t *testing.T) {
	reg := NewRegistry(Config{
		Shards: 2, SessionTTL: 10 * time.Millisecond, JanitorInterval: time.Millisecond,
	})
	defer reg.Close()
	req, _ := BuildCreateSessionRequest(dpe.MeasureToken)
	s, err := reg.CreateSession(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := reg.Session(s.ID()); err != nil {
			break // reaped while being polled — the fix
		}
		s.Stats() // the poller: far more frequent than the 10ms TTL
		if time.Now().After(deadline) {
			t.Fatal("stats polling kept the idle session alive past its TTL")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLogIDUsesFullDigest is the content-address bugfix check: the log
// id must carry the full SHA-256 (64 hex chars), not a truncated
// 64-bit prefix a collision could silently cross logs with.
func TestLogIDUsesFullDigest(t *testing.T) {
	id := LogID([]string{"SELECT a FROM t"})
	if !strings.HasPrefix(id, "l-") {
		t.Fatalf("LogID = %q, want the l- prefix", id)
	}
	if hexLen := len(id) - len("l-"); hexLen != 64 {
		t.Errorf("LogID carries %d hex chars, want the full 64 (256-bit digest)", hexLen)
	}
	if again := LogID([]string{"SELECT a FROM t"}); again != id {
		t.Error("LogID is not deterministic")
	}
	if other := LogID([]string{"SELECT b FROM t"}); other == id {
		t.Error("distinct logs share a LogID")
	}
	// The framing is length-prefixed: a boundary shift must not collide.
	if LogID([]string{"ab", "c"}) == LogID([]string{"a", "bc"}) {
		t.Error("LogID ignores query boundaries")
	}
	// Log ids are persisted in journals and bundles, so the id of a
	// fixed log is pinned: an empty query, a multi-byte rune, embedded
	// newlines, and a query longer than the others.
	golden := []string{
		"SELECT a FROM t WHERE b = 1",
		"",
		"SELECT name FROM people WHERE city = 'Zürich'",
		strings.Repeat("x", 300),
		"q\nwith\nnewlines",
	}
	if got, want := LogID(golden), "l-f4eec8cdc33e8ff48175bf7d2a315fda2807d6b5588996d7afbde6ac2e7683f5"; got != want {
		t.Errorf("LogID(golden) = %s, want %s", got, want)
	}
}

// TestInflightPrepareSurvivesJanitor is the reap-during-build bugfix
// check: a cold Prepare that outlasts the idle TTL must neither get its
// session reaped out from under it (the build is pinned) nor have its
// result discarded — the follow-up call is a cache hit, and the idle
// clock restarts at build completion.
func TestInflightPrepareSurvivesJanitor(t *testing.T) {
	reg := NewRegistry(Config{
		Shards: 2, SessionTTL: 5 * time.Millisecond, JanitorInterval: time.Millisecond,
	})
	defer reg.Close()
	req, _ := BuildCreateSessionRequest(dpe.MeasureToken)
	s, err := reg.CreateSession(req)
	if err != nil {
		t.Fatal(err)
	}
	log := []string{"SELECT a FROM t", "SELECT b FROM t"}
	logID, err := s.AddLog(log)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// A slow metric stand-in: the real Prepare plus a sleep spanning
	// many TTLs and janitor ticks.
	slowBuild := func(ctx context.Context) (*dpe.PreparedLog, error) {
		time.Sleep(60 * time.Millisecond)
		return s.provider.Prepare(ctx, log)
	}
	if _, err := s.preparedBy(ctx, logID, slowBuild); err != nil {
		t.Fatal(err)
	}
	// The session survived the build (the janitor ticked ~60 times).
	if _, err := reg.Session(s.ID()); err != nil {
		t.Fatalf("session reaped while its Prepare was in flight: %v", err)
	}
	// The result was cached, not discarded: the next call hits.
	if _, err := s.Matrix(ctx, logID); err != nil {
		t.Fatal(err)
	}
	if stats := s.Stats(); stats.PreparedMisses != 1 || stats.PreparedHits != 1 {
		t.Errorf("after slow build + one matrix call: hits %d misses %d, want 1/1 (result kept)",
			stats.PreparedHits, stats.PreparedMisses)
	}
	// With no further traffic the session still ages out normally.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := reg.Session(s.ID()); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session never reaped after its build completed and traffic stopped")
		}
		time.Sleep(time.Millisecond)
	}
}
