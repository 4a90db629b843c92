package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	dpe "repro"
	"repro/internal/store"
	"repro/internal/store/journal"
)

// populateTenant builds one warm tenant on reg: a base log, an
// append_mine that leaves a combined log plus an incremental mining
// state, and prepared snapshots — every artifact class a bundle
// carries. It returns the session id, the combined log
// id, the mining spec, and the reference matrix and neighbors.
func populateTenant(t *testing.T, reg *Registry) (id, combinedID string, spec dpe.MineSpec, matrix dpe.Matrix, nb *dpe.NeighborsResult) {
	t.Helper()
	ctx := context.Background()
	token := dpe.MeasureToken
	log := clusteredLog()
	spec = dpe.MineSpec{Algorithm: dpe.MineDBSCAN, Eps: 0.4, MinPts: 2}
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
	if res.Incremental == nil {
		t.Fatal("append_mine did not run incrementally")
	}
	matrix, err = s.Matrix(ctx, combinedID)
	if err != nil {
		t.Fatal(err)
	}
	nb, err = s.Neighbors(ctx, combinedID, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	return s.ID(), combinedID, spec, matrix, nb
}

// TestExportImportRoundTrip is the tenant-bundle acceptance check: a
// warm session exported from an in-memory registry and imported into a
// persistent one must answer entry-wise identically —
// and answer *warm*: the first matrix call is a prepared-cache hit, the
// first neighbors call another, and the first append_mine a warm
// incremental continuation. The imported state must also be journaled
// durably: a kill-and-restart of the target recovers it.
func TestExportImportRoundTrip(t *testing.T) {
	t.Run("segments", func(t *testing.T) {
		dir := t.TempDir()
		testExportImportRoundTrip(t, func() store.Store {
			st, err := store.OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			return st
		})
	})
}

func testExportImportRoundTrip(t *testing.T, open func() store.Store) {
	ctx := context.Background()
	log := clusteredLog()

	// Source: a plain in-memory registry — the bundle, not a journal, is
	// the persistence being produced.
	src := NewRegistry(Config{Shards: 2})
	defer src.Close()
	id, combinedID, spec, wantMatrix, wantNb := populateTenant(t, src)
	var buf bytes.Buffer
	if err := src.ExportSession(id, &buf); err != nil {
		t.Fatal(err)
	}
	if err := src.ExportSession("s-no-such-session", io.Discard); err == nil {
		t.Error("export of an unknown session succeeded")
	}

	dst := NewRegistry(Config{Shards: 4, Store: open(), JanitorInterval: -1})
	res, err := dst.ImportSession(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Session != id {
		t.Errorf("imported session id = %q, want the exported %q", res.Session, id)
	}
	if res.Logs != 2 || res.Snapshots < 1 || res.MineStates < 1 || res.Skipped != 0 {
		t.Errorf("import result = %+v, want 2 logs and warm snapshot/mining state", res)
	}

	s, err := dst.Session(id)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Matrix(ctx, combinedID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantMatrix) {
		t.Error("imported matrix differs from the exported one")
	}
	if stats := s.Stats(); stats.PreparedHits != 1 || stats.PreparedMisses != 0 {
		t.Errorf("first post-import matrix: hits %d misses %d, want a pure cache hit", stats.PreparedHits, stats.PreparedMisses)
	}
	gotNb, err := s.Neighbors(ctx, combinedID, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotNb, wantNb) {
		t.Error("imported neighbors differ from the exported ones")
	}
	if stats := s.Stats(); stats.PreparedHits != 2 || stats.PreparedMisses != 0 {
		t.Errorf("first post-import neighbors missed imported state: %+v", stats)
	}
	// The imported mining state continues warm.
	_, _, _, mres, err := s.AppendMine(ctx, combinedID, log[10:12], spec)
	if err != nil {
		t.Fatal(err)
	}
	if mres.Incremental == nil || !mres.Incremental.Warm || mres.Incremental.ColdFallback {
		t.Errorf("first post-import append_mine = %+v, want a warm continuation", mres.Incremental)
	}

	// A second import of the same id is rejected while it is live.
	if _, err := dst.ImportSession(bytes.NewReader(buf.Bytes())); err == nil || !strings.Contains(err.Error(), "already live") {
		t.Errorf("re-import of a live session = %v, want an already-live error", err)
	}

	// The import journaled durably: a kill-and-restart recovers the
	// tenant with the same answers.
	dst.Close()
	dst2, err := OpenRegistry(Config{Shards: 4, Store: open(), JanitorInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer dst2.Close()
	rec := dst2.Recovery()
	if rec.Sessions != 1 || rec.Logs < 2 {
		t.Errorf("post-import recovery = %+v, want the imported tenant", rec)
	}
	s2, err := dst2.Session(id)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := s2.Matrix(ctx, combinedID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, wantMatrix) {
		t.Error("matrix differs after restarting the import target")
	}
}

// TestImportRejectsBadBundles: a damaged or non-bundle body, and a
// bundle violating the registry's budgets, must fail with no state
// change.
func TestImportRejectsBadBundles(t *testing.T) {
	reg := NewRegistry(Config{Shards: 2})
	defer reg.Close()
	if _, err := reg.ImportSession(strings.NewReader("not a bundle")); err == nil {
		t.Error("importing garbage succeeded")
	}

	src := NewRegistry(Config{Shards: 2})
	defer src.Close()
	id, _, _, _, _ := populateTenant(t, src)
	var buf bytes.Buffer
	if err := src.ExportSession(id, &buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// A truncated download fails the bundle's integrity checks.
	if _, err := reg.ImportSession(bytes.NewReader(good[:len(good)-5])); err == nil {
		t.Error("importing a truncated bundle succeeded")
	}
	// Per-session budgets apply as if the tenant had re-uploaded: a
	// registry whose log budget is too small refuses the bundle.
	tiny := NewRegistry(Config{Shards: 2, MaxLogsPerSession: 1})
	defer tiny.Close()
	if _, err := tiny.ImportSession(bytes.NewReader(good)); err == nil || !strings.Contains(err.Error(), "per-session limit") {
		t.Errorf("import over the log limit = %v, want a budget error", err)
	}
	tinyBytes := NewRegistry(Config{Shards: 2, MaxLogBytesPerSession: 8})
	defer tinyBytes.Close()
	if _, err := tinyBytes.ImportSession(bytes.NewReader(good)); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("import over the byte budget = %v, want a budget error", err)
	}

	// Nothing leaked into the target registry.
	if n := reg.live.Load(); n != 0 {
		t.Errorf("failed imports left %d live sessions", n)
	}
}

// TestForeignSnapshotIsSkipped: a prepared-state snapshot filed under a
// log it was not built for (here: log B's 4-query state under the id of
// the 8-query log A) must not be served as A's state. Import and replay
// both count it skipped, and the first matrix of A is prepared afresh
// at the full 8×8. An imported bundle must not reach another live
// tenant's cache either, even with a snapshot of the right length.
func TestForeignSnapshotIsSkipped(t *testing.T) {
	ctx := context.Background()
	log := clusteredLog()
	logA, logB, logC := log[:8], log[8:12], log[4:12]
	token := dpe.MeasureToken
	p, err := dpe.NewProvider(token)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func(queries []string) []byte {
		pl, err := p.Prepare(ctx, queries)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := p.MarshalPreparedLog(pl)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	blobB := snapshot(logB)
	req, err := json.Marshal(CreateSessionRequest{Measure: &token})
	if err != nil {
		t.Fatal(err)
	}
	const id = "s-foreign-snapshot"
	idA := LogID(logA)
	recs := []journal.Record{
		journal.Session{ID: id, Created: time.Now(), Request: req},
		journal.Log{SessionID: id, LogID: idA, Queries: logA},
		journal.Artifact{Kind: store.KindSnapshot, SessionID: id, LogID: idA, Blob: blobB},
	}
	checkMatrix := func(t *testing.T, reg *Registry) {
		t.Helper()
		s, err := reg.Session(id)
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.Matrix(ctx, idA)
		if err != nil {
			t.Fatal(err)
		}
		if len(m) != len(logA) || len(m[0]) != len(logA) {
			t.Errorf("Matrix(A) is %d×%d, want %d×%d", len(m), len(m[0]), len(logA), len(logA))
		}
	}

	t.Run("import", func(t *testing.T) {
		reg := NewRegistry(Config{Shards: 2})
		defer reg.Close()
		other, err := reg.CreateSession(&CreateSessionRequest{Measure: &token})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := other.AddLog(logA); err != nil {
			t.Fatal(err)
		}
		want, err := other.Matrix(ctx, idA)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		bw, err := journal.NewBundleWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		cross := journal.Artifact{Kind: store.KindSnapshot, SessionID: other.ID(), LogID: idA, Blob: snapshot(logC)}
		for _, rec := range append(recs, cross) {
			if err := bw.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Close(); err != nil {
			t.Fatal(err)
		}
		res, err := reg.ImportSession(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if res.Snapshots != 0 || res.Skipped != 2 {
			t.Errorf("import result = %+v, want both foreign snapshots skipped", res)
		}
		checkMatrix(t, reg)
		if got, err := other.Matrix(ctx, idA); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("another tenant's matrix changed by the import (err %v)", err)
		}
	})

	t.Run("replay", func(t *testing.T) {
		dir := t.TempDir()
		st, err := store.OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		// Replay routes records by session id, whichever journal holds them.
		lg, err := st.Open(0)
		if err != nil {
			t.Fatal(err)
		}
		jl := journal.New(lg)
		for _, rec := range recs {
			if err := jl.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		jl.Close()
		st.Close()

		reg, err := OpenRegistry(persistentConfig(t, dir, 2))
		if err != nil {
			t.Fatal(err)
		}
		defer reg.Close()
		if rec := reg.Recovery(); rec.Sessions != 1 || rec.Snapshots != 0 || rec.Skipped != 1 {
			t.Errorf("recovery = %+v, want the session back and the foreign snapshot skipped", rec)
		}
		checkMatrix(t, reg)
	})
}

// TestImportAfterDeleteDropsTombstone is the resurrect-hazard check: on
// a persistent registry, deleting a tenant journals a tombstone; a
// later re-import of the same id must survive a restart — the import
// path compacts the shard so the stale tombstone cannot outvote the
// fresh create at replay.
func TestImportAfterDeleteDropsTombstone(t *testing.T) {
	dir := t.TempDir()
	open := func() store.Store {
		st, err := store.OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	reg := NewRegistry(Config{Shards: 2, Store: open(), JanitorInterval: -1})
	id, combinedID, _, wantMatrix, _ := populateTenant(t, reg)
	var buf bytes.Buffer
	if err := reg.ExportSession(id, &buf); err != nil {
		t.Fatal(err)
	}
	if err := reg.DeleteSession(id); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.ImportSession(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	reg.Close()

	reg2, err := OpenRegistry(Config{Shards: 2, Store: open(), JanitorInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	s, err := reg2.Session(id)
	if err != nil {
		t.Fatalf("re-imported session lost after restart (tombstone won): %v", err)
	}
	got, err := s.Matrix(context.Background(), combinedID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantMatrix) {
		t.Error("re-imported matrix differs after restart")
	}
}

// TestExportImportHTTP drives the wire path end to end: dpectl-style
// export from one server, import into another, and parity through an
// attached client handle on the restored id.
func TestExportImportHTTP(t *testing.T) {
	ctx := context.Background()
	log := clusteredLog()

	srcClient := NewClient(startServer(t, Config{Shards: 2}).URL)
	sess, err := srcClient.NewSession(ctx, dpe.MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sess.DistanceMatrix(ctx, log)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := srcClient.ExportSession(ctx, sess.ID(), &buf); err != nil {
		t.Fatal(err)
	}
	if err := srcClient.ExportSession(ctx, "s-no-such", io.Discard); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("export of an unknown session = %v, want a 404", err)
	}

	dstClient := NewClient(startServer(t, Config{Shards: 2}).URL)
	res, err := dstClient.ImportSession(ctx, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Session != sess.ID() || res.Logs != 1 {
		t.Errorf("import result = %+v, want the exported session with 1 log", res)
	}
	attached, err := dstClient.AttachSession(ctx, res.Session)
	if err != nil {
		t.Fatal(err)
	}
	if attached.Measure() != dpe.MeasureToken {
		t.Errorf("attached measure = %v, want token", attached.Measure())
	}
	got, err := attached.DistanceMatrix(ctx, log)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("imported matrix differs over the wire")
	}
	// A corrupt upload is rejected with no session created.
	corrupt := append([]byte(nil), buf.Bytes()...)
	corrupt[len(corrupt)/2] ^= 0xFF
	if _, err := dstClient.ImportSession(ctx, bytes.NewReader(corrupt)); err == nil {
		t.Error("importing a corrupted bundle succeeded")
	}
}
