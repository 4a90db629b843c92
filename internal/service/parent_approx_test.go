package service

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	dpe "repro"
	"repro/internal/store"
)

// The fixtures in testdata/parent_approx were written by the release
// before the approx index was retired, with 2 shards: one token
// session, a neighbors call on clusteredLog()[:8], then an append_mine
// of the other four queries under parentApproxSpec. segment-0001.log is
// that registry's journal and session.bundle its tenant export. Each
// holds 1 session, 2 logs, 2 prepared snapshots, 1 mining state, and 2
// approx records; that release recovered and imported all of them with
// nothing skipped.
var parentApproxSpec = dpe.MineSpec{Algorithm: dpe.MineDBSCAN, Eps: 0.4, MinPts: 2}

const parentApproxDir = "testdata/parent_approx"

// journalKinds counts the record kinds left in a data directory's
// segment journals.
func journalKinds(t *testing.T, dir string) map[store.Kind]int {
	t.Helper()
	st, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	shards, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[store.Kind]int{}
	for _, i := range shards {
		lg, err := st.Open(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := lg.Replay(func(rec store.Record) error { kinds[rec.Kind]++; return nil }); err != nil {
			t.Fatal(err)
		}
		lg.Close()
	}
	return kinds
}

// onlySession returns the registry's one live session.
func onlySession(t *testing.T, reg *Registry) *session {
	t.Helper()
	var all []*session
	for _, sh := range reg.shards {
		all = append(all, sh.list()...)
	}
	if len(all) != 1 {
		t.Fatalf("registry holds %d sessions, want 1", len(all))
	}
	return all[0]
}

// checkParentTenant drives the restored tenant: the first neighbors
// call is a prepared-cache hit with the exact answer, and replaying the
// parent's append_mine is a warm hit on its mining state that
// recomputes only the matrix the journaled state leaves out.
func checkParentTenant(t *testing.T, s *session) {
	t.Helper()
	ctx := context.Background()
	log := clusteredLog()
	got, err := s.Neighbors(ctx, LogID(log), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	local, err := dpe.NewProvider(dpe.MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Neighbors(ctx, log, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("neighbors %+v, want the exact %+v", got, want)
	}
	if st := s.Stats(); st.PreparedHits != 1 || st.PreparedMisses != 0 {
		t.Errorf("first neighbors call: prepared hits/misses %d/%d, want 1/0", st.PreparedHits, st.PreparedMisses)
	}
	_, _, _, res, err := s.AppendMine(ctx, LogID(log[:8]), log[8:], parentApproxSpec)
	if err != nil {
		t.Fatal(err)
	}
	if inc := res.Incremental; inc == nil || !inc.Warm || inc.ColdFallback || inc.OldN != 12 || inc.PairsComputed != 12*11/2 {
		t.Errorf("replayed append_mine = %+v, want a warm run over 12 rows rebuilding 66 pairs", inc)
	}
	if st := s.Stats(); st.MineStateHits != 1 || st.MineStateMisses != 0 || st.ApproxHits != 0 || st.ApproxMisses != 0 {
		t.Errorf("stats after append_mine = %+v, want one mining-state hit and no approx traffic", st)
	}
}

// TestParentApproxJournalReplay replays the parent-written journal: the
// approx records count as skipped, everything else restores as it did
// at the parent, and compaction leaves no approx record behind.
func TestParentApproxJournalReplay(t *testing.T) {
	seg, err := os.ReadFile(filepath.Join(parentApproxDir, "segment-0001.log"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "segment-0001.log"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := journalKinds(t, dir)[store.KindApprox]; got != 2 {
		t.Fatalf("fixture journal holds %d approx records, want 2", got)
	}
	reg, err := OpenRegistry(persistentConfig(t, dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	want := RecoveryStats{Sessions: 1, Logs: 2, Snapshots: 2, MineStates: 1, Skipped: 2}
	if rec := reg.Recovery(); rec != want {
		t.Errorf("recovery %+v, want %+v", rec, want)
	}
	checkParentTenant(t, onlySession(t, reg))
	if err := reg.CompactAll(); err != nil {
		t.Fatal(err)
	}
	reg.Close()
	wantKinds := map[store.Kind]int{store.KindSession: 1, store.KindLog: 2, store.KindSnapshot: 2, store.KindMining: 1}
	if got := journalKinds(t, dir); !reflect.DeepEqual(got, wantKinds) {
		t.Errorf("compacted journal holds %v, want %v", got, wantKinds)
	}
}

// TestParentApproxBundleImport imports the parent-written bundle into a
// persistent registry: the approx records count as skipped, everything
// else restores warm as it did at the parent, and the journal never
// holds an approx record.
func TestParentApproxBundleImport(t *testing.T) {
	bundle, err := os.ReadFile(filepath.Join(parentApproxDir, "session.bundle"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	reg, err := OpenRegistry(persistentConfig(t, dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := reg.ImportSession(bytes.NewReader(bundle))
	if err != nil {
		t.Fatal(err)
	}
	if want := (ImportResult{Session: res.Session, Logs: 2, Snapshots: 2, MineStates: 1, Skipped: 2}); *res != want {
		t.Errorf("import %+v, want %+v", *res, want)
	}
	s, err := reg.Session(res.Session)
	if err != nil {
		t.Fatal(err)
	}
	checkParentTenant(t, s)
	if err := reg.CompactAll(); err != nil {
		t.Fatal(err)
	}
	reg.Close()
	if got := journalKinds(t, dir); got[store.KindApprox] != 0 || got[store.KindSnapshot] != 2 || got[store.KindMining] != 1 {
		t.Errorf("journal after import holds %v, want 2 snapshots, 1 mining state and no approx record", got)
	}
}
