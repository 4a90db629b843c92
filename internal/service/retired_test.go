package service

import (
	"bytes"
	"context"
	"encoding/json"
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

// A prepared snapshot or a mining state is a cache of its log, so a
// record in a format no binary writes any more is not restored: its
// decoder rejects it, journal replay and bundle import count it as one
// skip, and the session and its log stay live and answer as a fresh
// session's do. The retired formats are the JSON-era (v1) mining states
// under testdata/minestate_v1, the v2 mining states of every algorithm
// but k-medoids under testdata/minestate_v2 (only a k-medoids warm
// start is persisted now; a cold mine rebuilds the others), and the
// map-era snapshots in payload tags 1 and 2 under
// internal/distance/testdata.

// retiredRecord is one cache record in a retired format, filed under
// the first 9 queries of retiredLog in a session of measure; spec is
// the append_mine the restored session answers first.
type retiredRecord struct {
	name    string
	measure dpe.Measure
	kind    store.Kind
	path    string
	spec    dpe.MineSpec
}

const retiredFixtures = "../../testdata/minestate_v1"

// retiredLog is the log the v1 mining states were mined from: they
// cover its first 9 queries, and the first append_mine adds the other
// 5.
func retiredLog(t *testing.T) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(retiredFixtures, "log.txt"))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
}

// retiredSpecs are the specs the retired mining states were mined
// under, so a state that were restored would warm-start the first
// append_mine.
var retiredSpecs = []dpe.MineSpec{
	{Algorithm: dpe.MineKMedoids, K: 3},
	{Algorithm: dpe.MineDBSCAN, Eps: 0.4, MinPts: 2},
	{Algorithm: dpe.MineCompleteLink, K: 3},
	{Algorithm: dpe.MineOutliers, P: 0.8, D: 0.7},
	{Algorithm: dpe.MineKNN, Query: 1, K: 3},
	{Algorithm: dpe.MineApriori, MinSupport: 4, MaxLen: 2},
}

// retiredMineStates are the six v1 mining states.
func retiredMineStates() []retiredRecord {
	var out []retiredRecord
	for _, spec := range retiredSpecs {
		name := spec.Algorithm.String()
		out = append(out, retiredRecord{"v1_" + name, dpe.MeasureToken, store.KindMining,
			filepath.Join(retiredFixtures, name+".json"), spec})
	}
	return out
}

// retiredV2MineStates are the five v2 mining states of the algorithms
// other than k-medoids, as the encoder of the release before wrote them.
func retiredV2MineStates() []retiredRecord {
	var out []retiredRecord
	for _, spec := range retiredSpecs[1:] {
		name := spec.Algorithm.String()
		out = append(out, retiredRecord{"v2_" + name, dpe.MeasureToken, store.KindMining,
			filepath.Join("../../testdata/minestate_v2", name+".bin"), spec})
	}
	return out
}

// retiredSnapshots are the map-era snapshots of a token log (tag 1) and
// a structure log (tag 2).
func retiredSnapshots() []retiredRecord {
	dbscan := dpe.MineSpec{Algorithm: dpe.MineDBSCAN, Eps: 0.4, MinPts: 2}
	dir := filepath.Join("..", "distance", "testdata")
	return []retiredRecord{
		{"tag1_token", dpe.MeasureToken, store.KindSnapshot, filepath.Join(dir, "snapshot_legacy_token.bin"), dbscan},
		{"tag2_structure", dpe.MeasureStructure, store.KindSnapshot, filepath.Join(dir, "snapshot_legacy_structure.bin"), dbscan},
	}
}

// records returns the journal records of a tenant holding r: its
// session, the log's first 9 queries, and r filed under that log.
func (r retiredRecord) records(t *testing.T, id string, log []string) []journal.Record {
	t.Helper()
	blob, err := os.ReadFile(r.path)
	if err != nil {
		t.Fatal(err)
	}
	measure := r.measure
	req, err := json.Marshal(CreateSessionRequest{Measure: &measure})
	if err != nil {
		t.Fatal(err)
	}
	baseID := LogID(log[:9])
	return []journal.Record{
		journal.Session{ID: id, Created: time.Now(), Request: req},
		journal.Log{SessionID: id, LogID: baseID, Queries: log[:9]},
		journal.Artifact{Kind: r.kind, SessionID: id, LogID: baseID, Blob: blob},
	}
}

// checkAnswersFresh checks that the restored session s answers as a
// fresh session with r's log does: the base log's matrix entry for
// entry, then r's append_mine, which runs cold, and whose DBSCAN labels
// equal a cold mine's.
func checkAnswersFresh(t *testing.T, s *session, r retiredRecord, log []string) {
	t.Helper()
	ctx := context.Background()
	fresh := NewRegistry(Config{Shards: 1})
	defer fresh.Close()
	measure := r.measure
	fs, err := fresh.CreateSession(&CreateSessionRequest{Measure: &measure})
	if err != nil {
		t.Fatal(err)
	}
	baseID, err := fs.AddLog(log[:9])
	if err != nil {
		t.Fatal(err)
	}
	want, err := fs.Matrix(ctx, baseID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Matrix(ctx, baseID)
	if err != nil {
		t.Fatalf("the restored session's log is not live: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("restored matrix %v, a fresh session's %v", got, want)
	}
	_, _, wantRows, wantRes, err := fs.AppendMine(ctx, baseID, log[9:], r.spec)
	if err != nil {
		t.Fatal(err)
	}
	combinedID, _, rows, res, err := s.AppendMine(ctx, baseID, log[9:], r.spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incremental == nil || res.Incremental.Warm {
		t.Errorf("first append_mine %+v, want a cold bootstrap", res.Incremental)
	}
	if !reflect.DeepEqual(res.Incremental, wantRes.Incremental) || !sameMineResult(res, wantRes) || !reflect.DeepEqual(rows, wantRows) {
		t.Errorf("first append_mine serves %+v, a fresh session %+v", res, wantRes)
	}
	if r.spec.Algorithm == dpe.MineDBSCAN {
		cold, err := s.Mine(ctx, combinedID, r.spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Labels, cold.Labels) {
			t.Errorf("append_mine labels %v, a cold mine's %v", res.Labels, cold.Labels)
		}
	}
}

// replayRetired journals a tenant holding r, reopens the registry over
// the journal, and checks that r is the one skipped record.
func replayRetired(t *testing.T, r retiredRecord) {
	log := retiredLog(t)
	const id = "s-retired"
	dir := t.TempDir()
	st, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := st.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	jl := journal.New(lg)
	for _, rec := range r.records(t, id, log) {
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
	if rec, want := reg.Recovery(), (RecoveryStats{Sessions: 1, Logs: 1, Skipped: 1}); rec != want {
		t.Errorf("recovery %+v, want %+v", rec, want)
	}
	s, err := reg.Session(id)
	if err != nil {
		t.Fatalf("the session is not live after replay: %v", err)
	}
	checkAnswersFresh(t, s, r, log)
}

// TestMineStateV1JournalReplay replays a journal holding a mining state
// that the JSON-era (v1) encoder wrote, for each algorithm: the record
// is the one skip, and the session answers as a fresh one does.
func TestMineStateV1JournalReplay(t *testing.T) {
	for _, r := range retiredMineStates() {
		t.Run(r.name, func(t *testing.T) { replayRetired(t, r) })
	}
}

// TestMineStateV2JournalReplay replays a journal holding a v2 mining
// state of an algorithm whose state is no longer persisted: the record
// is the one skip, and the session answers as a fresh one does.
func TestMineStateV2JournalReplay(t *testing.T) {
	for _, r := range retiredV2MineStates() {
		t.Run(r.name, func(t *testing.T) { replayRetired(t, r) })
	}
}

// TestRetiredSnapshotJournalReplay replays a journal holding a
// snapshot in a retired payload tag: the record is the one skip, and
// the log is prepared again on the first request.
func TestRetiredSnapshotJournalReplay(t *testing.T) {
	for _, r := range retiredSnapshots() {
		t.Run(r.name, func(t *testing.T) { replayRetired(t, r) })
	}
}

// TestRetiredCacheRecordsImport imports a bundle holding each retired
// cache record: the import counts it in Skipped, and the session
// answers as a fresh one does.
func TestRetiredCacheRecordsImport(t *testing.T) {
	log := retiredLog(t)
	for _, r := range slices.Concat(retiredMineStates(), retiredV2MineStates(), retiredSnapshots()) {
		t.Run(r.name, func(t *testing.T) {
			var buf bytes.Buffer
			bw, err := journal.NewBundleWriter(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range r.records(t, "s-retired", log) {
				if err := bw.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := bw.Close(); err != nil {
				t.Fatal(err)
			}
			reg := NewRegistry(Config{Shards: 2})
			defer reg.Close()
			res, err := reg.ImportSession(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if want := (ImportResult{Session: "s-retired", Logs: 1, Skipped: 1}); *res != want {
				t.Errorf("import %+v, want %+v", *res, want)
			}
			s, err := reg.Session(res.Session)
			if err != nil {
				t.Fatalf("the session is not live after import: %v", err)
			}
			checkAnswersFresh(t, s, r, log)
		})
	}
}
