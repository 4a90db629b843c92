package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	dpe "repro"
	"repro/internal/store"
	"repro/internal/store/journal"
)

// The fixture in testdata/ring_journal was written by the release that
// routed sessions through a consistent-hash ring, with 4 shards, and
// cannot be regenerated: that router is gone. Its registry created 16
// token sessions, each uploading one log and asking for its matrix
// (journaling the prepared snapshot), then one k-medoids session that
// uploaded clusteredLog()[:8] and ran an append_mine of the next two
// queries under ringKMedoidsSpec, which journals the combined log, both
// snapshots and the warm start. The segments hold 17 sessions, 18 logs,
// 18 snapshots and 1 mining state; 14 of the sessions sit in a segment
// that FNV-1a modulo 4 does not route them to. expected.json records,
// per session, the log id and the matrix that release served, and the
// medoids and assignment that release's post-restart append_mine of
// clusteredLog()[10:12] returned, warm, over the k-medoids session's
// 10-query log.
const ringJournalDir = "testdata/ring_journal"

var ringKMedoidsSpec = dpe.MineSpec{Algorithm: dpe.MineKMedoids, K: 3}

// ringExpected is testdata/ring_journal/expected.json.
type ringExpected struct {
	Shards   int `json:"shards"`
	Sessions []struct {
		ID     string     `json:"id"`
		Log    string     `json:"log"`
		Matrix dpe.Matrix `json:"matrix"`
	} `json:"sessions"`
	KMedoids struct {
		Session string `json:"session"`
		Log     string `json:"log"`
		Medoids []int  `json:"medoids"`
		Assign  []int  `json:"assign"`
	} `json:"kmedoids"`
}

// ringRecovery is what a boot over the ring fixture must restore, each
// record counted once.
var ringRecovery = RecoveryStats{Sessions: 17, Logs: 18, Snapshots: 18, MineStates: 1}

func readRingExpected(t *testing.T) ringExpected {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(ringJournalDir, "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	var exp ringExpected
	if err := json.Unmarshal(b, &exp); err != nil {
		t.Fatal(err)
	}
	return exp
}

// copySegments copies the segment files of src into a fresh directory.
func copySegments(t *testing.T, src string) string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(src, "segment-*.log"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no segments in %s (%v)", src, err)
	}
	dst := t.TempDir()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(f)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// journalPlacement maps each session id to the segments that hold any
// of its records.
func journalPlacement(t *testing.T, dir string) map[string][]int {
	t.Helper()
	at := map[string][]int{}
	eachRecord(t, dir, func(i int, rec store.Record) {
		if held := at[rec.Session]; len(held) == 0 || held[len(held)-1] != i {
			at[rec.Session] = append(held, i)
		}
	})
	return at
}

// checkOwnersOnly fails unless every session in want sits in exactly
// one segment, the one a registry of reg's shard count routes it to.
func checkOwnersOnly(t *testing.T, reg *Registry, dir string, want []string) {
	t.Helper()
	at := journalPlacement(t, dir)
	for _, id := range want {
		if got := at[id]; len(got) != 1 || got[0] != reg.shardIndex(id) {
			t.Errorf("session %s sits in segments %v, want only its owner %d", id, got, reg.shardIndex(id))
		}
	}
	if len(at) != len(want) {
		t.Errorf("segments hold %d sessions, want %d", len(at), len(want))
	}
}

// TestRingJournalRecovery boots the journal the ring-routed release
// wrote, at its own 4 shards and at 1, 2 and 8. Most sessions now route
// to another shard than the one whose segment holds them; every
// session, log, snapshot and the k-medoids state must recover, each
// session's first matrix request must be a prepared-cache hit equal to
// that release's matrix, the k-medoids append_mine must run warm from
// the journaled start, and after the boot each session's records must
// sit in its new owner's segment alone.
func TestRingJournalRecovery(t *testing.T) {
	exp := readRingExpected(t)
	placed := journalPlacement(t, copySegments(t, ringJournalDir))
	ctx := context.Background()
	for _, shards := range []int{4, 1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := copySegments(t, ringJournalDir)
			reg, err := OpenRegistry(persistentConfig(t, dir, shards))
			if err != nil {
				t.Fatal(err)
			}
			defer reg.Close()
			if rec := reg.Recovery(); rec != ringRecovery {
				t.Errorf("recovery %+v, want %+v", rec, ringRecovery)
			}
			var ids []string
			moved := 0
			for _, want := range exp.Sessions {
				ids = append(ids, want.ID)
				if held := placed[want.ID]; len(held) != 1 || held[0] != reg.shardIndex(want.ID) {
					moved++
				}
				s, err := reg.Session(want.ID)
				if err != nil {
					t.Fatalf("session %s lost: %v", want.ID, err)
				}
				got, err := s.Matrix(ctx, want.Log)
				if err != nil {
					t.Fatalf("session %s log %s: %v", want.ID, want.Log, err)
				}
				if !reflect.DeepEqual(got, want.Matrix) {
					t.Errorf("session %s serves a matrix unlike the ring release's", want.ID)
				}
				if st := s.Stats(); st.PreparedHits != 1 || st.PreparedMisses != 0 {
					t.Errorf("session %s first matrix: prepared hits/misses %d/%d, want 1/0", want.ID, st.PreparedHits, st.PreparedMisses)
				}
			}
			if shards == exp.Shards && moved == 0 {
				t.Fatal("no fixture session changes shard at its own count, so nothing re-homes")
			}
			km := exp.KMedoids
			s, err := reg.Session(km.Session)
			if err != nil {
				t.Fatal(err)
			}
			_, _, _, res, err := s.AppendMine(ctx, km.Log, clusteredLog()[10:12], ringKMedoidsSpec)
			if err != nil {
				t.Fatal(err)
			}
			if inc := res.Incremental; !inc.Warm || inc.ColdFallback {
				t.Errorf("append_mine over the journaled warm start: %+v, want warm with no fallback", inc)
			}
			if !reflect.DeepEqual(res.Clusters.Medoids, km.Medoids) || !reflect.DeepEqual(res.Clusters.Assign, km.Assign) {
				t.Errorf("k-medoids medoids %v assign %v, the ring release's %v %v",
					res.Clusters.Medoids, res.Clusters.Assign, km.Medoids, km.Assign)
			}
			reg.Close()
			checkOwnersOnly(t, reg, dir, ids)
		})
	}
}

// compactCrashStore wraps a store and fails every Compact after the
// first k across all of its journals. A failed Compact leaves its
// journal as it was, so the data directory then holds what a crash
// after k startup compactions leaves. It also counts the journals left
// open.
type compactCrashStore struct {
	store.Store
	mu   sync.Mutex
	left int // compactions still allowed
	open int
}

func (c *compactCrashStore) Open(shard int) (store.Log, error) {
	lg, err := c.Store.Open(shard)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.open++
	c.mu.Unlock()
	return &compactCrashLog{Log: lg, st: c}, nil
}

type compactCrashLog struct {
	store.Log
	st *compactCrashStore
}

func (l *compactCrashLog) Close() error {
	l.st.mu.Lock()
	l.st.open--
	l.st.mu.Unlock()
	return l.Log.Close()
}

func (l *compactCrashLog) Compact(recs []store.Record) error {
	l.st.mu.Lock()
	crashed := l.st.left == 0
	if !crashed {
		l.st.left--
	}
	l.st.mu.Unlock()
	if crashed {
		return errors.New("crashed before this compaction")
	}
	return l.Log.Compact(recs)
}

// crashTenants is what a crash test's journal holds: every session id,
// and the combined log of each k-medoids session, whose warm start is
// journaled.
type crashTenants struct {
	ids      []string
	logs     map[string][]string // session id → log ids
	kmedoids map[string]string   // session id → combined log id
}

// crashConfig is persistentConfig with a cache large enough that no
// artifact of a crash test's journal is ever evicted.
func crashConfig(t *testing.T, dir string, shards int) Config {
	t.Helper()
	cfg := persistentConfig(t, dir, shards)
	cfg.CacheEntries = 1024
	return cfg
}

// writeCrashJournal journals n token sessions under the given shard
// count: each uploads one log and asks for its matrix, and every fifth
// instead uploads clusteredLog()[:8] and runs a k-medoids append_mine
// of two more queries.
func writeCrashJournal(t *testing.T, dir string, shards, n int) (crashTenants, RecoveryStats) {
	t.Helper()
	ctx := context.Background()
	reg := NewRegistry(crashConfig(t, dir, shards))
	defer reg.Close()
	token := dpe.MeasureToken
	tn := crashTenants{logs: map[string][]string{}, kmedoids: map[string]string{}}
	var want RecoveryStats
	for i := 0; i < n; i++ {
		s, err := reg.CreateSession(&CreateSessionRequest{Measure: &token})
		if err != nil {
			t.Fatal(err)
		}
		tn.ids = append(tn.ids, s.ID())
		want.Sessions++
		if i%5 == 0 {
			log := clusteredLog()
			baseID, err := s.AddLog(log[:8])
			if err != nil {
				t.Fatal(err)
			}
			combinedID, _, _, _, err := s.AppendMine(ctx, baseID, log[8:10], ringKMedoidsSpec)
			if err != nil {
				t.Fatal(err)
			}
			tn.logs[s.ID()] = []string{baseID, combinedID}
			tn.kmedoids[s.ID()] = combinedID
			want.Logs += 2
			want.Snapshots += 2
			want.MineStates++
			continue
		}
		logID, err := s.AddLog([]string{fmt.Sprintf("SELECT a FROM t WHERE id = %d", i), "SELECT b FROM t"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Matrix(ctx, logID); err != nil {
			t.Fatal(err)
		}
		tn.logs[s.ID()] = []string{logID}
		want.Logs++
		want.Snapshots++
	}
	return tn, want
}

// checkCrashRecovery fails unless reg holds every tenant's session,
// logs and k-medoids state.
func checkCrashRecovery(t *testing.T, reg *Registry, tn crashTenants) {
	t.Helper()
	for _, id := range tn.ids {
		s, err := reg.Session(id)
		if err != nil {
			t.Errorf("session %s lost", id)
			continue
		}
		for _, logID := range tn.logs[id] {
			if _, err := s.log(logID); err != nil {
				t.Errorf("session %s lost log %s", id, logID)
			}
		}
		if logID, ok := tn.kmedoids[id]; ok {
			if _, ok := reg.shardFor(id).cache.peek(cacheKey{session: s.id, kind: artMining, spec: ringKMedoidsSpec, log: logID}); !ok {
				t.Errorf("session %s lost its k-medoids state", id)
			}
		}
	}
}

// TestRehomeCrashAfterEveryCompaction changes the shard count under a
// journal and crashes the first boot after each of its startup
// compactions: k = 0 to 2×shards, plus one per orphan journal the boot
// empties. The boot must fail until every one of them has run, since an
// orphan left behind could resurrect a session deleted later.
// Re-homing writes a session into its new owner's journal before any
// rewrite drops the old copy, so a healthy reopen after any crash
// recovers every session, log and k-medoids state, counts each exactly
// once, and leaves each session in its owner's journal alone.
func TestRehomeCrashAfterEveryCompaction(t *testing.T) {
	cases := []struct {
		name     string
		from, to int
	}{
		{"grow 2 to 3", 2, 3},
		{"grow 4 to 8", 4, 8},
		{"shrink 8 to 4", 8, 4},
		{"ring journal at 4", 0, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pristine := ringJournalDir
			var tn crashTenants
			want := ringRecovery
			if tc.from == 0 {
				exp := readRingExpected(t)
				tn = crashTenants{logs: map[string][]string{}, kmedoids: map[string]string{
					exp.KMedoids.Session: exp.KMedoids.Log,
				}}
				for _, s := range exp.Sessions {
					tn.ids = append(tn.ids, s.ID)
					tn.logs[s.ID] = []string{s.Log}
				}
			} else {
				pristine = t.TempDir()
				tn, want = writeCrashJournal(t, pristine, tc.from, 40)
			}
			// A boot takes two passes of tc.to compactions, then empties
			// each orphan journal.
			compactions := 2*tc.to + max(tc.from-tc.to, 0)
			for k := 0; k <= compactions; k++ {
				dir := copySegments(t, pristine)
				base, err := store.OpenDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				crash := &compactCrashStore{Store: base, left: k}
				crashing, err := OpenRegistry(Config{Shards: tc.to, Store: crash, JanitorInterval: -1, CacheEntries: 1024})
				if (err != nil) != (k < compactions) {
					t.Fatalf("k=%d: boot error %v, want one exactly when fewer than %d compactions complete", k, err, compactions)
				}
				if err == nil {
					crashing.Close()
				}
				if crash.open != 0 {
					t.Errorf("k=%d: %d journals left open", k, crash.open)
				}
				reg, err := OpenRegistry(crashConfig(t, dir, tc.to))
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				if rec := reg.Recovery(); rec != want {
					t.Errorf("k=%d: recovery %+v, want %+v", k, rec, want)
				}
				checkCrashRecovery(t, reg, tn)
				reg.Close()
				checkOwnersOnly(t, reg, dir, tn.ids)
			}
		})
	}
}

// TestDuplicateArtifactRecordCountsOnce replays a hand-written journal
// that holds one snapshot and one k-medoids state twice each, as a
// journal does after an evicted state is rebuilt: the cache holds one
// entry per key and the recovery report counts each once. Importing a
// bundle of the same records counts each once too, and skips none.
func TestDuplicateArtifactRecordCountsOnce(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := "s-bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"
	token := dpe.MeasureToken
	reqData, err := json.Marshal(&CreateSessionRequest{Measure: &token})
	if err != nil {
		t.Fatal(err)
	}
	queries := clusteredLog()[:8]
	logID := LogID(queries)
	local, err := dpe.NewProvider(token)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := local.Prepare(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := local.MarshalPreparedLog(pl)
	if err != nil {
		t.Fatal(err)
	}
	_, state, err := local.MineIncremental(ctx, pl, nil, ringKMedoidsSpec)
	if err != nil {
		t.Fatal(err)
	}
	mine, err := dpe.MarshalMineState(state)
	if err != nil {
		t.Fatal(err)
	}
	snapRec := journal.Artifact{Kind: store.KindSnapshot, SessionID: id, LogID: logID, Blob: snap}
	mineRec := journal.Artifact{Kind: store.KindMining, SessionID: id, LogID: logID, Blob: mine}
	recs := []journal.Record{
		journal.Session{ID: id, Created: time.Now(), Request: reqData},
		journal.Log{SessionID: id, LogID: logID, Queries: queries},
		snapRec, mineRec, snapRec, mineRec,
	}
	lg, err := st.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	jl := journal.New(lg)
	var bundle bytes.Buffer
	bw, err := journal.NewBundleWriter(&bundle)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := jl.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := bw.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	reg, err := OpenRegistry(persistentConfig(t, dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if want := (RecoveryStats{Sessions: 1, Logs: 1, Snapshots: 1, MineStates: 1}); reg.Recovery() != want {
		t.Errorf("recovery %+v, want %+v", reg.Recovery(), want)
	}
	if n := reg.Stats().PreparedCache.Entries; n != 2 {
		t.Errorf("cache holds %d entries, want one snapshot and one mining state", n)
	}
	reg.Close()
	kinds := journalKinds(t, dir)
	if kinds[store.KindSnapshot] != 1 || kinds[store.KindMining] != 1 {
		t.Errorf("compacted journal holds %v, want one snapshot and one mining state", kinds)
	}

	imp := NewRegistry(Config{Shards: 1, JanitorInterval: -1})
	defer imp.Close()
	res, err := imp.ImportSession(&bundle)
	if err != nil {
		t.Fatal(err)
	}
	if want := (ImportResult{Session: id, Logs: 1, Snapshots: 1, MineStates: 1}); *res != want {
		t.Errorf("import %+v, want %+v", *res, want)
	}
}
