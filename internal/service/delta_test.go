package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	dpe "repro"
	"repro/internal/store"
	"repro/internal/store/journal"
)

// logCharge reads a session's byte-budget charge.
func logCharge(s *session) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logBytes
}

// journaledLogs decodes the log records of a data directory's segments
// in file order.
func journaledLogs(t *testing.T, dir string) []journal.Log {
	t.Helper()
	var logs []journal.Log
	eachRecord(t, dir, func(_ int, rec store.Record) {
		if rec.Kind != store.KindLog {
			return
		}
		typed, err := journal.Decode(rec)
		if err != nil {
			t.Fatalf("log record %s does not decode: %v", rec.Log, err)
		}
		logs = append(logs, typed.(journal.Log))
	})
	return logs
}

// appendChain creates a token session on reg, uploads log[:first] and
// appends the rest of log step queries at a time. It returns the
// session and the id of each log of the chain, root first.
func appendChain(t *testing.T, reg *Registry, log []string, first, step int) (*session, []string) {
	t.Helper()
	req, err := BuildCreateSessionRequest(dpe.MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	s, err := reg.CreateSession(req)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.AddLog(log[:first])
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{id}
	for n := first; n < len(log); n += step {
		if id, _, _, err = s.Append(context.Background(), id, log[n:n+step]); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return s, ids
}

// TestAppendChainChargeSurvivesRestart: an append chain is charged for
// its root and its tails alone, live, after a restart and after an
// import of the session's bundle. The budget is set to the chain's
// charge plus one more upload, so the upload that fits before the
// restart must still fit after it, and the bundle must import under
// the same budget.
func TestAppendChainChargeSurvivesRestart(t *testing.T) {
	// A 10-query root and 6 one-query appends.
	var log []string
	for i := 0; i < 10; i++ {
		log = append(log, fmt.Sprintf("SELECT name, age, city FROM users WHERE age > %d ORDER BY name LIMIT %d", 20+i, 10+i))
	}
	for i := 0; i < 6; i++ {
		log = append(log, fmt.Sprintf("SELECT product, price FROM items WHERE price < %d ORDER BY price LIMIT %d", 10*(i+1), 5+i))
	}
	want := queryBytes(log)
	upload := []string{"SELECT count(id) FROM orders WHERE region = 'north' GROUP BY status ORDER BY status LIMIT 25"}
	budget := want + queryBytes(upload)
	dir := t.TempDir()
	cfg := func() Config {
		c := persistentConfig(t, dir, 1)
		c.MaxLogBytesPerSession = budget
		return c
	}

	reg := NewRegistry(cfg())
	s, ids := appendChain(t, reg, log, 10, 1)
	if got := logCharge(s); got != want {
		t.Fatalf("live chain charged %d bytes, want %d", got, want)
	}
	reg.Close()

	reg2, err := OpenRegistry(cfg())
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	if rec := reg2.Recovery(); rec.Logs != len(ids) || rec.Skipped != 0 {
		t.Errorf("recovery = %+v, want %d logs and no skips", rec, len(ids))
	}
	s2, err := reg2.Session(s.ID())
	if err != nil {
		t.Fatal(err)
	}
	if got := logCharge(s2); got != want {
		t.Errorf("restarted chain charged %d bytes, want %d", got, want)
	}
	var bundle bytes.Buffer
	if err := reg2.ExportSession(s.ID(), &bundle); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.AddLog(upload); err != nil {
		t.Errorf("an upload that fit before the restart is refused after it: %v", err)
	}

	imp := NewRegistry(Config{Shards: 1, JanitorInterval: -1, MaxLogBytesPerSession: budget})
	defer imp.Close()
	res, err := imp.ImportSession(&bundle)
	if err != nil {
		t.Fatalf("importing the session's own bundle: %v", err)
	}
	if res.Logs != len(ids) || res.Skipped != 0 {
		t.Errorf("import = %+v, want %d logs and no skips", res, len(ids))
	}
	s3, err := imp.Session(s.ID())
	if err != nil {
		t.Fatal(err)
	}
	if got := logCharge(s3); got != want {
		t.Errorf("imported chain charged %d bytes, want %d", got, want)
	}
}

// holdStore wraps a store and holds the append of the log record with
// id hold: it signals held when the append arrives, waits for release,
// and then fails the append with fail, or writes it when fail is nil.
type holdStore struct {
	store.Store
	hold    string
	fail    error
	held    chan struct{}
	release chan struct{}
}

func (h *holdStore) Open(shard int) (store.Log, error) {
	lg, err := h.Store.Open(shard)
	return &holdLog{Log: lg, st: h}, err
}

type holdLog struct {
	store.Log
	st *holdStore
}

func (l *holdLog) Append(rec store.Record) error {
	if rec.Kind == store.KindLog && rec.Log == l.st.hold {
		close(l.st.held)
		<-l.st.release
		if l.st.fail != nil {
			return l.st.fail
		}
	}
	return l.Log.Append(rec)
}

// TestAppendOntoUnjournaledBase holds a base log's journal append while
// a second request appends onto the base, which is already live. That
// append's record must hold its whole log: a delta could reach the
// journal ahead of a base that is written later or never, and replay
// would drop an acknowledged log. When the held append is written, both
// logs survive a restart; when it fails, the base's upload is rolled
// back and the combined log survives a compaction and a restart alone.
// Either way the append itself succeeds with the rows a fresh provider
// computes, so everything its answer names exists durably, and every
// surviving log serves the matrix a fresh provider computes.
func TestAppendOntoUnjournaledBase(t *testing.T) {
	ctx := context.Background()
	log := clusteredLog()
	base, tail := log[:8], log[8:10]
	baseID, combinedID := LogID(base), LogID(log[:10])
	local, err := dpe.NewProvider(dpe.MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	wantCombined, err := local.DistanceMatrix(ctx, log[:10])
	if err != nil {
		t.Fatal(err)
	}
	for _, fail := range []error{nil, errors.New("disk full")} {
		t.Run(fmt.Sprintf("base append fails=%v", fail != nil), func(t *testing.T) {
			dir := t.TempDir()
			st, err := store.OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			hs := &holdStore{Store: st, hold: baseID, fail: fail, held: make(chan struct{}), release: make(chan struct{})}
			reg, err := OpenRegistry(Config{Shards: 1, Store: hs, JanitorInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer reg.Close()
			req, err := BuildCreateSessionRequest(dpe.MeasureToken)
			if err != nil {
				t.Fatal(err)
			}
			s, err := reg.CreateSession(req)
			if err != nil {
				t.Fatal(err)
			}
			uploaded := make(chan error, 1)
			go func() {
				_, err := s.AddLog(base)
				uploaded <- err
			}()
			<-hs.held
			var (
				gotID  string
				offset int
				rows   [][]float64
			)
			appended := make(chan error, 1)
			go func() {
				var err error
				gotID, offset, rows, err = s.Append(ctx, baseID, tail)
				appended <- err
			}()
			// Release the base's append once the combined log is
			// registered, that is, once its record has been chosen.
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				s.mu.Lock()
				_, ok := s.logs[combinedID]
				s.mu.Unlock()
				if ok {
					break
				}
				if time.Now().After(deadline) {
					close(hs.release)
					t.Fatal("the append onto the held base never registered its log")
				}
			}
			close(hs.release)
			upErr, appErr := <-uploaded, <-appended
			if appErr != nil {
				t.Fatalf("the append onto the held base failed: %v", appErr)
			}
			if gotID != combinedID || offset != len(base) || !sameBits(rows, wantCombined[len(base):]) {
				t.Errorf("the append answered log %s, offset %d, rows %v; want %s, %d and a fresh provider's rows %v",
					gotID, offset, rows, combinedID, len(base), wantCombined[len(base):])
			}
			live := []string{baseID, combinedID}
			if fail != nil {
				if upErr == nil {
					t.Fatal("the base upload succeeded through a failing append")
				}
				live = live[1:]
				if err := reg.CompactAll(); err != nil {
					t.Fatal(err)
				}
			} else if upErr != nil {
				t.Fatalf("upload: %v", upErr)
			}
			reg.Close()

			for _, l := range journaledLogs(t, dir) {
				if l.LogID == combinedID && l.Base != "" {
					t.Errorf("the append onto the unjournaled base was journaled as a delta against %s", l.Base)
				}
			}
			reg2, err := OpenRegistry(persistentConfig(t, dir, 1))
			if err != nil {
				t.Fatal(err)
			}
			defer reg2.Close()
			if rec := reg2.Recovery(); rec.Logs != len(live) || rec.Skipped != 0 {
				t.Errorf("recovery = %+v, want %d logs and no skips", rec, len(live))
			}
			s2, err := reg2.Session(s.ID())
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range live {
				got, err := s2.Matrix(ctx, id)
				if err != nil {
					t.Fatalf("log %s after the restart: %v", id, err)
				}
				queries := log[:8]
				if id == combinedID {
					queries = log[:10]
				}
				want, err := local.DistanceMatrix(ctx, queries)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("log %s serves another matrix than a fresh provider's", id)
				}
			}
			if fail != nil {
				if _, err := s2.log(baseID); err == nil {
					t.Error("the base whose upload failed came back after the restart")
				}
			}
		})
	}
}

// TestWholeLogJournalReplays replays a journal whose append chain is
// written as whole logs, as releases before delta records wrote it.
// It must recover the same logs, under the same ids and with the same
// recovery counts, as the deltas this release journals for the same
// chain. Those records name no base, so each log keeps its whole
// charge. A chain continued on the replayed logs journals deltas.
func TestWholeLogJournalReplays(t *testing.T) {
	ctx := context.Background()
	log := clusteredLog()
	deltaDir, wholeDir := t.TempDir(), t.TempDir()

	reg := NewRegistry(persistentConfig(t, deltaDir, 1))
	s, ids := appendChain(t, reg, log[:10], 4, 2)
	reg.Close()

	// The same journal as earlier releases wrote it: each delta becomes
	// a record of its whole log.
	whole := map[string][]string{}
	var wholeCharge int64
	for i, id := range ids {
		whole[id] = log[:4+2*i]
		wholeCharge += queryBytes(whole[id])
	}
	var recs []journal.Record
	deltaCount := 0
	eachRecord(t, deltaDir, func(_ int, raw store.Record) {
		rec, err := journal.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		if l, ok := rec.(journal.Log); ok && l.Base != "" {
			deltaCount++
			rec = journal.Log{SessionID: l.SessionID, LogID: l.LogID, Queries: whole[l.LogID]}
		}
		recs = append(recs, rec)
	})
	if deltaCount != len(ids)-1 {
		t.Errorf("the chain journaled %d deltas, want %d", deltaCount, len(ids)-1)
	}
	st, err := store.OpenDir(wholeDir)
	if err != nil {
		t.Fatal(err)
	}
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

	deltas, err := OpenRegistry(persistentConfig(t, deltaDir, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer deltas.Close()
	wholes, err := OpenRegistry(persistentConfig(t, wholeDir, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer wholes.Close()
	if w, d := wholes.Recovery(), deltas.Recovery(); w != d || w.Sessions != 1 || w.Logs != len(ids) || w.Skipped != 0 {
		t.Errorf("recovery from whole logs %+v, from deltas %+v; want both 1 session and %d logs", w, d, len(ids))
	}
	sd, err := deltas.Session(s.ID())
	if err != nil {
		t.Fatal(err)
	}
	sw, err := wholes.Session(s.ID())
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		want := log[:4+2*i]
		for name, s := range map[string]*session{"whole records": sw, "deltas": sd} {
			if got, err := s.log(id); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("log %d from %s = %v, %v; want its %d queries", i, name, got, err, len(want))
			}
		}
	}
	if got := logCharge(sw); got != wholeCharge {
		t.Errorf("whole records charged %d bytes, want their full %d", got, wholeCharge)
	}
	if got, want := logCharge(sd), queryBytes(log[:10]); got != want {
		t.Errorf("deltas charged %d bytes, want the chain's %d", got, want)
	}
	deltas.Close()

	next, _, _, err := sw.Append(ctx, ids[len(ids)-1], log[10:12])
	if err != nil {
		t.Fatal(err)
	}
	wholes.Close()
	var found bool
	for _, l := range journaledLogs(t, wholeDir) {
		if l.LogID == next {
			found = true
			if l.Base != ids[len(ids)-1] || !reflect.DeepEqual(l.Queries, log[10:12]) {
				t.Errorf("the continued chain journaled %+v, want a delta of 2 queries against %s", l, ids[len(ids)-1])
			}
		}
	}
	if !found {
		t.Error("the continued chain journaled no record of its log")
	}
}

// TestUnappliableDeltasSkipped: a delta whose base is missing, and one
// whose rebuilt log does not hash to its recorded id, each count as one
// skipped record on replay and on import; the root and a sound delta
// against it are restored.
func TestUnappliableDeltasSkipped(t *testing.T) {
	log := clusteredLog()
	id := "s-cccccccccccccccccccccccccccccccc"
	token := dpe.MeasureToken
	reqData, err := json.Marshal(&CreateSessionRequest{Measure: &token})
	if err != nil {
		t.Fatal(err)
	}
	rootID := LogID(log[:4])
	recs := []journal.Record{
		journal.Session{ID: id, Created: time.Now(), Request: reqData},
		journal.Log{SessionID: id, LogID: LogID(log[:6]), Base: LogID(log[:2]), Queries: log[4:6]},
		journal.Log{SessionID: id, LogID: rootID, Queries: log[:4]},
		journal.Log{SessionID: id, LogID: LogID(log[:8]), Base: rootID, Queries: log[4:6]},
		journal.Log{SessionID: id, LogID: LogID(log[:6]), Base: rootID, Queries: log[4:6]},
	}
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
	st.Close()
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}

	reg, err := OpenRegistry(persistentConfig(t, dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if want := (RecoveryStats{Sessions: 1, Logs: 2, Skipped: 2}); reg.Recovery() != want {
		t.Errorf("recovery = %+v, want %+v", reg.Recovery(), want)
	}
	imp := NewRegistry(Config{Shards: 1, JanitorInterval: -1})
	defer imp.Close()
	res, err := imp.ImportSession(&bundle)
	if err != nil {
		t.Fatal(err)
	}
	if want := (ImportResult{Session: id, Logs: 2, Skipped: 2}); *res != want {
		t.Errorf("import = %+v, want %+v", *res, want)
	}
	for name, r := range map[string]*Registry{"replayed": reg, "imported": imp} {
		s, err := r.Session(id)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := s.log(LogID(log[:6])); err != nil || !reflect.DeepEqual(got, log[:6]) {
			t.Errorf("%s delta = %v, %v; want the root and its tail", name, got, err)
		}
		if got, want := logCharge(s), queryBytes(log[:6]); got != want {
			t.Errorf("%s logs charged %d bytes, want %d", name, got, want)
		}
	}
}
