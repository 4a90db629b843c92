package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// fakeLog is an in-memory store.Log for exercising the Journal wrapper
// without a backend.
type fakeLog struct {
	recs   []store.Record
	closed bool
}

func (f *fakeLog) Append(rec store.Record) error {
	if f.closed {
		return errors.New("fake: closed")
	}
	f.recs = append(f.recs, rec)
	return nil
}

func (f *fakeLog) Replay(fn func(store.Record) error) error {
	for _, r := range f.recs {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

func (f *fakeLog) Compact(recs []store.Record) error {
	f.recs = append([]store.Record(nil), recs...)
	return nil
}

func (f *fakeLog) Close() error {
	f.closed = true
	return nil
}

// outcomeHandler answers every record with a fixed outcome and remembers
// what it saw.
type outcomeHandler struct {
	out  Outcome
	seen []Record
}

func (h *outcomeHandler) Session(s Session) Outcome   { h.seen = append(h.seen, s); return h.out }
func (h *outcomeHandler) Delete(d Delete) Outcome     { h.seen = append(h.seen, d); return h.out }
func (h *outcomeHandler) Log(l Log) Outcome           { h.seen = append(h.seen, l); return h.out }
func (h *outcomeHandler) Artifact(a Artifact) Outcome { h.seen = append(h.seen, a); return h.out }

// allRecords is one typed record per kind.
func allRecords(t testing.TB) []Record {
	t.Helper()
	created := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	return []Record{
		Session{ID: "s-1", Created: created, Request: json.RawMessage(`{"measure":"token"}`)},
		Delete{ID: "s-2"},
		Log{SessionID: "s-1", LogID: "l-1", Queries: []string{"SELECT a FROM t", "SELECT b FROM t"}},
		Artifact{Kind: store.KindSnapshot, SessionID: "s-1", LogID: "l-1", Blob: []byte{1, 2, 3}},
		Artifact{Kind: store.KindMining, SessionID: "s-1", LogID: "l-1\x00mine:abc", Blob: []byte{6}},
	}
}

// TestCodecRoundTrips encodes every kind and decodes it back unchanged.
func TestCodecRoundTrips(t *testing.T) {
	for _, rec := range allRecords(t) {
		raw, err := rec.encode()
		if err != nil {
			t.Fatalf("encode %T: %v", rec, err)
		}
		got, err := Decode(raw)
		if err != nil {
			t.Fatalf("Decode %T: %v", rec, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Errorf("round trip %T: got %+v, want %+v", rec, got, rec)
		}
	}
}

// TestCodecWireStability pins the version-1 payload bytes to the exact
// pre-journal-package formats: a session record is
// {"created":...,"req":...} with no "v" field, and a log record is the
// bare queries array — journals written before this package existed
// replay unchanged, and journals written now replay on those releases.
func TestCodecWireStability(t *testing.T) {
	created := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	raw, err := Session{ID: "s-1", Created: created, Request: json.RawMessage(`{"measure":"token"}`)}.encode()
	if err != nil {
		t.Fatal(err)
	}
	wantSession := `{"created":"2026-08-01T12:00:00Z","req":{"measure":"token"}}`
	if string(raw.Data) != wantSession {
		t.Errorf("session payload = %s, want %s", raw.Data, wantSession)
	}
	if raw.Kind != store.KindSession || raw.Session != "s-1" {
		t.Errorf("session envelope = %+v", raw)
	}

	raw, err = Log{SessionID: "s-1", LogID: "l-1", Queries: []string{"a", "b"}}.encode()
	if err != nil {
		t.Fatal(err)
	}
	if want := `["a","b"]`; string(raw.Data) != want {
		t.Errorf("log payload = %s, want the bare array %s", raw.Data, want)
	}

	// The v2+ envelope form decodes too (forward path for a future bump).
	got, err := Decode(store.Record{Kind: store.KindLog, Session: "s-1", Log: "l-1", Data: []byte(`{"v":1,"q":["a"]}`)})
	if err != nil {
		t.Fatalf("enveloped log payload: %v", err)
	}
	if lg := got.(Log); len(lg.Queries) != 1 || lg.Queries[0] != "a" {
		t.Errorf("enveloped log decoded to %+v", lg)
	}

	// The blob-carrying kinds put the routing keys in "s" and "l" and the
	// codec output, base64-encoded, in "b"; they carry no "d" payload.
	for _, tc := range []struct {
		rec  Record
		want string
	}{
		{Artifact{Kind: store.KindSnapshot, SessionID: "s-1", LogID: "l-1", Blob: []byte{1, 2, 3}},
			`{"k":"snapshot","s":"s-1","l":"l-1","b":"AQID"}`},
		{Artifact{Kind: store.KindMining, SessionID: "s-1", LogID: "l-1", Blob: []byte{6}},
			`{"k":"mining","s":"s-1","l":"l-1","b":"Bg=="}`},
	} {
		raw, err := tc.rec.encode()
		if err != nil {
			t.Fatal(err)
		}
		frame, err := store.AppendFrame(nil, raw)
		if err != nil {
			t.Fatal(err)
		}
		want := binary.LittleEndian.AppendUint32(nil, uint32(len(tc.want)))
		want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE([]byte(tc.want)))
		if want = append(want, tc.want...); !bytes.Equal(frame, want) {
			t.Errorf("%+v framed as %q, want %q", tc.rec, frame, want)
		}
	}

	// Older binaries journaled MinHash/LSH indexes in the same envelope
	// under kind "approx". That kind is retired: its records decode as
	// an unknown kind (replay and import count them skipped), and
	// nothing encodes one any more.
	var old store.Record
	if err := json.Unmarshal([]byte(`{"k":"approx","s":"s-1","l":"l-1","b":"BAU="}`), &old); err != nil {
		t.Fatal(err)
	}
	if old.Kind != store.KindApprox || old.Session != "s-1" || old.Log != "l-1" || !bytes.Equal(old.Blob, []byte{4, 5}) {
		t.Fatalf("approx envelope read as %+v", old)
	}
	if got, err := Decode(old); err == nil || !strings.Contains(err.Error(), `unknown record kind "approx"`) {
		t.Errorf("Decode(approx record) = %+v, %v; want an unknown-kind error", got, err)
	}
	var st Stats
	h := &outcomeHandler{out: Applied}
	dispatch(old, h, &st)
	if (st != Stats{Skipped: 1}) || len(h.seen) != 0 {
		t.Errorf("approx record: stats %+v, handler saw %d; want one skip", st, len(h.seen))
	}
	if _, err := (Artifact{Kind: store.KindApprox, SessionID: "s-1", LogID: "l-1", Blob: []byte{4, 5}}).encode(); err == nil {
		t.Error("an approx artifact encoded")
	}
}

// TestDecodeRejectsNewerVersions: payloads stamped by a future release
// must decode to an error (replay counts them skipped, import surfaces
// them) rather than misread.
func TestDecodeRejectsNewerVersions(t *testing.T) {
	cases := []store.Record{
		{Kind: store.KindSession, Session: "s-1", Data: []byte(`{"v":99,"created":"2026-08-01T12:00:00Z","req":{"measure":"token"}}`)},
		{Kind: store.KindLog, Session: "s-1", Log: "l-1", Data: []byte(`{"v":99,"q":["a"]}`)},
	}
	for _, rec := range cases {
		if _, err := Decode(rec); err == nil {
			t.Errorf("Decode(%s v99) succeeded, want a version error", rec.Kind)
		}
	}
}

// TestDecodeRejectsDamage covers the malformed-record surface.
func TestDecodeRejectsDamage(t *testing.T) {
	cases := []store.Record{
		{Kind: "no-such-kind", Session: "s-1"},
		{Kind: store.KindSession, Session: "", Data: []byte(`{"req":{}}`)},
		{Kind: store.KindSession, Session: "s-1", Data: []byte(`not json`)},
		{Kind: store.KindSession, Session: "s-1", Data: []byte(`{"created":"2026-08-01T12:00:00Z","req":null}`)},
		{Kind: store.KindDelete, Session: ""},
		{Kind: store.KindLog, Session: "s-1", Log: "l-1", Data: []byte(`[]`)},
		{Kind: store.KindLog, Session: "s-1", Log: "", Data: []byte(`["a"]`)},
		{Kind: store.KindSnapshot, Session: "s-1", Log: "l-1"},
		{Kind: store.KindMining, Session: "s-1", Log: "", Blob: []byte{1}},
	}
	for _, rec := range cases {
		if _, err := Decode(rec); err == nil {
			t.Errorf("Decode(%+v) succeeded, want an error", rec)
		}
	}
}

// TestEncodeValidation: incomplete typed records refuse to encode, so a
// service bug cannot journal an unreplayable record.
func TestEncodeValidation(t *testing.T) {
	cases := []Record{
		Session{ID: "", Request: json.RawMessage(`{}`)},
		Session{ID: "s-1"},
		Delete{},
		Log{SessionID: "s-1", LogID: ""},
		Log{SessionID: "s-1", LogID: "l-1"},
		Artifact{Kind: store.KindSnapshot, SessionID: "s-1", LogID: "l-1"},
		Artifact{Kind: store.KindSnapshot, SessionID: "", LogID: "l-1", Blob: []byte{1}},
		Artifact{Kind: store.KindMining, SessionID: "s-1", LogID: "", Blob: []byte{1}},
		Artifact{Kind: store.KindLog, SessionID: "s-1", LogID: "l-1", Blob: []byte{1}},
	}
	for _, rec := range cases {
		if _, err := rec.encode(); err == nil {
			t.Errorf("encode(%+v) succeeded, want an error", rec)
		}
	}
}

// TestDispatchCounting pins the tri-state outcome accounting: Applied
// counts under the record's kind, Skipped under Skipped, and Ignored
// (idempotent duplicates) nowhere — the exact counting the recovery
// report had before the refactor.
func TestDispatchCounting(t *testing.T) {
	raws := make([]store.Record, 0, 5)
	for _, rec := range allRecords(t) {
		raw, err := rec.encode()
		if err != nil {
			t.Fatal(err)
		}
		raws = append(raws, raw)
	}

	var st Stats
	for _, raw := range raws {
		dispatch(raw, &outcomeHandler{out: Applied}, &st)
	}
	want := Stats{Sessions: 1, Deletes: 1, Logs: 1, Snapshots: 1, Mining: 1}
	if st != want {
		t.Errorf("all-applied stats = %+v, want %+v", st, want)
	}
	if st.Total() != 5 {
		t.Errorf("Total() = %d, want 5", st.Total())
	}

	st = Stats{}
	for _, raw := range raws {
		dispatch(raw, &outcomeHandler{out: Skipped}, &st)
	}
	if (st != Stats{Skipped: 5}) {
		t.Errorf("all-skipped stats = %+v, want only Skipped=5", st)
	}

	st = Stats{}
	for _, raw := range raws {
		dispatch(raw, &outcomeHandler{out: Ignored}, &st)
	}
	if (st != Stats{}) {
		t.Errorf("all-ignored stats = %+v, want zero", st)
	}

	// An undecodable raw record skips without reaching the handler.
	st = Stats{}
	h := &outcomeHandler{out: Applied}
	dispatch(store.Record{Kind: "bogus"}, h, &st)
	if (st != Stats{Skipped: 1}) || len(h.seen) != 0 {
		t.Errorf("undecodable record: stats %+v, handler saw %d", st, len(h.seen))
	}

	var sum Stats
	sum.Add(want)
	sum.Add(Stats{Skipped: 2})
	if sum.Total() != 7 {
		t.Errorf("Add/Total = %d, want 7", sum.Total())
	}
}

// TestJournalAppendReplayCompact drives the Journal wrapper over an
// in-memory log: typed appends frame through the codecs, replay hands
// the handler equal typed values, and compaction rewrites to exactly
// what collect returns — dropping records that fail to encode rather
// than failing the rewrite.
func TestJournalAppendReplayCompact(t *testing.T) {
	fl := &fakeLog{}
	j := New(fl)
	recs := allRecords(t)
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatalf("Append(%T): %v", rec, err)
		}
	}
	if err := j.Append(Session{}); err == nil {
		t.Error("Append of an invalid record succeeded")
	}

	h := &outcomeHandler{out: Applied}
	st, err := j.Replay(h)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total() != len(recs) || st.Skipped != 0 {
		t.Errorf("replay stats = %+v", st)
	}
	if !reflect.DeepEqual(h.seen, recs) {
		t.Errorf("replay saw %+v, want %+v", h.seen, recs)
	}

	// Compact down to one live session; the unencodable record drops.
	if err := j.Compact(func() []Record {
		return []Record{recs[0], Session{}}
	}); err != nil {
		t.Fatal(err)
	}
	h2 := &outcomeHandler{out: Applied}
	st, err = j.Replay(h2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 1 || st.Total() != 1 {
		t.Errorf("post-compaction stats = %+v, want one session", st)
	}

	// A nil collect empties the journal (orphan retirement).
	if err := j.Compact(nil); err != nil {
		t.Fatal(err)
	}
	if len(fl.recs) != 0 {
		t.Errorf("Compact(nil) left %d records", len(fl.recs))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if !fl.closed {
		t.Error("Close did not close the underlying log")
	}
}

// TestJournalSkipsDamagedRecordsDuringReplay: a corrupt raw record in
// the middle of the journal is counted skipped, not fatal, and the
// records around it still apply.
func TestJournalSkipsDamagedRecordsDuringReplay(t *testing.T) {
	fl := &fakeLog{}
	j := New(fl)
	if err := j.Append(Delete{ID: "s-1"}); err != nil {
		t.Fatal(err)
	}
	fl.recs = append(fl.recs, store.Record{Kind: store.KindSession, Session: "s-2", Data: []byte("{torn")})
	if err := j.Append(Delete{ID: "s-3"}); err != nil {
		t.Fatal(err)
	}
	st, err := j.Replay(&outcomeHandler{out: Applied})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deletes != 2 || st.Skipped != 1 {
		t.Errorf("stats = %+v, want 2 deletes and 1 skipped", st)
	}
}

// Total is the number of applied-or-seen records.
func (s Stats) Total() int {
	return s.Sessions + s.Deletes + s.Logs + s.Snapshots + s.Mining + s.Skipped
}

// Add accumulates another replay's counts.
func (s *Stats) Add(o Stats) {
	s.Sessions += o.Sessions
	s.Deletes += o.Deletes
	s.Logs += o.Logs
	s.Snapshots += o.Snapshots
	s.Mining += o.Mining
	s.Skipped += o.Skipped
}
