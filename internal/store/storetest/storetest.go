// Package storetest is the conformance suite for store.Store
// implementations: any backend — today the segment files — must pass
// the same contract before the service trusts it with tenant journals. Backend tests hand Run a
// Factory; the suite covers append/replay order, shard isolation,
// replay across a close/reopen (the restart path), compaction
// liveness, List re-homing, and closed-journal errors.
package storetest

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/store"
)

// Factory describes one backend under test.
type Factory struct {
	// Open provisions fresh storage and opens a store over it. The
	// suite calls it once per subtest, so subtests never share state.
	Open func(t *testing.T) store.Store
	// Reopen opens a new store over the storage of the most recent
	// Open call — the restart path. The suite always closes the
	// previous store (and its logs) first, so backends holding
	// exclusive locks reopen cleanly. nil skips restart coverage.
	Reopen func(t *testing.T) store.Store
}

// Run exercises the full conformance contract against f.
func Run(t *testing.T, f Factory) {
	t.Run("AppendReplayOrder", func(t *testing.T) { testAppendReplayOrder(t, f) })
	t.Run("ReopenReplays", func(t *testing.T) { testReopenReplays(t, f) })
	t.Run("CompactionLiveness", func(t *testing.T) { testCompactionLiveness(t, f) })
	t.Run("ListReHoming", func(t *testing.T) { testListReHoming(t, f) })
	t.Run("ClosedJournalErrors", func(t *testing.T) { testClosedJournalErrors(t, f) })
}

// rec builds a distinguishable record.
func rec(i int) store.Record {
	return store.Record{
		Kind:    store.KindLog,
		Session: fmt.Sprintf("s-%02d", i),
		Log:     fmt.Sprintf("l-%02d", i),
		Data:    []byte(fmt.Sprintf(`["q%d"]`, i)),
		Blob:    []byte{byte(i), 0xFF, byte(i >> 4)},
	}
}

// replayAll collects a journal's records.
func replayAll(t *testing.T, l store.Log) []store.Record {
	t.Helper()
	var out []store.Record
	if err := l.Replay(func(r store.Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

// recordsEqual compares records, treating nil and empty byte slices as
// the same (codecs may round-trip one into the other).
func recordsEqual(a, b store.Record) bool {
	return a.Kind == b.Kind && a.Session == b.Session && a.Log == b.Log &&
		bytes.Equal(a.Data, b.Data) && bytes.Equal(a.Blob, b.Blob)
}

func wantRecords(t *testing.T, got, want []store.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !recordsEqual(got[i], want[i]) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func openLog(t *testing.T, st store.Store, shard int) store.Log {
	t.Helper()
	l, err := st.Open(shard)
	if err != nil {
		t.Fatalf("Open(%d): %v", shard, err)
	}
	return l
}

func testAppendReplayOrder(t *testing.T, f Factory) {
	st := f.Open(t)
	defer st.Close()
	l0 := openLog(t, st, 0)
	defer l0.Close()
	l2 := openLog(t, st, 2)
	defer l2.Close()

	var want0, want2 []store.Record
	for i := 0; i < 6; i++ {
		r := rec(i)
		if i%2 == 0 {
			if err := l0.Append(r); err != nil {
				t.Fatalf("Append shard 0: %v", err)
			}
			want0 = append(want0, r)
		} else {
			if err := l2.Append(r); err != nil {
				t.Fatalf("Append shard 2: %v", err)
			}
			want2 = append(want2, r)
		}
	}
	wantRecords(t, replayAll(t, l0), want0)
	wantRecords(t, replayAll(t, l2), want2)
}

func testReopenReplays(t *testing.T, f Factory) {
	if f.Reopen == nil {
		t.Skip("backend has no reopen path")
	}
	st := f.Open(t)
	l := openLog(t, st, 1)
	var want []store.Record
	for i := 0; i < 4; i++ {
		r := rec(i)
		if err := l.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
		want = append(want, r)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close log: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close store: %v", err)
	}

	st2 := f.Reopen(t)
	defer st2.Close()
	l2 := openLog(t, st2, 1)
	defer l2.Close()
	wantRecords(t, replayAll(t, l2), want)
	// The reopened journal must keep appending where the old one
	// stopped, in order.
	extra := rec(9)
	if err := l2.Append(extra); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	want = append(want, extra)
	wantRecords(t, replayAll(t, l2), want)
}

func testCompactionLiveness(t *testing.T, f Factory) {
	st := f.Open(t)
	defer st.Close()
	l := openLog(t, st, 3)
	defer l.Close()
	for i := 0; i < 8; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// Compact down to two live records; everything else must vanish
	// and the survivors must replay in the given order.
	live := []store.Record{rec(1), rec(6)}
	if err := l.Compact(live); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	want := live
	wantRecords(t, replayAll(t, l), want)

	// Appends after a compaction land after the rewritten records.
	post := rec(7)
	if err := l.Append(post); err != nil {
		t.Fatalf("Append after compact: %v", err)
	}
	want = append(want, post)
	wantRecords(t, replayAll(t, l), want)

	if f.Reopen != nil {
		if err := l.Close(); err != nil {
			t.Fatalf("Close log: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("Close store: %v", err)
		}
		st2 := f.Reopen(t)
		defer st2.Close()
		l2 := openLog(t, st2, 3)
		defer l2.Close()
		wantRecords(t, replayAll(t, l2), want)
	}
}

func testListReHoming(t *testing.T, f Factory) {
	st := f.Open(t)
	defer st.Close()
	shards := []int{0, 5, 9}
	for _, idx := range shards {
		l := openLog(t, st, idx)
		if err := l.Append(rec(idx)); err != nil {
			t.Fatalf("Append shard %d: %v", idx, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close shard %d: %v", idx, err)
		}
	}
	got, err := st.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	want := shards
	if len(got) != len(want) {
		t.Fatalf("List = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v, want %v (sorted)", got, want)
		}
	}
	// The orphan-retirement path: a listed shard must be reopenable
	// and emptiable via Compact(nil).
	l := openLog(t, st, 5)
	defer l.Close()
	if err := l.Compact(nil); err != nil {
		t.Fatalf("Compact(nil): %v", err)
	}
	wantRecords(t, replayAll(t, l), nil)
}

func testClosedJournalErrors(t *testing.T, f Factory) {
	st := f.Open(t)
	defer st.Close()
	l := openLog(t, st, 0)
	if err := l.Append(rec(0)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.Append(rec(1)); err == nil {
		t.Fatal("Append after Close succeeded, want error")
	}
	if err := l.Replay(func(store.Record) error { return nil }); err == nil {
		t.Fatal("Replay after Close succeeded, want error")
	}
	if err := l.Compact(nil); err == nil {
		t.Fatal("Compact after Close succeeded, want error")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
