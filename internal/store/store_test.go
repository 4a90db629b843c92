package store

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// collect replays a journal into a slice.
func collect(t *testing.T, l Log) []Record {
	t.Helper()
	var out []Record
	if err := l.Replay(func(rec Record) error {
		out = append(out, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// reopen closes a shard and opens it again — the restart.
func reopen(t *testing.T, d *Dir, l Log, shard int) Log {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	nl, err := d.Open(shard)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// TestSegmentRoundTrip pins the basic contract: appended records come
// back identical, in order, across a close/reopen.
func TestSegmentRoundTrip(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l, err := d.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Kind: KindSession, Session: "s-1", Data: []byte(`{"measure":"token"}`)},
		{Kind: KindLog, Session: "s-1", Log: "l-abc", Data: []byte(`["SELECT a FROM t"]`)},
		{Kind: KindSnapshot, Session: "s-1", Log: "l-abc", Blob: []byte{0, 1, 2, 255}},
		{Kind: KindDelete, Session: "s-1"},
	}
	for _, rec := range recs {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	l = reopen(t, d, l, 0)
	defer l.Close()
	if got := collect(t, l); !reflect.DeepEqual(got, recs) {
		t.Errorf("replay = %+v, want %+v", got, recs)
	}
}

// TestSegmentShardIsolation checks shards journal to distinct files.
func TestSegmentShardIsolation(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := d.Open(0)
	b, _ := d.Open(1)
	defer a.Close()
	defer b.Close()
	if err := a.Append(Record{Kind: KindSession, Session: "s-a"}); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, b); len(got) != 0 {
		t.Errorf("shard 1 sees shard 0's records: %+v", got)
	}
	if got := collect(t, a); len(got) != 1 || got[0].Session != "s-a" {
		t.Errorf("shard 0 replay = %+v, want its own single record", got)
	}
}

// TestSegmentTornTailRecovery is the crash-recovery contract: a journal
// whose tail is cut mid-record (or bit-flipped, or given a corrupt
// length) replays everything up to the damage, allocating only for the
// bytes present, truncates the rest, and keeps accepting appends.
func TestSegmentTornTailRecovery(t *testing.T) {
	for _, name := range []string{"torn-header", "torn-payload", "bit-flip", "huge-length"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			l, err := d.Open(0)
			if err != nil {
				t.Fatal(err)
			}
			good := Record{Kind: KindSession, Session: "s-good"}
			if err := l.Append(good); err != nil {
				t.Fatal(err)
			}
			if err := l.Append(Record{Kind: KindLog, Session: "s-good", Log: "l-doomed"}); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "segment-0000.log")
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			firstLen := frameLen(t, b)
			switch name {
			case "torn-header": // cut into the second record's header
				chopTo(t, path, firstLen+3)
			case "torn-payload": // keep its header, cut its payload
				chopTo(t, path, firstLen+frameHeaderSize+2)
			case "bit-flip": // corrupt the second record's last byte
				b[len(b)-1] ^= 0xff
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
			case "huge-length": // the second record's header claims 1 GiB
				binary.LittleEndian.PutUint32(b[firstLen:], maxRecordSize)
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			l, err = d.Open(0)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got := collect(t, l)
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Errorf("replay after %s allocated %d bytes, want under 1 MiB", name, alloc)
			}
			if len(got) != 1 || !reflect.DeepEqual(got[0], good) {
				t.Fatalf("replay after %s = %+v, want just the intact first record", name, got)
			}
			// The damaged tail was truncated: a fresh append lands on a
			// clean boundary and the journal replays both records.
			next := Record{Kind: KindDelete, Session: "s-good"}
			if err := l.Append(next); err != nil {
				t.Fatal(err)
			}
			l = reopen(t, d, l, 0)
			defer l.Close()
			if got := collect(t, l); len(got) != 2 || !reflect.DeepEqual(got[1], next) {
				t.Errorf("replay after repair+append = %+v, want [good, next]", got)
			}
		})
	}
}

// frameLen reads the first frame's total length from raw journal bytes.
func frameLen(t *testing.T, b []byte) int64 {
	t.Helper()
	if len(b) < frameHeaderSize {
		t.Fatal("journal shorter than one header")
	}
	n := int64(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
	return frameHeaderSize + n
}

func chopTo(t *testing.T, path string, size int64) {
	t.Helper()
	if err := os.Truncate(path, size); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentCompact checks compaction replaces the journal's contents
// atomically and the segment stays usable for appends afterwards.
func TestSegmentCompact(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l, err := d.Open(2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 10; i++ {
		if err := l.Append(Record{Kind: KindLog, Session: "s-x", Log: fmt.Sprintf("l-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	live := []Record{
		{Kind: KindSession, Session: "s-x"},
		{Kind: KindLog, Session: "s-x", Log: "l-9"},
	}
	if err := l.Compact(live); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l); !reflect.DeepEqual(got, live) {
		t.Errorf("replay after compact = %+v, want the live records only", got)
	}
	extra := Record{Kind: KindSnapshot, Session: "s-x", Log: "l-9", Blob: []byte{7}}
	if err := l.Append(extra); err != nil {
		t.Fatal(err)
	}
	l = reopen(t, d, l, 2)
	defer l.Close()
	if got := collect(t, l); len(got) != 3 || !reflect.DeepEqual(got[2], extra) {
		t.Errorf("replay after compact+append+reopen = %+v, want 3 records ending in the new one", got)
	}
}

// TestSegmentClosedErrors pins the closed-journal contract.
func TestSegmentClosedErrors(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l, err := d.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil { // idempotent
		t.Errorf("second Close = %v, want nil", err)
	}
	if err := l.Append(Record{Kind: KindDelete}); err == nil {
		t.Error("Append after Close succeeded")
	}
	if err := l.Replay(func(Record) error { return nil }); err == nil {
		t.Error("Replay after Close succeeded")
	}
	if err := l.Compact(nil); err == nil {
		t.Error("Compact after Close succeeded")
	}
}

// TestSegmentPropertyRoundTrip is the store's property test: random
// record batches — arbitrary kinds, ids, payload sizes including empty
// and binary-heavy blobs — written to a tmpdir segment must replay
// identically after a reopen, and again after a compaction to a random
// live subset. This runs in the -race CI job as the write → reopen →
// identical-state guarantee behind registry recovery.
func TestSegmentPropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	kinds := []Kind{KindSession, KindDelete, KindLog, KindSnapshot}
	for trial := 0; trial < 25; trial++ {
		d, err := OpenDir(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		shard := rng.Intn(8)
		l, err := d.Open(shard)
		if err != nil {
			t.Fatal(err)
		}
		n := rng.Intn(40)
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = Record{
				Kind:    kinds[rng.Intn(len(kinds))],
				Session: fmt.Sprintf("s-%x", rng.Int63()),
			}
			if rng.Intn(2) == 0 {
				recs[i].Log = fmt.Sprintf("l-%x", rng.Int63())
			}
			if rng.Intn(2) == 0 {
				recs[i].Data = []byte(fmt.Sprintf(`{"n":%d}`, rng.Intn(1000)))
			}
			if rng.Intn(3) == 0 {
				blob := make([]byte, rng.Intn(512))
				rng.Read(blob)
				recs[i].Blob = blob
			}
			if err := l.Append(recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		l = reopen(t, d, l, shard)
		got := collect(t, l)
		if len(got) != len(recs) {
			t.Fatalf("trial %d: replayed %d records, wrote %d", trial, len(got), len(recs))
		}
		for i := range recs {
			if !recordsEqual(got[i], recs[i]) {
				t.Fatalf("trial %d: record %d = %+v, want %+v", trial, i, got[i], recs[i])
			}
		}
		// Compact to a random subset and check again.
		var live []Record
		for _, rec := range recs {
			if rng.Intn(2) == 0 {
				live = append(live, rec)
			}
		}
		if err := l.Compact(live); err != nil {
			t.Fatal(err)
		}
		l = reopen(t, d, l, shard)
		got = collect(t, l)
		if len(got) != len(live) {
			t.Fatalf("trial %d: post-compact replayed %d records, want %d", trial, len(got), len(live))
		}
		for i := range live {
			if !recordsEqual(got[i], live[i]) {
				t.Fatalf("trial %d: post-compact record %d = %+v, want %+v", trial, i, got[i], live[i])
			}
		}
		l.Close()
	}
}

// recordsEqual compares records treating nil and empty slices alike
// (JSON round-trips empty byte slices to nil).
func recordsEqual(a, b Record) bool {
	norm := func(r Record) Record {
		if len(r.Data) == 0 {
			r.Data = nil
		}
		if len(r.Blob) == 0 {
			r.Blob = nil
		}
		return r
	}
	return reflect.DeepEqual(norm(a), norm(b))
}
