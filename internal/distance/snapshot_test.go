package distance

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/accessarea"
	"repro/internal/db"
	"repro/internal/value"
)

// snapshotLog is a small log exercising every clause the metrics care
// about: shared and distinct tokens, joins, aggregates, and predicates
// with points, ranges, and disjunctions for the access-area algebra.
var snapshotLog = []string{
	"SELECT a FROM t WHERE x = 1",
	"SELECT a, b FROM t WHERE x > 3 AND y < 10",
	"SELECT COUNT(*) FROM t WHERE x BETWEEN 2 AND 8",
	"SELECT b FROM t WHERE x = 1 OR y >= 7",
	"SELECT a FROM t",
}

func snapshotArtifacts(t testing.TB) Artifacts {
	t.Helper()
	cat := db.NewCatalog()
	table, err := cat.Create("t", []db.Column{
		{Name: "a", Type: db.TypeString},
		{Name: "b", Type: db.TypeInt},
		{Name: "x", Type: db.TypeInt},
		{Name: "y", Type: db.TypeInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := table.Insert(db.Row{
			value.Str([]string{"p", "q", "r"}[i%3]),
			value.Int(int64(i)),
			value.Int(int64(i % 5)),
			value.Int(int64(i % 9)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return Artifacts{
		Catalog: cat,
		Domains: map[string]accessarea.Domain{
			"x": {Min: value.Int(0), Max: value.Int(100)},
			"y": {Min: value.Int(0), Max: value.Int(100)},
		},
	}
}

// TestSnapshotRoundTrip is the codec's exactness contract for all four
// metrics: marshal → unmarshal must produce entry-wise identical
// distances, and marshaling twice must produce identical bytes
// (determinism — the property compaction relies on).
func TestSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	arts := snapshotArtifacts(t)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			metric, err := New(name, arts)
			if err != nil {
				t.Fatal(err)
			}
			snap, ok := metric.(Snapshotter)
			if !ok {
				t.Fatalf("metric %s does not implement Snapshotter", name)
			}
			prep, err := metric.Prepare(ctx, snapshotLog)
			if err != nil {
				t.Fatal(err)
			}
			data, err := snap.MarshalPrepared(prep)
			if err != nil {
				t.Fatal(err)
			}
			again, err := snap.MarshalPrepared(prep)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, again) {
				t.Error("marshaling the same state twice produced different bytes")
			}
			restored, err := snap.UnmarshalPrepared(data)
			if err != nil {
				t.Fatal(err)
			}
			if restored.Len() != prep.Len() {
				t.Fatalf("restored Len() = %d, want %d", restored.Len(), prep.Len())
			}
			for i := 0; i < prep.Len(); i++ {
				for j := i + 1; j < prep.Len(); j++ {
					want, err := prep.Distance(i, j)
					if err != nil {
						t.Fatal(err)
					}
					got, err := restored.Distance(i, j)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("restored distance(%d,%d) = %v, want %v", i, j, got, want)
					}
				}
			}
			// A restored state keeps extending incrementally.
			if ext, ok := metric.(Extender); ok {
				grown, err := ext.Extend(ctx, restored, []string{"SELECT b FROM t WHERE y = 2"})
				if err != nil {
					t.Fatalf("Extend over a restored state: %v", err)
				}
				if grown.Len() != prep.Len()+1 {
					t.Errorf("extended restored state Len() = %d, want %d", grown.Len(), prep.Len()+1)
				}
			}
		})
	}
}

// TestSnapshotRejectsGarbage pins the decoder's failure modes: bad
// magic, cross-metric tags, and truncation all error instead of
// producing a silently wrong prepared state.
func TestSnapshotRejectsGarbage(t *testing.T) {
	ctx := context.Background()
	arts := snapshotArtifacts(t)
	token, _ := New("token", arts)
	aa, _ := New("access-area", arts)
	prep, err := token.Prepare(ctx, snapshotLog)
	if err != nil {
		t.Fatal(err)
	}
	data, err := token.(Snapshotter).MarshalPrepared(prep)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := token.(Snapshotter).UnmarshalPrepared([]byte("not a snapshot")); err == nil {
		t.Error("bad magic decoded without error")
	}
	if _, err := aa.(Snapshotter).UnmarshalPrepared(data); err == nil {
		t.Error("token snapshot decoded as access-area state")
	}
	if _, err := token.(Snapshotter).UnmarshalPrepared(data[:len(data)-1]); err == nil {
		t.Error("truncated snapshot decoded without error")
	}
	if _, err := token.(Snapshotter).UnmarshalPrepared(append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("snapshot with trailing bytes decoded without error")
	}
	if _, err := token.(Snapshotter).MarshalPrepared(&aaPrepared{}); err == nil {
		t.Error("marshaling a foreign prepared state succeeded")
	}
	// Counts of 2⁶² at each pre-sizing site must fail against the bytes
	// left instead of sizing an allocation. The first is 22 bytes: the
	// magic, tag 3, the overlap float, then the query count.
	huge := binary.AppendUvarint(nil, 1<<62)
	area := append([]byte("DPS1\x03"), make([]byte, 8)...)
	for name, c := range map[string]struct {
		snap Snapshotter
		data []byte
	}{
		"tag 3 queries":   {aa.(Snapshotter), append(area, huge...)},
		"tag 3 attrs":     {aa.(Snapshotter), append(append(area, 1), huge...)},
		"tag 3 areas":     {aa.(Snapshotter), append(append(area, 1, 0), huge...)},
		"tag 3 intervals": {aa.(Snapshotter), append(append(area, 1, 0, 1, 0), huge...)},
		"tag 1 sets":      {token.(Snapshotter), append([]byte("DPS1\x01"), huge...)},
		"tag 4 elements":  {token.(Snapshotter), append([]byte("DPS1\x04"), huge...)},
	} {
		if name == "tag 3 queries" && len(c.data) != 22 {
			t.Fatalf("%s: hostile snapshot is %d bytes, want 22", name, len(c.data))
		}
		if _, err := c.snap.UnmarshalPrepared(c.data); err == nil {
			t.Errorf("%s: a count of 2^62 decoded without error", name)
		}
	}
}

// FuzzUnmarshalPrepared checks the snapshot decoders (tags 1–5) on
// arbitrary bytes: they never panic; decoding allocates at most 1 MiB
// plus 128 bytes per input byte (an access-area interval is 144 bytes
// in memory and 4 on disk, and NewArea copies it once more); and
// marshaling an accepted state gives bytes that decode and re-marshal
// to the same bytes.
func FuzzUnmarshalPrepared(f *testing.F) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "snapshot_*.bin"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range fixtures {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	arts := snapshotArtifacts(f)
	var snaps []Snapshotter // one per codec: string sets, feature sets, access areas
	for _, name := range []string{"token", "structure", "access-area"} {
		m, err := New(name, arts)
		if err != nil {
			f.Fatal(err)
		}
		snaps = append(snaps, m.(Snapshotter))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, snap := range snaps {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			prep, err := snap.UnmarshalPrepared(data)
			runtime.ReadMemStats(&after)
			if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+128*len(data)); got > bound {
				t.Fatalf("%T: decoding %d bytes allocated %d bytes, bound %d", snap, len(data), got, bound)
			}
			if err != nil {
				continue
			}
			once, err := snap.MarshalPrepared(prep)
			if err != nil {
				t.Fatalf("%T: marshaling an accepted state: %v", snap, err)
			}
			back, err := snap.UnmarshalPrepared(once)
			if err != nil {
				t.Fatalf("%T: decoding the re-marshaled %x: %v", snap, once, err)
			}
			twice, err := snap.MarshalPrepared(back)
			if err != nil {
				t.Fatalf("%T: re-marshaling: %v", snap, err)
			}
			if !bytes.Equal(once, twice) {
				t.Fatalf("%T: %x re-marshals to %x", snap, once, twice)
			}
		}
	})
}
