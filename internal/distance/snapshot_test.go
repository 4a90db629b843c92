package distance

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
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
			prep, err := metric.Prepare(ctx, snapshotLog)
			if err != nil {
				t.Fatal(err)
			}
			data, err := metric.MarshalPrepared(prep)
			if err != nil {
				t.Fatal(err)
			}
			again, err := metric.MarshalPrepared(prep)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, again) {
				t.Error("marshaling the same state twice produced different bytes")
			}
			restored, err := metric.UnmarshalPrepared(data)
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
			grown, err := metric.Extend(ctx, restored, []string{"SELECT b FROM t WHERE y = 2"})
			if err != nil {
				t.Fatalf("Extend over a restored state: %v", err)
			}
			if grown.Len() != prep.Len()+1 {
				t.Errorf("extended restored state Len() = %d, want %d", grown.Len(), prep.Len()+1)
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
	data, err := token.MarshalPrepared(prep)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := token.UnmarshalPrepared([]byte("not a snapshot")); err == nil {
		t.Error("bad magic decoded without error")
	}
	if _, err := aa.UnmarshalPrepared(data); err == nil {
		t.Error("token snapshot decoded as access-area state")
	}
	if _, err := token.UnmarshalPrepared(data[:len(data)-1]); err == nil {
		t.Error("truncated snapshot decoded without error")
	}
	if _, err := token.UnmarshalPrepared(append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("snapshot with trailing bytes decoded without error")
	}
	if _, err := token.MarshalPrepared(&aaPrepared{}); err == nil {
		t.Error("marshaling a foreign prepared state succeeded")
	}
	// Counts of 2⁶² at each pre-sizing site must fail against the bytes
	// left instead of sizing an allocation. The first is 22 bytes: the
	// magic, tag 3, the overlap float, then the query count.
	huge := binary.AppendUvarint(nil, 1<<62)
	area := append([]byte("DPS1\x03"), make([]byte, 8)...)
	// A set that repeats an element would cache a cardinality larger
	// than its bitset holds, so {a,a} and {a} would measure 0.5 apart
	// instead of 0. Each encoding must reject the repeat: an id delta of
	// 2³² that wraps back onto id 0 (tag 4), and a repeated attribute
	// name (tag 3; the point area [1,1] keeps the repeat from measuring
	// 0 by accident). The retired tags 1 and 2 are rejected whatever
	// their body holds.
	structure, _ := New("structure", arts)
	feature := func(item string) []byte { return snapStr(snapStr(nil, "SELECT"), item) }
	point := []byte{1, snapValInt, 2, 0, snapValInt, 2, 0} // one interval [1,1]
	for name, c := range map[string]struct {
		m    Metric
		data []byte
	}{
		"tag 3 queries":            {aa, append(area, huge...)},
		"tag 3 attrs":              {aa, append(append(area, 1), huge...)},
		"tag 3 areas":              {aa, append(append(area, 1, 0), huge...)},
		"tag 3 intervals":          {aa, append(append(area, 1, 0, 1, 0), huge...)},
		"tag 1 sets":               {token, append([]byte("DPS1\x01"), huge...)},
		"tag 4 elements":           {token, append([]byte("DPS1\x04"), huge...)},
		"tag 1 repeated element":   {token, snapCat("DPS1\x01", uv(2, 2), snapStr(snapStr(nil, "a"), "a"), uv(1), snapStr(nil, "a"))},
		"tag 1 descending set":     {token, snapCat("DPS1\x01", uv(1, 2), snapStr(snapStr(nil, "b"), "a"))},
		"tag 2 repeated element":   {structure, snapCat("DPS1\x02", uv(2, 2), feature("a"), feature("a"), uv(1), feature("a"))},
		"tag 4 wrapping delta":     {token, snapCat("DPS1\x04", uv(1), snapStr(nil, "a"), uv(2, 2, 0, 1<<32, 1, 0))},
		"tag 3 repeated attribute": {aa, snapCat(string(area), uv(2, 2), snapStr(snapStr(nil, "x"), "x"), uv(1), snapStr(nil, "x"), point, uv(1), snapStr(nil, "x"), uv(1), snapStr(nil, "x"), point)},
	} {
		if name == "tag 3 queries" && len(c.data) != 22 {
			t.Fatalf("%s: hostile snapshot is %d bytes, want 22", name, len(c.data))
		}
		if prep, err := c.m.UnmarshalPrepared(c.data); err == nil {
			d, _ := prep.Distance(0, prep.Len()-1)
			t.Errorf("%s: hostile snapshot decoded to %d queries, distance(0,last) = %v", name, prep.Len(), d)
		}
	}
}

// uv appends uvarints.
func uv(xs ...uint64) []byte {
	var b []byte
	for _, x := range xs {
		b = binary.AppendUvarint(b, x)
	}
	return b
}

// snapStr appends a length-prefixed string.
func snapStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// snapCat joins a header and body parts into one snapshot.
func snapCat(header string, parts ...[]byte) []byte {
	out := []byte(header)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// FuzzUnmarshalPrepared checks the snapshot decoders (tags 3–5) on
// arbitrary bytes: they never panic; decoding allocates at most 1 MiB
// plus 128 bytes per input byte (an access-area interval is 144 bytes
// in memory and 4 on disk, and NewArea copies it once more); marshaling
// an accepted state gives bytes that decode and re-marshal to the same
// bytes; and the re-marshaled decode gives the accepted state's
// distances (over its first 256 queries). The last check matters
// because re-marshaling canonicalizes: a state whose sets disagree with
// their cached cardinalities re-marshals cleanly yet measures
// differently.
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
	var metrics []Metric // one per codec: string sets, feature sets, access areas
	for _, name := range []string{"token", "structure", "access-area"} {
		m, err := New(name, arts)
		if err != nil {
			f.Fatal(err)
		}
		metrics = append(metrics, m)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, m := range metrics {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			prep, err := m.UnmarshalPrepared(data)
			runtime.ReadMemStats(&after)
			if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+128*len(data)); got > bound {
				t.Fatalf("%s: decoding %d bytes allocated %d bytes, bound %d", m.Name(), len(data), got, bound)
			}
			if err != nil {
				continue
			}
			once, err := m.MarshalPrepared(prep)
			if err != nil {
				t.Fatalf("%s: marshaling an accepted state: %v", m.Name(), err)
			}
			back, err := m.UnmarshalPrepared(once)
			if err != nil {
				t.Fatalf("%s: decoding the re-marshaled %x: %v", m.Name(), once, err)
			}
			twice, err := m.MarshalPrepared(back)
			if err != nil {
				t.Fatalf("%s: re-marshaling: %v", m.Name(), err)
			}
			if !bytes.Equal(once, twice) {
				t.Fatalf("%s: %x re-marshals to %x", m.Name(), once, twice)
			}
			if back.Len() != prep.Len() {
				t.Fatalf("%s: %d queries re-decode to %d", m.Name(), prep.Len(), back.Len())
			}
			for i := 0; i < min(prep.Len(), 256); i++ {
				for j := i + 1; j < min(prep.Len(), 256); j++ {
					want, _ := prep.Distance(i, j)
					got, _ := back.Distance(i, j)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: distance(%d,%d) is %v accepted, %v re-decoded", m.Name(), i, j, want, got)
					}
				}
			}
		}
	})
}
