package distance

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureEra names the snapshot-format era TestGenerateSnapshotFixtures
// writes fixtures for. The "legacy" fixtures under testdata/ were
// generated by the map-era encoder before the interning refactor and
// must never be regenerated. Access-area's is in tag 3, which is still
// current, so it must decode; the others are in the retired tags 1 and
// 2, so the decoders must reject them.
const fixtureEra = "interned"

func readFixture(t *testing.T, era, name string) []byte {
	t.Helper()
	path := filepath.Join("testdata", "snapshot_"+era+"_"+name+".bin")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture %s (see gen_fixtures_test.go): %v", path, err)
	}
	return data
}

// TestLegacySnapshotsReplay pins what becomes of the snapshots the
// pre-interning (map kernel) binaries wrote. The set measures' retired
// tags 1 and 2 are rejected with an error that names the tag the
// decoder wants, so replay and import count them as skipped and the
// log is prepared again. Access-area's tag 3 is current: it decodes
// into the current representation with entry-wise identical distances
// to a fresh Prepare of the same log, and keeps extending
// incrementally.
func TestLegacySnapshotsReplay(t *testing.T) {
	ctx := context.Background()
	arts := snapshotArtifacts(t)
	wantTag := map[string]byte{"token": snapInternedStrings, "result": snapInternedStrings, "structure": snapInternedFeatures}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			metric, err := New(name, arts)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := metric.UnmarshalPrepared(readFixture(t, "legacy", name))
			if tag, retired := wantTag[name]; retired {
				want := fmt.Sprintf("want %d", tag)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("retired snapshot decoded with error %v, want one naming %q", err, want)
				}
				return
			}
			if err != nil {
				t.Fatalf("legacy snapshot did not decode: %v", err)
			}
			fresh, err := metric.Prepare(ctx, snapshotLog)
			if err != nil {
				t.Fatal(err)
			}
			if restored.Len() != fresh.Len() {
				t.Fatalf("restored Len() = %d, want %d", restored.Len(), fresh.Len())
			}
			for i := 0; i < fresh.Len(); i++ {
				for j := i + 1; j < fresh.Len(); j++ {
					want, err := fresh.Distance(i, j)
					if err != nil {
						t.Fatal(err)
					}
					got, err := restored.Distance(i, j)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("legacy-restored distance(%d,%d) = %v, want %v", i, j, got, want)
					}
				}
			}
			// A legacy-restored state must keep extending, and because
			// legacy elements were stored in the same sorted order
			// Prepare interns in, re-marshaling must produce exactly the
			// bytes a fresh Prepare marshals to.
			grown, err := metric.Extend(ctx, restored, []string{"SELECT b FROM t WHERE y = 2"})
			if err != nil {
				t.Fatalf("Extend over a legacy-restored state: %v", err)
			}
			if grown.Len() != fresh.Len()+1 {
				t.Errorf("extended legacy state Len() = %d, want %d", grown.Len(), fresh.Len()+1)
			}
			remarshaled, err := metric.MarshalPrepared(restored)
			if err != nil {
				t.Fatal(err)
			}
			want, err := metric.MarshalPrepared(fresh)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(remarshaled, want) {
				t.Error("re-marshaled legacy state differs from a fresh Prepare's bytes")
			}
		})
	}
}

// TestSnapshotGoldenBytes pins the current on-disk format: marshaling
// the fixture log must reproduce the checked-in interned fixtures
// byte for byte. A failure means the wire format changed — that
// requires a new payload tag and a decoder for the old one, not a
// fixture refresh.
func TestSnapshotGoldenBytes(t *testing.T) {
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
			if want := readFixture(t, fixtureEra, name); !bytes.Equal(data, want) {
				t.Errorf("marshaled bytes differ from golden fixture (%d vs %d bytes); the on-disk format changed", len(data), len(want))
			}
		})
	}
}

// TestSnapshotFutureTagError pins the forward-compatibility failure
// mode: a payload tag from a future format version fails with an
// actionable versioned error, not a cross-measure complaint or a
// decode of garbage.
func TestSnapshotFutureTagError(t *testing.T) {
	arts := snapshotArtifacts(t)
	future := append(append([]byte(nil), snapshotMagic[:]...), snapMaxTag+1, 0)
	for _, name := range Names() {
		metric, err := New(name, arts)
		if err != nil {
			t.Fatal(err)
		}
		_, err = metric.UnmarshalPrepared(future)
		if err == nil {
			t.Fatalf("%s: future-tag snapshot decoded without error", name)
		}
		if !strings.Contains(err.Error(), "newer than this binary supports") {
			t.Errorf("%s: future-tag error %q is not the versioned message", name, err)
		}
	}
}

// TestMapKernelParity verifies the legacy map kernel and the interned
// kernel agree bit-for-bit on every pair of every measure — the
// invariant that makes the hotpath bench comparison apples-to-apples.
// (For access-area at the default x this is exact: per-pair δ values
// are multiples of 0.5, so the float sums are order-independent.)
func TestMapKernelParity(t *testing.T) {
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
			legacy, ok := MapKernel(prep)
			if !ok {
				t.Fatalf("MapKernel rejected %T", prep)
			}
			for i := 0; i < prep.Len(); i++ {
				for j := 0; j < prep.Len(); j++ {
					want, err := legacy.Distance(i, j)
					if err != nil {
						t.Fatal(err)
					}
					got, err := prep.Distance(i, j)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("kernel mismatch at (%d,%d): bitset %v, map %v", i, j, got, want)
					}
				}
			}
			if name == "access-area" {
				return // not a SetSource; no element hashes to compare
			}
			// The map kernel sees the same elements, so its MinHash
			// element hashes must be a permutation of the interned ones.
			a := hashesOf(t, prep, 0)
			b := hashesOf(t, legacy, 0)
			if len(a) != len(b) {
				t.Fatalf("element hash count: interned %d, map %d", len(a), len(b))
			}
			for k := range a {
				if a[k] != b[k] {
					t.Fatalf("element hash %d: interned %#x, map %#x", k, a[k], b[k])
				}
			}
		})
	}
}
