package distance

import (
	"context"
	"sort"
	"testing"
)

// setSourceLog is a small log every set-based metric can prepare.
var setSourceLog = []string{
	"SELECT a FROM t WHERE a > 1",
	"SELECT a, b FROM t WHERE b < 5",
	"SELECT c FROM u",
	"SELECT a FROM t WHERE a > 1 ORDER BY a",
}

func hashesOf(t *testing.T, p Prepared, i int) []uint64 {
	t.Helper()
	src, ok := p.(SetSource)
	if !ok {
		t.Fatalf("prepared state %T does not implement SetSource", p)
	}
	out := src.AppendElementHashes(nil, i)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// TestSetSourceImplementations pins which prepared states expose element
// hashes: the three Jaccard measures do, access-area does not.
func TestSetSourceImplementations(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"token", "structure"} {
		m, err := New(name, Artifacts{})
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		p, err := m.Prepare(ctx, setSourceLog)
		if err != nil {
			t.Fatalf("%s Prepare: %v", name, err)
		}
		src, ok := p.(SetSource)
		if !ok {
			t.Fatalf("%s prepared state %T is not a SetSource", name, p)
		}
		for i := 0; i < p.Len(); i++ {
			if got := src.AppendElementHashes(nil, i); len(got) == 0 {
				t.Errorf("%s query %d: no element hashes", name, i)
			}
		}
	}
	if _, ok := any(&aaPrepared{}).(SetSource); ok {
		t.Fatal("access-area prepared state must not implement SetSource (not a set resemblance)")
	}
}

// TestSetSourceStableAcrossExtend pins the cross-process determinism the
// journal codec depends on: hashes of the old queries are unchanged by
// Extend, and a fresh Prepare of the combined log agrees element-wise.
func TestSetSourceStableAcrossExtend(t *testing.T) {
	ctx := context.Background()
	m, err := New("token", Artifacts{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := m.Prepare(ctx, setSourceLog[:2])
	if err != nil {
		t.Fatal(err)
	}
	ext, err := m.Extend(ctx, base, setSourceLog[2:])
	if err != nil {
		t.Fatal(err)
	}
	full, err := m.Prepare(ctx, setSourceLog)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(setSourceLog); i++ {
		a, b := hashesOf(t, ext, i), hashesOf(t, full, i)
		if len(a) != len(b) {
			t.Fatalf("query %d: %d vs %d hashes", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("query %d hash %d: extend %#x != prepare %#x", i, j, a[j], b[j])
			}
		}
	}
	for i := 0; i < 2; i++ {
		a, b := hashesOf(t, base, i), hashesOf(t, ext, i)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("old query %d changed hash after Extend", i)
			}
		}
	}
}
