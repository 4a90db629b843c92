package store_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/store/storetest"
)

// TestStoreConformance runs the shared backend contract against both
// backends: the null store (writes vanish by design) and the segment
// files.
func TestStoreConformance(t *testing.T) {
	t.Run("null", func(t *testing.T) {
		storetest.Run(t, storetest.Factory{
			Persistent: false,
			Open:       func(t *testing.T) store.Store { return store.Null{} },
			Reopen:     func(t *testing.T) store.Store { return store.Null{} },
		})
	})
	t.Run("segments", func(t *testing.T) {
		var dir string
		open := func(t *testing.T) store.Store {
			st, err := store.OpenDir(dir)
			if err != nil {
				t.Fatalf("OpenDir(%q): %v", dir, err)
			}
			return st
		}
		storetest.Run(t, storetest.Factory{
			Persistent: true,
			Open: func(t *testing.T) store.Store {
				dir = t.TempDir()
				return open(t)
			},
			Reopen: open,
		})
	})
}

// TestBackendRegistry pins the names dpeserver and the benchmark open
// stores by: "null" and "segments" open, and an unknown name fails with
// an error naming it and the available set.
func TestBackendRegistry(t *testing.T) {
	st, err := store.OpenBackend("null", "")
	if err != nil {
		t.Fatalf("OpenBackend(null): %v", err)
	}
	if _, ok := st.(store.Null); !ok {
		t.Errorf("OpenBackend(null) = %T, want store.Null", st)
	}
	st, err = store.OpenBackend("segments", t.TempDir())
	if err != nil {
		t.Fatalf("OpenBackend(segments): %v", err)
	}
	if _, ok := st.(store.Instrumenter); !ok {
		t.Errorf("OpenBackend(segments) = %T, want an instrumentable store", st)
	}
	st.Close()
	for _, name := range []string{"no-such", ""} {
		_, err := store.OpenBackend(name, "x")
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) || !strings.Contains(err.Error(), "null|segments") {
			t.Errorf("OpenBackend(%q) = %v, want an error naming the backend and the available set", name, err)
		}
	}
}
