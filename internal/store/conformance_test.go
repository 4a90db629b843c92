package store_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/store/storetest"
)

// TestStoreConformance runs the shared backend contract against the
// segment files, the one backend.
func TestStoreConformance(t *testing.T) {
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
			Open: func(t *testing.T) store.Store {
				dir = t.TempDir()
				return open(t)
			},
			Reopen: open,
		})
	})
}

// TestBackendRegistry pins the names dpeserver and the benchmark open
// stores by: "segments" opens, and any other name, "null" included (an
// in-memory registry takes no Store), fails with an error naming it and
// the available set.
func TestBackendRegistry(t *testing.T) {
	st, err := store.OpenBackend("segments", t.TempDir())
	if err != nil {
		t.Fatalf("OpenBackend(segments): %v", err)
	}
	if _, ok := st.(store.Instrumenter); !ok {
		t.Errorf("OpenBackend(segments) = %T, want an instrumentable store", st)
	}
	st.Close()
	for _, name := range []string{"null", "no-such", ""} {
		_, err := store.OpenBackend(name, "x")
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) || !strings.Contains(err.Error(), "(have segments)") {
			t.Errorf("OpenBackend(%q) = %v, want an error naming the backend and the available set", name, err)
		}
	}
}
