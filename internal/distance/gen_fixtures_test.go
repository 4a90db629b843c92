package distance

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestGenerateSnapshotFixtures regenerates the golden snapshot fixtures
// under testdata/ when RUN_GEN_FIXTURES is set. It exists so the
// fixture bytes provably come from a real encoder run, not hand
// assembly; normal test runs skip it.
func TestGenerateSnapshotFixtures(t *testing.T) {
	if os.Getenv("RUN_GEN_FIXTURES") == "" {
		t.Skip("set RUN_GEN_FIXTURES=1 to regenerate testdata fixtures")
	}
	ctx := context.Background()
	arts := snapshotArtifacts(t)
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range Names() {
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
		path := filepath.Join("testdata", "snapshot_"+fixtureEra+"_"+name+".bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(data))
	}
}
