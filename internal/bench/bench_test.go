package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"

	dpe "repro"
	"repro/internal/distance"
)

// smokeConfig is even smaller than ShortConfig: the suite's own tests
// must stay fast enough for the race job.
func smokeConfig() Config {
	cfg := ShortConfig()
	cfg.Queries, cfg.Append, cfg.Rows = 8, 3, 16
	cfg.Parallelism = 2
	return cfg
}

// TestRunAllTrackedCounters runs the full harness at smoke size and
// pins every tracked counter to its closed-form value — in particular
// the tentpole's acceptance check that the append path computes only
// n·k + k·(k−1)/2 entries while the rebuild computes the full triangle.
func TestRunAllTrackedCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every measure incl. catalog encryption")
	}
	cfg := smokeConfig()
	r, err := Run(context.Background(), []string{"all"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema != SchemaVersion {
		t.Errorf("schema = %d, want %d", r.Schema, SchemaVersion)
	}
	n, k := cfg.Queries, cfg.Append
	wantPairsAppend := float64(distance.AppendPairs(n, k))
	wantPairsRebuild := float64((n + k) * (n + k - 1) / 2)
	wantPairsEngine := float64(n * (n - 1) / 2)
	for _, m := range []dpe.Measure{dpe.MeasureToken, dpe.MeasureStructure, dpe.MeasureResult, dpe.MeasureAccessArea} {
		checks := map[string]float64{
			"engine/" + m.String() + "/pairs":            wantPairsEngine,
			"append/" + m.String() + "/pairs_append":     wantPairsAppend,
			"append/" + m.String() + "/pairs_rebuild":    wantPairsRebuild,
			"append/" + m.String() + "/max_abs_diff":     0,
			"service/" + m.String() + "/prepared_misses": 2,
		}
		for name, want := range checks {
			got, ok := r.Metric(name)
			if !ok {
				t.Errorf("metric %s missing", name)
				continue
			}
			if !got.Tracked {
				t.Errorf("metric %s is not tracked", name)
			}
			if got.Value != want {
				t.Errorf("%s = %v, want %v", name, got.Value, want)
			}
		}
		// Hits are deterministic too (every warm call plus the append's
		// base lookup) but higher-is-better, so they are recorded
		// untracked — the gate must not flag a beneficial extra hit.
		hits, ok := r.Metric("service/" + m.String() + "/prepared_hits")
		if !ok || hits.Tracked || hits.Value != float64(cfg.WarmCalls+1) {
			t.Errorf("prepared_hits = %+v (ok=%v), want untracked %d", hits, ok, cfg.WarmCalls+1)
		}
	}
	// The append must do strictly less pairwise work than the rebuild.
	if wantPairsAppend >= wantPairsRebuild {
		t.Fatalf("smoke config degenerate: append %v >= rebuild %v", wantPairsAppend, wantPairsRebuild)
	}

	// Contention counters: closed-form in (workers, rounds). Each
	// worker-round performs 7 operations (6 on the final round, whose
	// session stays live), 2 misses, and 3 hits — however the
	// goroutines interleave.
	rounds := cfg.WarmCalls
	contentionChecks := map[string]float64{
		"contention/ops":             float64(contentionWorkers * (7*rounds - 1)),
		"contention/prepared_misses": float64(2 * contentionWorkers * rounds),
		"contention/errors":          0,
		"contention/shards":          contentionShards,
		"contention/sessions_live":   contentionWorkers,
	}
	for name, want := range contentionChecks {
		got, ok := r.Metric(name)
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if !got.Tracked {
			t.Errorf("metric %s is not tracked", name)
		}
		if got.Value != want {
			t.Errorf("%s = %v, want %v", name, got.Value, want)
		}
	}
	if hits, ok := r.Metric("contention/prepared_hits"); !ok || hits.Tracked ||
		hits.Value != float64(3*contentionWorkers*rounds) {
		t.Errorf("contention/prepared_hits = %+v (ok=%v), want untracked %d", hits, ok, 3*contentionWorkers*rounds)
	}

	// Hotpath counters: the kernel comparison runs at its own fixed
	// n=256 regardless of cfg.Queries, and both kernels must agree on
	// every entry. The ratio gates are clamped timing values — assert
	// only that they exist, are tracked, and never report below the
	// clamp floor.
	wantHot := float64(256 * 255 / 2)
	for _, m := range []dpe.Measure{dpe.MeasureToken, dpe.MeasureStructure, dpe.MeasureResult, dpe.MeasureAccessArea} {
		pfx := "hotpath/" + m.String()
		for name, want := range map[string]float64{
			pfx + "/bitset_pairs":  wantHot,
			pfx + "/map_pairs":     wantHot,
			pfx + "/pair_mismatch": 0,
		} {
			got, ok := r.Metric(name)
			if !ok || !got.Tracked || got.Value != want {
				t.Errorf("%s = %+v (ok=%v), want tracked %v", name, got, ok, want)
			}
		}
		if gate, ok := r.Metric(pfx + "/kernel_ratio_gate"); !ok || !gate.Tracked || gate.Value < 0.5/1.3-1e-9 {
			t.Errorf("%s/kernel_ratio_gate = %+v (ok=%v), want tracked >= clamp floor", pfx, gate, ok)
		}
	}
	if mm, ok := r.Metric("hotpath/paillier/decrypt_mismatch"); !ok || !mm.Tracked || mm.Value != 0 {
		t.Errorf("hotpath/paillier/decrypt_mismatch = %+v (ok=%v), want tracked 0", mm, ok)
	}
	for _, name := range []string{"hotpath/paillier/decrypt_ratio_gate", "hotpath/paillier/encrypt_ratio_gate"} {
		if gate, ok := r.Metric(name); !ok || !gate.Tracked || gate.Value < 1/1.3-1e-9 {
			t.Errorf("%s = %+v (ok=%v), want tracked >= clamp floor", name, gate, ok)
		}
	}
}

// TestReportRoundTrip checks WriteJSON/ReadReport and the renderer.
func TestReportRoundTrip(t *testing.T) {
	r := &Report{Schema: SchemaVersion, GoVersion: "go1.24", NumCPU: 1, Config: Config{}.withDefaults()}
	r.add("engine/token/pairs", "pairs/op", 45, true)
	r.add("engine/token/build_seq", "ns/op", 123456, false)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Metrics) != 2 || back.Metrics[0] != r.Metrics[0] {
		t.Errorf("round trip lost metrics: %+v", back.Metrics)
	}
	text := Render(back)
	if !strings.Contains(text, "engine/token/pairs") || !strings.Contains(text, "-- engine --") {
		t.Errorf("render missing content:\n%s", text)
	}
}

// TestCompare covers the regression gate's semantics.
func TestCompare(t *testing.T) {
	base := &Report{Schema: SchemaVersion}
	base.add("a/pairs", "pairs/op", 100, true)
	base.add("a/zero", "distance", 0, true)
	base.add("a/ns", "ns/op", 1000, false)

	cur := &Report{Schema: SchemaVersion}
	cur.add("a/pairs", "pairs/op", 129, true) // within +30%
	cur.add("a/zero", "distance", 0, true)
	cur.add("a/ns", "ns/op", 99999, false) // untracked: never gates

	if regs, err := Compare(cur, base, 0.30); err != nil || len(regs) != 0 {
		t.Fatalf("within-threshold compare = %v, %v", regs, err)
	}

	worse := &Report{Schema: SchemaVersion}
	worse.add("a/pairs", "pairs/op", 131, true) // > +30%
	worse.add("a/zero", "distance", 0.001, true)
	regs, err := Compare(worse, base, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 2 {
		t.Fatalf("regressions = %v, want pairs + zero", regs)
	}
	for _, reg := range regs {
		if reg.String() == "" {
			t.Error("empty regression rendering")
		}
	}

	// A tracked metric that disappears is a regression too.
	missing := &Report{Schema: SchemaVersion}
	missing.add("a/zero", "distance", 0, true)
	if regs, _ := Compare(missing, base, 0.30); len(regs) != 1 {
		t.Errorf("missing tracked metric: regressions = %v, want 1", regs)
	}

	// Schema mismatch refuses to gate.
	if _, err := Compare(&Report{Schema: SchemaVersion + 1}, base, 0.30); err == nil {
		t.Error("schema mismatch should error")
	}

	// Mismatched workload sizes refuse to gate instead of passing
	// vacuously: a full-size baseline would never catch a smoke-size
	// regression.
	resized := &Report{Schema: SchemaVersion, Config: Config{Queries: 48}}
	if _, err := Compare(resized, base, 0.30); err == nil || !strings.Contains(err.Error(), "regenerate the baseline") {
		t.Errorf("size mismatch = %v, want regenerate-the-baseline error", err)
	}

	if _, err := Run(context.Background(), []string{"nosuch"}, smokeConfig()); err == nil {
		t.Error("unknown experiment should error")
	}
}

// TestGateRatio pins the hotpath clamp at both limits in use: a ratio
// below the floor, between the floor and the limit, or at the limit
// tracks as the floor limit/1.3, so every passing run tracks the same
// value; a ratio above the limit tracks as itself, and Compare rejects
// it against a floor baseline at the +30% allowance.
func TestGateRatio(t *testing.T) {
	for _, limit := range []float64{0.5, 1} {
		floor := limit / 1.3
		base := &Report{Schema: SchemaVersion}
		base.add("gate", "ratio", floor, true)
		for _, tc := range []struct {
			name        string
			ratio, want float64
			fails       bool
		}{
			{"below the floor", floor / 2, floor, false},
			{"between the floor and the limit", (floor + limit) / 2, floor, false},
			{"at the limit", limit, floor, false},
			{"above the limit", limit * 1.01, limit * 1.01, true},
		} {
			got := gateRatio(tc.ratio, limit)
			if got != tc.want {
				t.Errorf("limit %v, ratio %v (%s): tracked %v, want %v", limit, tc.ratio, tc.name, got, tc.want)
			}
			cur := &Report{Schema: SchemaVersion}
			cur.add("gate", "ratio", got, true)
			regs, err := Compare(cur, base, 0.30)
			if err != nil {
				t.Fatal(err)
			}
			if (len(regs) > 0) != tc.fails {
				t.Errorf("limit %v, ratio %v (%s): regressions %v, want failing %v", limit, tc.ratio, tc.name, regs, tc.fails)
			}
		}
	}
}

// TestRunSingleExperiment checks experiment selection: a single cheap
// experiment runs alone, for only the requested measures.
func TestRunSingleExperiment(t *testing.T) {
	cfg := smokeConfig()
	cfg.Measures = []dpe.Measure{dpe.MeasureToken}
	r, err := Run(context.Background(), []string{"append"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Metric("append/token/pairs_append"); !ok {
		t.Error("append experiment missing its metrics")
	}
	for _, m := range r.Metrics {
		if strings.HasPrefix(m.Name, "engine/") || strings.HasPrefix(m.Name, "service/") ||
			strings.HasPrefix(m.Name, "contention/") {
			t.Errorf("unexpected metric %s from unselected experiment", m.Name)
		}
		if strings.Contains(m.Name, "/result/") || strings.Contains(m.Name, "/structure/") {
			t.Errorf("unexpected metric %s from unselected measure", m.Name)
		}
	}
}
