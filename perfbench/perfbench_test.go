package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readJSON(t *testing.T, path string, into any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, into); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// tiny shrinks a workload to seconds-long runs.
func tiny(name string) *shape {
	sh := map[string]shape{
		"matrix-warm":    {tenants: 2, n: 24, warmSteps: 1},
		"neighbors-topk": {tenants: 2, n: 128, k: 10, warmSteps: 2},
		"ingest-mine":    {tenants: 2, n: 24, k: 4, appends: 2, warmSteps: 1},
	}[name]
	return &sh
}

func tinyRun(t *testing.T, name string, traced bool, wrap stackOptions) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(context.Background(), config{
		workload: name, seed: 1, seconds: 400 * time.Millisecond, traced: traced,
		setups: 2, shape: tiny(name), work: t.TempDir(), source: "test", wrap: wrap, out: &out,
	})
	if err != nil {
		t.Fatalf("%s traced=%v: %v", name, traced, err)
	}
	return res, out.String()
}

// TestEveryWorkloadPrintsEveryMetric runs every workload of
// BENCHMARK.json once untraced and once traced at tiny shapes: each
// answer verifies, the result line carries exactly the metrics
// BENCHMARK.json names, with their units, and an untraced run also
// prints every unbounded end-to-end metric of spec.json.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	var bf benchFile
	readJSON(t, "../BENCHMARK.json", &bf)
	var spec struct {
		EndToEnd struct {
			Printed map[string]string `json:"printed_unbounded"`
		} `json:"end_to_end"`
	}
	readJSON(t, "spec.json", &spec)
	if len(bf.Workloads) != len(shapes) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code has %d", len(bf.Workloads), len(shapes))
	}
	for _, wl := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			res, out := tinyRun(t, wl.Name, traced, stackOptions{})
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", wl.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", wl.Name, traced, m.Name, got, m.Unit)
				}
			}
			if traced {
				continue
			}
			for name := range spec.EndToEnd.Printed {
				if name == "recall_at_10" && wl.Name != "neighbors-topk" {
					continue
				}
				if !strings.Contains(out, "metric "+name+" ") {
					t.Errorf("%s: no printed metric %s in\n%s", wl.Name, name, out)
				}
			}
		}
	}
}

// TestCorruptedMatrixIsAFailedOp flips one digit of every matrix
// response in flight: the benchmark must count those ops as failed, not
// accept them.
func TestCorruptedMatrixIsAFailedOp(t *testing.T) {
	flip := func(rt http.RoundTripper) http.RoundTripper {
		return roundTripFunc(func(req *http.Request) (*http.Response, error) {
			resp, err := rt.RoundTrip(req)
			if err != nil || !strings.HasSuffix(req.URL.Path, "/matrix") {
				return resp, err
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return nil, err
			}
			i := bytes.Index(body, []byte(`"rows":[[`)) + len(`"rows":[[`)
			if body[i] == '0' {
				body[i] = '1'
			} else {
				body[i] = '0'
			}
			resp.Body, resp.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
			return resp, nil
		})
	}
	res, _ := tinyRun(t, "matrix-warm", false, stackOptions{transport: flip})
	if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
		t.Fatalf("corrupted matrices: correct=%v failed=%d attempted=%d, want every op failed", res.Correct, res.Failed, res.Attempted)
	}
}

// TestSpecMatchesCode keeps spec.json's workload shapes and layer map
// in step with the code and BENCHMARK.json.
func TestSpecMatchesCode(t *testing.T) {
	var bf benchFile
	readJSON(t, "../BENCHMARK.json", &bf)
	var spec struct {
		Workloads map[string]struct {
			Tenants int  `json:"tenants"`
			N       int  `json:"n"`
			K       *int `json:"k"`
			Appends *int `json:"appends_per_cycle"`
			Warm    int  `json:"warmup_steps_per_client"`
		} `json:"workloads"`
		Layers []struct {
			Metrics []string `json:"metrics"`
		} `json:"layers"`
	}
	readJSON(t, "spec.json", &spec)
	for name, sh := range shapes {
		w, ok := spec.Workloads[name]
		k, appends := 0, 0
		if w.K != nil {
			k = *w.K
		}
		if w.Appends != nil {
			appends = *w.Appends
		}
		if !ok || w.Tenants != sh.tenants || w.N != sh.n || k != sh.k || appends != sh.appends || w.Warm != sh.warmSteps {
			t.Errorf("spec.json workload %s = %+v, code has %+v", name, w, sh)
		}
	}
	inLayers := map[string]bool{}
	for _, l := range spec.Layers {
		for _, m := range l.Metrics {
			inLayers[m] = true
		}
	}
	for _, m := range bf.PerLayer {
		if !inLayers[m.Name] {
			t.Errorf("per-layer metric %s is in no spec.json layer", m.Name)
		}
		delete(inLayers, m.Name)
	}
	for m := range inLayers {
		t.Errorf("spec.json layer metric %s is not in BENCHMARK.json", m)
	}
}

// TestCompactReclaimsDeletedSessions checks what the sliced timed phase
// relies on: compacting after a slice gives back the journal bytes of
// the sessions the slice created and deleted, and a slice that
// journaled nothing leaves the journal alone.
func TestCompactReclaimsDeletedSessions(t *testing.T) {
	ctx := context.Background()
	s, err := openStack(t.TempDir(), stackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	ts, err := genTenants("compact", 1, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts[0].encrypt(); err != nil {
		t.Fatal(err)
	}
	j0 := dirBytes(s.dir)
	if err := ts[0].open(ctx, s, 16); err != nil {
		t.Fatal(err)
	}
	if err := ts[0].sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	grown := dirBytes(s.dir)
	if grown <= j0 {
		t.Fatalf("a created and deleted session journaled nothing (%d -> %d bytes)", j0, grown)
	}
	if err := compact(s, &phase{}); err != nil || dirBytes(s.dir) != grown {
		t.Fatalf("compact after a phase that journaled nothing: err=%v, %d -> %d bytes", err, grown, dirBytes(s.dir))
	}
	if err := compact(s, &phase{journal: grown - j0}); err != nil {
		t.Fatal(err)
	}
	if after := dirBytes(s.dir); after > j0 {
		t.Fatalf("compaction left %d bytes, %d before the session", after, j0)
	}
}
