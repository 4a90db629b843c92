package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	dpe "repro"
)

// fixture is one owner-side deployment: a deterministic workload plus
// the master secret holder.
type fixture struct {
	w     *dpe.Workload
	owner *dpe.Owner
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	w, err := dpe.GenerateWorkload(dpe.WorkloadConfig{
		Seed: "service-test", Queries: 12, Rows: 30,
		IncludeAggregates: true, IncludeJoins: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := dpe.NewOwner([]byte("service-test-master"), w.Schema, dpe.Config{PaillierBits: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.DeclareJoins(w.Queries); err != nil {
		t.Fatal(err)
	}
	return &fixture{w: w, owner: owner}
}

// measureSetup encrypts the log for a measure and builds both sides of
// the parity check from the same encrypted artifacts: an in-process
// provider, and the wire options for a remote session.
func (f *fixture) measureSetup(t *testing.T, m dpe.Measure) (encLog []string, local *dpe.Provider, remoteOpts []SessionOption) {
	t.Helper()
	encLog, err := f.owner.EncryptLog(f.w.Queries, m)
	if err != nil {
		t.Fatal(err)
	}
	localOpts, remoteOpts, err := EncryptedArtifactOptions(f.owner, f.w, m)
	if err != nil {
		t.Fatal(err)
	}
	local, err = dpe.NewProvider(m, localOpts...)
	if err != nil {
		t.Fatal(err)
	}
	return encLog, local, remoteOpts
}

func startServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	reg := NewRegistry(cfg)
	t.Cleanup(reg.Close)
	srv := httptest.NewServer(NewHandler(reg))
	t.Cleanup(srv.Close)
	return srv
}

// TestRemoteLocalParity is the tentpole's acceptance check: for every
// measure, the matrix, row, and mining results served over HTTP are
// entry-wise identical to the in-process Provider on the same encrypted
// log — and the second matrix call is served from the prepared-state
// cache (observable via the session stats endpoint). The whole check
// runs against a 1-shard and a 16-shard server: shard count must be
// invisible in every result.
func TestRemoteLocalParity(t *testing.T) {
	f := newFixture(t)
	clients := map[string]*Client{
		"shards=1":  NewClient(startServer(t, Config{Shards: 1}).URL),
		"shards=16": NewClient(startServer(t, Config{Shards: 16}).URL),
	}
	ctx := context.Background()

	measures := []dpe.Measure{dpe.MeasureToken, dpe.MeasureStructure, dpe.MeasureResult, dpe.MeasureAccessArea}
	if testing.Short() {
		measures = measures[:2] // skip the Paillier-heavy artifact encryptions
	}
	for _, m := range measures {
		encLog, local, remoteOpts := f.measureSetup(t, m)
		for name, client := range clients {
			t.Run(m.String()+"/"+name, func(t *testing.T) {
				sess, err := client.NewSession(ctx, m, remoteOpts...)
				if err != nil {
					t.Fatal(err)
				}
				if sess.Measure() != m {
					t.Errorf("session measure = %v, want %v", sess.Measure(), m)
				}

				want, err := local.DistanceMatrix(ctx, encLog)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sess.DistanceMatrix(ctx, encLog)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatal("remote matrix differs from in-process matrix")
				}

				// Row access parity (first and last query).
				for _, q := range []int{0, len(encLog) - 1} {
					wantRow, err := local.Distances(ctx, encLog, q)
					if err != nil {
						t.Fatal(err)
					}
					gotRow, err := sess.Distances(ctx, encLog, q)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gotRow, wantRow) {
						t.Errorf("remote row %d differs from in-process row", q)
					}
				}

				// Mining parity.
				spec := dpe.MineSpec{Algorithm: dpe.MineKMedoids, K: 3}
				wantMine, err := local.Mine(ctx, encLog, spec)
				if err != nil {
					t.Fatal(err)
				}
				gotMine, err := sess.Mine(ctx, encLog, spec)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotMine, wantMine) {
					t.Error("remote mining result differs from in-process result")
				}

				// The owner's Definition 1 check of the remote matrix
				// against its own plaintext matrix.
				plainProvider := plainSide(t, f, m)
				plain, err := plainProvider.DistanceMatrix(ctx, f.w.Queries)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := dpe.VerifyPreservation(plain, got, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Preserved {
					t.Errorf("measure %v not preserved over the wire: max |Δd| = %g", m, rep.MaxAbsError)
				}

				// The repeat calls above must have hit the prepared cache: only
				// the very first call on the uploaded log may miss.
				stats, err := sess.Stats(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if stats.Logs != 1 {
					t.Errorf("stats.Logs = %d, want 1 (content-addressed upload)", stats.Logs)
				}
				// One miss (the first matrix call) and a hit for each of the two
				// row calls and the mine call.
				if stats.PreparedMisses != 1 || stats.PreparedHits != 3 {
					t.Errorf("prepared cache: hits %d misses %d, want exactly 1 miss and 3 hits",
						stats.PreparedHits, stats.PreparedMisses)
				}
			})
		}
	}
}

// plainSide builds the owner's in-process plaintext session for a
// measure (the other half of the Definition 1 check).
func plainSide(t *testing.T, f *fixture, m dpe.Measure) *dpe.Provider {
	t.Helper()
	var opts []dpe.ProviderOption
	switch m {
	case dpe.MeasureResult:
		opts = append(opts, dpe.WithCatalog(f.w.Catalog, nil))
	case dpe.MeasureAccessArea:
		opts = append(opts, dpe.WithDomains(f.w.Domains))
	}
	p, err := dpe.NewProvider(m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestHandlerCancellation drives a request whose context is already
// cancelled through the full handler: the matrix build must abort with
// the context's error instead of running to completion.
func TestHandlerCancellation(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close()
	h := NewHandler(reg)

	token := dpe.MeasureToken
	s, err := reg.CreateSession(&CreateSessionRequest{Measure: &token})
	if err != nil {
		t.Fatal(err)
	}
	logID, err := s.AddLog([]string{"SELECT a FROM t", "SELECT b FROM t"})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body := strings.NewReader(fmt.Sprintf(`{"log":%q}`, logID))
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+s.ID()+"/matrix", body).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 499 {
		t.Errorf("cancelled request got HTTP %d (%s), want 499", rec.Code, rec.Body.String())
	}

	// The same cancellation surfaces directly from the session layer.
	if _, err := s.Matrix(ctx, logID); !errors.Is(err, context.Canceled) {
		t.Errorf("session.Matrix with cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestClientCancellationMidRequest cancels a client context while the
// server is grinding through a large matrix build; the call must return
// promptly with the context error.
func TestClientCancellationMidRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a deliberately large matrix to race the cancellation")
	}
	srv := startServer(t, Config{})
	bg := context.Background()
	sess, err := NewClient(srv.URL).NewSession(bg, dpe.MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	// A log big enough that the n(n-1)/2 pairwise build dominates: the
	// 5ms budget below expires long before ~700k Jaccard computations.
	log := make([]string, 1200)
	for i := range log {
		log[i] = fmt.Sprintf("SELECT objid, ra, dec FROM photoobj WHERE ra > %d AND nvote = %d", i, i%7)
	}
	if _, err := sess.UploadLog(bg, log); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(bg, 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = sess.DistanceMatrix(ctx, log)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("DistanceMatrix under cancellation = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %s to surface, want prompt abort", elapsed)
	}
}

// TestErrorPaths exercises the API's failure modes: bad sessions, bad
// logs, bad specs, bad artifacts, and the session capacity limit.
func TestErrorPaths(t *testing.T) {
	srv := startServer(t, Config{MaxSessions: 1})
	client := NewClient(srv.URL)
	ctx := context.Background()

	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	// Unknown session -> 404.
	if code, body := post("/v1/sessions/s-ffffffff/logs", `{"queries":["SELECT a FROM t"]}`); code != http.StatusNotFound {
		t.Errorf("unknown session: HTTP %d (%s), want 404", code, body)
	}
	// Unknown measure -> 400.
	if code, body := post("/v1/sessions", `{"measure":"bogus"}`); code != http.StatusBadRequest {
		t.Errorf("bad measure: HTTP %d (%s), want 400", code, body)
	}
	// Missing measure must not silently default to token -> 400.
	if code, body := post("/v1/sessions", `{}`); code != http.StatusBadRequest || !strings.Contains(body, "missing the measure") {
		t.Errorf("missing measure: HTTP %d (%s), want 400 naming the field", code, body)
	}
	// Result measure without its shared artifact -> 400.
	if code, body := post("/v1/sessions", `{"measure":"result"}`); code != http.StatusBadRequest || !strings.Contains(body, "catalog") {
		t.Errorf("result without catalog: HTTP %d (%s), want 400 naming the catalog", code, body)
	}

	sess, err := client.NewSession(ctx, dpe.MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	// Capacity: the registry holds one live session.
	if _, err := client.NewSession(ctx, dpe.MeasureToken); err == nil || !strings.Contains(err.Error(), "429") {
		t.Errorf("second session = %v, want 429 session-limit error", err)
	}

	// Empty log -> 400.
	if code, body := post("/v1/sessions/"+sess.ID()+"/logs", `{"queries":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty log: HTTP %d (%s), want 400", code, body)
	}
	// Matrix over a log that was never uploaded -> 404.
	if code, body := post("/v1/sessions/"+sess.ID()+"/matrix", `{"log":"l-deadbeef"}`); code != http.StatusNotFound {
		t.Errorf("unknown log: HTTP %d (%s), want 404", code, body)
	}

	log := []string{"SELECT a FROM t", "SELECT b FROM t", "SELECT a, b FROM t"}
	// Bad spec fails fast with the validation message, not a mining crash.
	_, err = sess.Mine(ctx, log, dpe.MineSpec{Algorithm: dpe.MineDBSCAN, MinPts: 2})
	if err == nil || !strings.Contains(err.Error(), "Eps > 0") {
		t.Errorf("bad spec = %v, want Eps validation error", err)
	}

	// Deleting the session frees capacity and invalidates the handle.
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Stats(ctx); err == nil {
		t.Error("stats on a deleted session should fail")
	}
	if _, err := client.NewSession(ctx, dpe.MeasureToken); err != nil {
		t.Errorf("capacity not released after delete: %v", err)
	}
}

// TestTrailingBodyRejected: a JSON request body holds exactly one value.
// Create and upload bodies with bytes after it answer 400 and leave no
// session or log behind; trailing whitespace is still accepted.
func TestTrailingBodyRejected(t *testing.T) {
	reg := NewRegistry(Config{Shards: 2, JanitorInterval: -1})
	defer reg.Close()
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	for _, body := range []string{`{"measure":"token"} x`, `{"measure":"token"}{"measure":"result"}`, `{"measure":"token"}]`} {
		if code, resp := post("/v1/sessions", body); code != http.StatusBadRequest {
			t.Errorf("create with body %q: HTTP %d (%s), want 400", body, code, resp)
		}
	}
	if n := reg.Stats().Sessions; n != 0 {
		t.Fatalf("%d sessions live after rejected creates, want 0", n)
	}
	code, resp := post("/v1/sessions", "{\"measure\":\"token\"}\n")
	if code != http.StatusCreated {
		t.Fatalf("create with a trailing newline: HTTP %d (%s), want 201", code, resp)
	}
	var created CreateSessionResponse
	if err := json.Unmarshal([]byte(resp), &created); err != nil {
		t.Fatal(err)
	}
	s, err := reg.Session(created.Session)
	if err != nil {
		t.Fatal(err)
	}

	logs := "/v1/sessions/" + created.Session + "/logs"
	for _, body := range []string{`{"queries":["SELECT a FROM t"]} x`, `{"queries":["SELECT a FROM t"]}{"queries":["SELECT b FROM t"]}`} {
		if code, resp := post(logs, body); code != http.StatusBadRequest {
			t.Errorf("upload with body %q: HTTP %d (%s), want 400", body, code, resp)
		}
	}
	if n := s.Stats().Logs; n != 0 {
		t.Fatalf("%d logs registered after rejected uploads, want 0", n)
	}
	if code, resp := post(logs, "{\"queries\":[\"SELECT a FROM t\"]}\n\t "); code != http.StatusCreated {
		t.Fatalf("upload with trailing whitespace: HTTP %d (%s), want 201", code, resp)
	}
}

// TestAppendParity checks the incremental ingest path end to end: for
// every measure, Append over the wire returns a matrix entry-wise
// identical to a from-scratch DistanceMatrix over the concatenated log,
// the server reuses the cached prepared state (observable via stats),
// and the follow-up call on the grown log is warm.
func TestAppendParity(t *testing.T) {
	f := newFixture(t)
	srv := startServer(t, Config{})
	client := NewClient(srv.URL)
	ctx := context.Background()

	measures := []dpe.Measure{dpe.MeasureToken, dpe.MeasureStructure, dpe.MeasureResult, dpe.MeasureAccessArea}
	if testing.Short() {
		measures = measures[:2] // skip the Paillier-heavy artifact encryptions
	}
	for _, m := range measures {
		t.Run(m.String(), func(t *testing.T) {
			encLog, local, remoteOpts := f.measureSetup(t, m)
			base, tail := encLog[:len(encLog)-3], encLog[len(encLog)-3:]

			sess, err := client.NewSession(ctx, m, remoteOpts...)
			if err != nil {
				t.Fatal(err)
			}
			old, err := sess.DistanceMatrix(ctx, base)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sess.Append(ctx, old, base, tail)
			if err != nil {
				t.Fatal(err)
			}
			want, err := local.DistanceMatrix(ctx, encLog)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("appended matrix differs from from-scratch matrix")
			}

			// The grown log's prepared state is cached: a full matrix call
			// on the concatenated log must be a hit, not a new preparation.
			statsBefore, err := sess.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			full, err := sess.DistanceMatrix(ctx, encLog)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(full, want) {
				t.Fatal("matrix on the grown log differs")
			}
			statsAfter, err := sess.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if statsAfter.PreparedMisses != statsBefore.PreparedMisses {
				t.Errorf("matrix on the grown log re-prepared it: misses %d -> %d",
					statsBefore.PreparedMisses, statsAfter.PreparedMisses)
			}
			if statsAfter.Logs != 2 {
				t.Errorf("stats.Logs = %d, want 2 (base + combined)", statsAfter.Logs)
			}
		})
	}
}

// TestAppendWirePayload checks the append response carries only the new
// rows — the O(n²) old block must not cross the wire again.
func TestAppendWirePayload(t *testing.T) {
	srv := startServer(t, Config{})
	ctx := context.Background()
	sess, err := NewClient(srv.URL).NewSession(ctx, dpe.MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	base := []string{"SELECT a FROM t", "SELECT b FROM t", "SELECT a, b FROM t"}
	baseID, err := sess.UploadLog(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(AppendLogRequest{Log: baseID, Queries: []string{"SELECT c FROM t"}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/sessions/"+sess.ID()+"/logs:append", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rows, err := ReadAppendedRows(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Offset != 3 || rows.N != 4 || len(rows.Rows) != 1 || len(rows.Rows[0]) != 4 {
		t.Errorf("appended rows = offset %d n %d (%d rows), want one full-width row 3..4", rows.Offset, rows.N, len(rows.Rows))
	}
}

// TestEmptyAppendOfUnpreparedLog appends no queries to a log that was
// uploaded but never prepared. The combined log is then the base log,
// so building its prepared state from the base's waited on its own
// singleflight until the deadline. Each call gets 2 s, in process and
// over HTTP: Append must answer no rows, and AppendMine must mine the
// base log cold over its 28 pairs, as a fresh mine does.
func TestEmptyAppendOfUnpreparedLog(t *testing.T) {
	log := clusteredLog()[:8]
	spec := dpe.MineSpec{Algorithm: dpe.MineKMedoids, K: 2}
	token := dpe.MeasureToken
	local, err := dpe.NewProvider(token)
	if err != nil {
		t.Fatal(err)
	}
	old, err := local.DistanceMatrix(context.Background(), log)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Mine(context.Background(), log, spec)
	if err != nil {
		t.Fatal(err)
	}
	checkMine := func(t *testing.T, res *dpe.MineResult) {
		t.Helper()
		if inc := res.Incremental; inc == nil || inc.Warm || inc.PairsComputed != 28 {
			t.Errorf("empty append_mine stats %+v, want a cold mine of 28 pairs", res.Incremental)
		}
		if !sameMineResult(res, want) {
			t.Errorf("empty append_mine result %+v, want %+v", res.Clusters, want.Clusters)
		}
	}
	deadline := func(t *testing.T) context.Context {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		t.Cleanup(cancel)
		return ctx
	}

	t.Run("in process", func(t *testing.T) {
		reg := NewRegistry(Config{Shards: 2, JanitorInterval: -1})
		defer reg.Close()
		// One session per call, so each finds the base log unprepared.
		upload := func() (*session, string) {
			s, err := reg.CreateSession(&CreateSessionRequest{Measure: &token})
			if err != nil {
				t.Fatal(err)
			}
			id, err := s.AddLog(log)
			if err != nil {
				t.Fatal(err)
			}
			return s, id
		}
		s, id := upload()
		combined, offset, rows, err := s.Append(deadline(t), id, nil)
		if err != nil || combined != id || offset != len(log) || len(rows) != 0 {
			t.Errorf("empty append = %s, %d, %d rows, %v; want the base log, offset %d, no rows",
				combined, offset, len(rows), err, len(log))
		}
		s, id = upload()
		combined, offset, rows, res, err := s.AppendMine(deadline(t), id, nil, spec)
		if err != nil {
			t.Fatalf("empty append_mine: %v", err)
		}
		if combined != id || offset != len(log) || len(rows) != 0 {
			t.Errorf("empty append_mine = %s, %d, %d rows; want the base log, offset %d, no rows", combined, offset, len(rows), len(log))
		}
		checkMine(t, res)
	})

	t.Run("http", func(t *testing.T) {
		c := NewClient(startServer(t, Config{Shards: 2}).URL)
		upload := func() *Session {
			sess, err := c.NewSession(context.Background(), token)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.UploadLog(context.Background(), log); err != nil {
				t.Fatal(err)
			}
			return sess
		}
		m, err := upload().Append(deadline(t), old, log, nil)
		if err != nil {
			t.Fatalf("empty append: %v", err)
		}
		if !reflect.DeepEqual(m, old) {
			t.Error("empty append changed the matrix")
		}
		m, res, err := upload().AppendMine(deadline(t), old, log, nil, spec)
		if err != nil {
			t.Fatalf("empty append_mine: %v", err)
		}
		if !reflect.DeepEqual(m, old) {
			t.Error("empty append_mine changed the matrix")
		}
		checkMine(t, res)
	})
}

// TestAppendErrors exercises the append endpoint's failure modes.
func TestAppendErrors(t *testing.T) {
	srv := startServer(t, Config{})
	ctx := context.Background()
	sess, err := NewClient(srv.URL).NewSession(ctx, dpe.MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	base := []string{"SELECT a FROM t", "SELECT b FROM t"}
	old, err := sess.DistanceMatrix(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	// Appending to a log that was never uploaded -> 404.
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/sessions/"+sess.ID()+"/logs:append", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := post(`{"log":"l-deadbeef","queries":["SELECT c FROM t"]}`); code != http.StatusNotFound {
		t.Errorf("append to unknown log: HTTP %d (%s), want 404", code, body)
	}
	// Appending nothing is a no-op, mirroring dpe.Provider.Append: the
	// combined log is the base itself and zero rows come back.
	baseID, err := sess.UploadLog(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if code, body := post(fmt.Sprintf(`{"log":%q,"queries":[]}`, baseID)); code != http.StatusOK ||
		!strings.Contains(body, fmt.Sprintf(`"log":%q`, baseID)) || !strings.Contains(body, `"rows":[]`) {
		t.Errorf("empty append: HTTP %d (%s), want 200 echoing the base log with no rows", code, body)
	}
	if got, err := sess.Append(ctx, old, base, nil); err != nil || !reflect.DeepEqual(got, old) {
		t.Errorf("client empty append = %v, %v, want the old matrix back", got, err)
	}
	// An unparseable appended query surfaces as 400, not a crash.
	if code, body := post(fmt.Sprintf(`{"log":%q,"queries":["bad @"]}`, baseID)); code != http.StatusBadRequest {
		t.Errorf("bad appended query: HTTP %d (%s), want 400", code, body)
	}
	// Client-side validation: a stale old matrix is rejected locally.
	if _, err := sess.Append(ctx, old[:1], base, []string{"SELECT c FROM t"}); err == nil {
		t.Error("mismatched old matrix should error")
	}
}

// TestPrepareSingleflight checks concurrent cold requests for the same
// log collapse into one preparation: however many clients race, the
// expensive Prepare runs once.
func TestPrepareSingleflight(t *testing.T) {
	srv := startServer(t, Config{})
	ctx := context.Background()
	sess, err := NewClient(srv.URL).NewSession(ctx, dpe.MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	log := []string{"SELECT a FROM t", "SELECT b FROM t", "SELECT a, b FROM t"}
	if _, err := sess.UploadLog(ctx, log); err != nil {
		t.Fatal(err)
	}
	const racers = 8
	errs := make(chan error, racers)
	for i := 0; i < racers; i++ {
		go func() {
			_, err := sess.DistanceMatrix(ctx, log)
			errs <- err
		}()
	}
	for i := 0; i < racers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	stats, err := sess.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PreparedMisses != 1 {
		t.Errorf("%d concurrent cold calls ran Prepare %d times, want 1 (singleflight)",
			racers, stats.PreparedMisses)
	}
	if stats.PreparedHits != racers-1 {
		t.Errorf("hits = %d, want %d coalesced/cached calls", stats.PreparedHits, racers-1)
	}
}

// TestCacheOutcomesCountOnce checks that the registry counts each
// resolver outcome once, where the session counts it: one cold matrix
// is one prepared miss, and after a scripted mix — a warm matrix, four
// racing first calls on a second log, a logs:append, and a DBSCAN and a
// k-medoids append_mine chain — the registry's prepared-cache and
// mining-state hits and misses equal the sums of its sessions' own.
func TestCacheOutcomesCountOnce(t *testing.T) {
	ctx := context.Background()
	reg := NewRegistry(Config{Shards: 2, JanitorInterval: -1})
	defer reg.Close()
	token := dpe.MeasureToken
	log := clusteredLog()
	var sessions []*session
	upload := func(queries []string) (*session, string) {
		t.Helper()
		s, err := reg.CreateSession(&CreateSessionRequest{Measure: &token})
		if err != nil {
			t.Fatal(err)
		}
		id, err := s.AddLog(queries)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
		return s, id
	}
	a, first := upload(log[:8])
	if _, err := a.Matrix(ctx, first); err != nil {
		t.Fatal(err)
	}
	if pc := reg.Stats().PreparedCache; pc.Hits != 0 || pc.Misses != 1 {
		t.Fatalf("one cold matrix: prepared hits/misses %d/%d, want 0/1", pc.Hits, pc.Misses)
	}

	if _, err := a.Matrix(ctx, first); err != nil {
		t.Fatal(err)
	}
	b, second := upload(log[:10])
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Matrix(ctx, second); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if _, _, _, err := a.Append(ctx, first, log[8:10]); err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		s    *session
		log  string
		spec dpe.MineSpec
	}{
		{b, second, dpe.MineSpec{Algorithm: dpe.MineDBSCAN, Eps: 0.4, MinPts: 2}},
		{a, first, dpe.MineSpec{Algorithm: dpe.MineKMedoids, K: 3}},
	} {
		// Two links, then a repeat of the second: a mining-state hit.
		next, _, _, _, err := run.s.AppendMine(ctx, run.log, log[10:11], run.spec)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, _, _, _, err := run.s.AppendMine(ctx, next, log[11:12], run.spec); err != nil {
				t.Fatal(err)
			}
		}
	}

	var want RegistryStats
	for _, s := range sessions {
		st := s.Stats()
		want.PreparedCache.Hits += st.PreparedHits
		want.PreparedCache.Misses += st.PreparedMisses
		want.MineStateHits += st.MineStateHits
		want.MineStateMisses += st.MineStateMisses
	}
	got := reg.Stats()
	if got.PreparedCache.Hits != want.PreparedCache.Hits || got.PreparedCache.Misses != want.PreparedCache.Misses {
		t.Errorf("prepared_cache hits/misses %d/%d, the sessions' sum %d/%d",
			got.PreparedCache.Hits, got.PreparedCache.Misses, want.PreparedCache.Hits, want.PreparedCache.Misses)
	}
	if got.MineStateHits != want.MineStateHits || got.MineStateMisses != want.MineStateMisses {
		t.Errorf("mine_state hits/misses %d/%d, the sessions' sum %d/%d",
			got.MineStateHits, got.MineStateMisses, want.MineStateHits, want.MineStateMisses)
	}
	if want.PreparedCache.Hits == 0 || want.MineStateHits == 0 {
		t.Errorf("the mix left no hits to compare: %+v", want)
	}
}

// TestSessionLogBudgets checks a tenant cannot grow server memory
// without bound: distinct uploads stop at the per-session entry budget
// (re-uploads of known logs stay free), and oversized logs hit the byte
// budget.
func TestSessionLogBudgets(t *testing.T) {
	srv := startServer(t, Config{MaxLogsPerSession: 2, MaxLogBytesPerSession: 1 << 20})
	ctx := context.Background()
	sess, err := NewClient(srv.URL).NewSession(ctx, dpe.MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	logs := [][]string{
		{"SELECT a FROM t"},
		{"SELECT b FROM t"},
		{"SELECT c FROM t"},
	}
	for i, log := range logs[:2] {
		if _, err := sess.UploadLog(ctx, log); err != nil {
			t.Fatalf("log %d: %v", i, err)
		}
	}
	if _, err := sess.UploadLog(ctx, logs[2]); err == nil || !strings.Contains(err.Error(), "log limit") {
		t.Errorf("third distinct log = %v, want entry-budget error", err)
	}
	// Re-uploading a known log is idempotent, not a new entry.
	if _, err := sess.UploadLog(ctx, logs[0]); err != nil {
		t.Errorf("re-upload of a known log = %v, want success", err)
	}

	tight := startServer(t, Config{MaxLogBytesPerSession: 16})
	sess2, err := NewClient(tight.URL).NewSession(ctx, dpe.MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess2.UploadLog(ctx, []string{"SELECT a, b, c FROM a_rather_long_table_name"}); err == nil || !strings.Contains(err.Error(), "byte budget") {
		t.Errorf("oversized log = %v, want byte-budget error", err)
	}
}

// TestIdleSessionReaping checks that, at capacity, sessions idle past
// the TTL are reaped so new tenants are not locked out forever by
// abandoned ones.
func TestIdleSessionReaping(t *testing.T) {
	reg := NewRegistry(Config{MaxSessions: 1, SessionTTL: time.Nanosecond, JanitorInterval: -1})
	defer reg.Close()
	token := dpe.MeasureToken
	old, err := reg.CreateSession(&CreateSessionRequest{Measure: &token})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond) // let the idle clock pass the 1ns TTL
	fresh, err := reg.CreateSession(&CreateSessionRequest{Measure: &token})
	if err != nil {
		t.Fatalf("create at capacity with a stale session = %v, want reap + success", err)
	}
	if _, err := reg.Session(old.ID()); err == nil {
		t.Error("the idle session should have been reaped")
	}
	if _, err := reg.Session(fresh.ID()); err != nil {
		t.Errorf("the fresh session should be live: %v", err)
	}
}

// TestCacheEviction checks the registry-wide LRU actually bounds
// prepared state: with room for one entry, alternating logs keep
// missing, while a stable log keeps hitting.
func TestCacheEviction(t *testing.T) {
	srv := startServer(t, Config{CacheEntries: 1})
	ctx := context.Background()
	sess, err := NewClient(srv.URL).NewSession(ctx, dpe.MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	logA := []string{"SELECT a FROM t", "SELECT b FROM t"}
	logB := []string{"SELECT c FROM t", "SELECT d FROM t"}
	for i := 0; i < 2; i++ {
		if _, err := sess.DistanceMatrix(ctx, logA); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.DistanceMatrix(ctx, logB); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := sess.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PreparedMisses != 4 {
		t.Errorf("alternating logs with a 1-entry cache: %d misses, want 4 (every call evicted the other)", stats.PreparedMisses)
	}
}
