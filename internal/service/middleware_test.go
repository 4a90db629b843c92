package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	dpe "repro"
	"repro/internal/obs"
)

// scrape renders an obs registry and parses every sample line into a
// map from "name{labels}" (or bare "name") to value — a deliberately
// tiny exposition parser so these tests exercise the same text a real
// Prometheus scrape would read.
func scrape(t *testing.T, o *obs.Registry) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if _, err := o.WriteTo(&sb); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("scrape: unparseable line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("scrape: bad value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// startInstrumentedServer is startServer with an obs registry attached
// to both the service registry and the HTTP middleware.
func startInstrumentedServer(t *testing.T, cfg Config) (*httptest.Server, *obs.Registry) {
	t.Helper()
	o := obs.NewRegistry()
	cfg.Obs = o
	reg := NewRegistry(cfg)
	t.Cleanup(reg.Close)
	srv := httptest.NewServer(NewHandlerWithOptions(reg, HandlerOptions{Obs: o}))
	t.Cleanup(srv.Close)
	return srv, o
}

func TestRequestIDAssignAndPassthrough(t *testing.T) {
	srv := startServer(t, Config{})
	hexID := regexp.MustCompile(`^[0-9a-f]{16}$`)

	get := func(t *testing.T, sendID string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		if sendID != "" {
			req.Header.Set(RequestIDHeader, sendID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	t.Run("generated", func(t *testing.T) {
		id := get(t, "").Header.Get(RequestIDHeader)
		if !hexID.MatchString(id) {
			t.Errorf("generated request id %q, want 16 hex chars", id)
		}
	})
	t.Run("passthrough", func(t *testing.T) {
		want := "proxy-abc.123_XYZ"
		if id := get(t, want).Header.Get(RequestIDHeader); id != want {
			t.Errorf("request id %q, want the incoming %q echoed", id, want)
		}
	})
	t.Run("invalid replaced", func(t *testing.T) {
		for _, bad := range []string{"has space", "quote\"", strings.Repeat("x", 65), "semi;colon"} {
			id := get(t, bad).Header.Get(RequestIDHeader)
			if id == bad || !hexID.MatchString(id) {
				t.Errorf("malformed incoming id %q became %q, want a fresh hex id", bad, id)
			}
		}
	})
}

func TestErrorBodyCarriesRequestID(t *testing.T) {
	srv := startServer(t, Config{})
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/sessions/nope", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(RequestIDHeader, "err-corr-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Error == "" {
		t.Error("error body has no error message")
	}
	if e.RequestID != "err-corr-1" {
		t.Errorf("error body request_id = %q, want %q", e.RequestID, "err-corr-1")
	}
}

func TestClientErrorIncludesRequestID(t *testing.T) {
	srv := startServer(t, Config{})
	c := NewClient(srv.URL)
	err := c.do(context.Background(), http.MethodGet, "/v1/sessions/nope", nil, nil)
	if err == nil {
		t.Fatal("expected an error for an unknown session")
	}
	msg := err.Error()
	if !strings.Contains(msg, "HTTP 404") {
		t.Errorf("error %q does not name the status", msg)
	}
	if !regexp.MustCompile(`request [0-9a-f]{16}\)$`).MatchString(msg) {
		t.Errorf("error %q does not carry the request id", msg)
	}
}

func TestRouteHistogramCounts(t *testing.T) {
	srv, o := startInstrumentedServer(t, Config{})

	// A scripted mix: 3 health checks, 2 stats reads, 1 miss, and a
	// session whose retired verify route is a second miss.
	for i := 0; i < 3; i++ {
		mustGet(t, srv.URL+"/v1/healthz", http.StatusOK)
	}
	for i := 0; i < 2; i++ {
		mustGet(t, srv.URL+"/v1/stats", http.StatusOK)
	}
	mustGet(t, srv.URL+"/v1/nosuch", http.StatusNotFound)
	sess, err := NewClient(srv.URL).NewSession(context.Background(), dpe.MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/sessions/"+sess.ID()+"/verify", "application/json",
		strings.NewReader(`{"plain":[[0]],"enc":[[0]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /v1/sessions/{id}/verify = %d, want 404", resp.StatusCode)
	}

	m := scrape(t, o)
	for key, want := range map[string]float64{
		`dpe_http_request_duration_seconds_count{route="healthz"}`:        3,
		`dpe_http_request_duration_seconds_count{route="stats"}`:          2,
		`dpe_http_request_duration_seconds_count{route="create_session"}`: 1,
		`dpe_http_request_duration_seconds_count{route="unmatched"}`:      2,
		`dpe_http_request_duration_seconds_count{route="verify"}`:         0,
		`dpe_http_requests_total{code="200",route="healthz"}`:             3,
		`dpe_http_requests_total{code="200",route="stats"}`:               2,
		`dpe_http_requests_total{code="201",route="create_session"}`:      1,
		`dpe_http_requests_total{code="404",route="unmatched"}`:           2,
		`dpe_http_inflight_requests`:                                      0,
	} {
		// A missing key would also read 0.
		if got, ok := m[key]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", key, got, ok, want)
		}
	}
	// Cumulative buckets: the +Inf-implied total must equal the count.
	if sum, count := m[`dpe_http_request_duration_seconds_sum{route="healthz"}`], m[`dpe_http_request_duration_seconds_count{route="healthz"}`]; sum < 0 || count != 3 {
		t.Errorf("healthz histogram sum=%v count=%v", sum, count)
	}
}

func mustGet(t *testing.T, url string, wantStatus int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, wantStatus)
	}
}

// churn drives one tenant through a create → upload → cold matrix →
// warm matrix → delete cycle over the wire; the plaintext token measure
// keeps it cheap enough to hammer concurrently.
func churn(ctx context.Context, c *Client, queries []string) error {
	sess, err := c.NewSession(ctx, dpe.MeasureToken)
	if err != nil {
		return err
	}
	m, err := sess.DistanceMatrix(ctx, queries)
	if err != nil {
		return err
	}
	if _, err := sess.DistanceMatrix(ctx, queries); err != nil {
		return err
	}
	// One cold append_mine (mining-state miss) and one identical warm
	// repeat (hit), so the mine-state counters see traffic from every
	// worker.
	spec := dpe.MineSpec{Algorithm: dpe.MineDBSCAN, Eps: 0.4, MinPts: 2}
	tail := []string{"SELECT mined FROM churn"}
	if _, _, err := sess.AppendMine(ctx, m, queries, tail, spec); err != nil {
		return err
	}
	if _, _, err := sess.AppendMine(ctx, m, queries, tail, spec); err != nil {
		return err
	}
	return sess.Close(ctx)
}

func churnLog(i int) []string {
	return []string{
		fmt.Sprintf("SELECT a FROM t%d WHERE x = %d", i%7, i),
		fmt.Sprintf("SELECT b FROM t%d WHERE y > %d", i%5, i),
		"SELECT c FROM shared WHERE z < 3",
	}
}

// TestStatsAndMetricsAgree is the satellite-1 regression: after
// concurrent traffic quiesces, the cache counters on GET /v1/stats and
// the dpe_cache_* series on the metrics scrape must be the same
// numbers — both read the one set of shard-cache counters, and this
// test is what keeps a second bookkeeping path from creeping in.
func TestStatsAndMetricsAgree(t *testing.T) {
	srv, o := startInstrumentedServer(t, Config{})
	c := NewClient(srv.URL)
	ctx := context.Background()

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if err := churn(ctx, c, churnLog(w*100+i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats RegistryStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	m := scrape(t, o)
	for key, want := range map[string]float64{
		`dpe_cache_hits_total`:                      float64(stats.PreparedCache.Hits),
		`dpe_cache_misses_total`:                    float64(stats.PreparedCache.Misses),
		`dpe_cache_entries`:                         float64(stats.PreparedCache.Entries),
		`dpe_cache_bytes`:                           float64(stats.PreparedCache.Bytes),
		`dpe_cache_evictions_total{cause="budget"}`: float64(stats.PreparedCache.Evictions),
		`dpe_sessions`:                              float64(stats.Sessions),
		`dpe_mine_state_hits_total`:                 float64(stats.MineStateHits),
		`dpe_mine_state_misses_total`:               float64(stats.MineStateMisses),
	} {
		if got := m[key]; got != want {
			t.Errorf("%s = %v, want %v (the /v1/stats value)", key, got, want)
		}
	}
	// The traffic itself must have registered: every worker's cold
	// matrix is a miss, every warm one a hit.
	if m[`dpe_cache_misses_total`] == 0 || m[`dpe_cache_hits_total`] == 0 {
		t.Errorf("traffic left no cache counters: hits=%v misses=%v",
			m[`dpe_cache_hits_total`], m[`dpe_cache_misses_total`])
	}
	// Likewise every worker's cold append_mine is a mining-state miss
	// and its warm repeat a hit — the counters survive the sessions
	// that minted them because the registry totals are the one source
	// both surfaces read.
	if m[`dpe_mine_state_misses_total`] != workers*4 || m[`dpe_mine_state_hits_total`] != workers*4 {
		t.Errorf("mine-state counters: hits=%v misses=%v, want %v each",
			m[`dpe_mine_state_hits_total`], m[`dpe_mine_state_misses_total`], workers*4)
	}
	if got := m[`dpe_sessions_created_total`]; got != workers*4 {
		t.Errorf("dpe_sessions_created_total = %v, want %v", got, workers*4)
	}
	if got := m[`dpe_sessions_deleted_total`]; got != workers*4 {
		t.Errorf("dpe_sessions_deleted_total = %v, want %v", got, workers*4)
	}
}

// TestMetricsScrapeUnderChurn polls the exposition endpoint while
// tenants churn — run under -race in CI, it is the check that scraping
// never tears or locks against serving traffic.
func TestMetricsScrapeUnderChurn(t *testing.T) {
	srv, o := startInstrumentedServer(t, Config{})
	metricsSrv := httptest.NewServer(o.Handler())
	t.Cleanup(metricsSrv.Close)
	c := NewClient(srv.URL)
	ctx := context.Background()

	done := make(chan struct{})
	var scrapeErr error
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			resp, err := http.Get(metricsSrv.URL + "/metrics")
			if err != nil {
				scrapeErr = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				scrapeErr = fmt.Errorf("scrape status %d", resp.StatusCode)
				resp.Body.Close()
				return
			}
			resp.Body.Close()
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if err := churn(ctx, c, churnLog(w*10+i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	<-done
	if scrapeErr != nil {
		t.Fatal(scrapeErr)
	}
}

// TestMetricRegistryNoDuplicates is the duplicate-registration lint:
// wiring two service registries onto one obs registry must panic on the
// first name collision instead of silently double-counting. (The obs
// package panics on any name registered twice with a conflicting or
// func-backed cell — this asserts the service wiring actually trips it.)
func TestMetricRegistryNoDuplicates(t *testing.T) {
	o := obs.NewRegistry()
	reg := NewRegistry(Config{Obs: o})
	t.Cleanup(reg.Close)

	defer func() {
		if recover() == nil {
			t.Fatal("wiring a second registry onto the same obs registry did not panic")
		}
	}()
	reg2 := NewRegistry(Config{Obs: o})
	reg2.Close()
}

// TestStageNamesRegistered drives every provider stage through a
// recording observer: each name the provider emits must be
// pre-registered in stageNames (a missing one drops its samples), and
// every registered name but the retired approx_index must be emitted.
func TestStageNamesRegistered(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]bool{}
	p, err := dpe.NewProvider(dpe.MeasureToken, dpe.WithStageObserver(func(_ context.Context, stage string, _ time.Duration) {
		mu.Lock()
		seen[stage] = true
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	log := []string{
		"SELECT a FROM t WHERE b = 1",
		"SELECT a, c FROM t",
		"SELECT d FROM u WHERE e > 2",
		"SELECT a FROM t WHERE b = 3",
	}
	pl, err := p.Prepare(ctx, log[:3])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.DistanceMatrixPrepared(ctx, pl); err != nil {
		t.Fatal(err)
	}
	grown, err := p.ExtendPrepared(ctx, pl, log[3:])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AppendRowsPrepared(ctx, 3, grown); err != nil {
		t.Fatal(err)
	}
	if _, err := p.NeighborsPrepared(ctx, grown, 0, 2); err != nil {
		t.Fatal(err)
	}
	spec := dpe.MineSpec{Algorithm: dpe.MineDBSCAN, Eps: 0.5, MinPts: 2}
	if _, err := p.MinePrepared(ctx, pl, spec); err != nil {
		t.Fatal(err)
	}
	_, state, err := p.MineIncremental(ctx, pl, nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res, _, err := p.MineIncremental(ctx, grown, state, spec); err != nil || !res.Incremental.Warm {
		t.Fatalf("warm MineIncremental: %+v, %v", res, err)
	}

	registered := map[string]bool{}
	for _, name := range stageNames {
		registered[name] = true
		if !seen[name] && name != "approx_index" {
			t.Errorf("registered stage %q was never emitted", name)
		}
	}
	for name := range seen {
		if !registered[name] {
			t.Errorf("emitted stage %q is not in stageNames", name)
		}
	}
}
