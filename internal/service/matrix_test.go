package service

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	dpe "repro"
)

// sizedLog returns n distinct token-measure queries.
func sizedLog(n int) []string {
	log := make([]string, n)
	for i := range log {
		log[i] = fmt.Sprintf("SELECT c%d, name FROM t%d WHERE a > %d AND b = 'v%d'", i%11, i%3, i, i%17)
	}
	return log
}

// discardResponse is a ResponseWriter that keeps nothing of the body,
// so what a request allocates is the server's alone.
type discardResponse struct {
	header http.Header
	code   int
}

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardResponse) WriteHeader(code int)        { d.code = code }

// TestMatrixRouteAllocBytes gates a warm /matrix request at n = 256 on
// the server alone: it must allocate under a quarter of the n²·8 bytes
// of the matrix it streams. A server that builds each answer into a
// fresh matrix allocates all of them on every request.
func TestMatrixRouteAllocBytes(t *testing.T) {
	// Drop the spares earlier tests left, so these sequential requests
	// reuse one storage.
	for len(spareMatrices) > 0 {
		<-spareMatrices
	}
	const n = 256
	reg := NewRegistry(Config{Shards: 1, JanitorInterval: -1})
	defer reg.Close()
	h := NewHandler(reg)
	token := dpe.MeasureToken
	s, err := reg.CreateSession(&CreateSessionRequest{Measure: &token})
	if err != nil {
		t.Fatal(err)
	}
	logID, err := s.AddLog(sizedLog(n))
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"log":%q}`, logID)
	serve := func() uint64 {
		req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+s.ID()+"/matrix", strings.NewReader(body))
		w := &discardResponse{header: make(http.Header)}
		got := allocatedBy(func() { h.ServeHTTP(w, req) })
		if w.code != http.StatusOK {
			t.Fatalf("matrix request answered HTTP %d", w.code)
		}
		return got
	}
	serve() // prepares the log and leaves a spare storage behind
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		least = min(least, serve())
	}
	t.Logf("a warm /matrix request at n=%d allocated %d bytes", n, least)
	if bound := uint64(n * n * 8 / 4); least >= bound {
		t.Errorf("a warm /matrix request at n=%d allocated %d bytes, want under %d", n, least, bound)
	}
}

// TestMatrixStorageReuseConcurrent races /matrix requests over logs of
// four lengths, so storage cut for one n is re-cut for another, one log
// being over the spare cap (maxSpareVals entries). Among them run
// requests cancelled mid-build, whose storage goes back holding a
// partial build, and clients that close the body after the first row.
// Every answer read whole must equal an in-process provider's matrix
// bit for bit.
func TestMatrixStorageReuseConcurrent(t *testing.T) {
	ctx := context.Background()
	srv := startServer(t, Config{Shards: 2, Parallelism: 4, JanitorInterval: -1})
	client := NewClient(srv.URL)
	local, err := dpe.NewProvider(dpe.MeasureToken)
	if err != nil {
		t.Fatal(err)
	}
	big := int(math.Sqrt(maxSpareVals)) + 1
	type target struct {
		url, body string
		want      dpe.Matrix
	}
	var targets []target
	for _, n := range []int{5, 37, 130, big} {
		log := sizedLog(n)
		sess, err := client.NewSession(ctx, dpe.MeasureToken)
		if err != nil {
			t.Fatal(err)
		}
		id, err := sess.UploadLog(ctx, log)
		if err != nil {
			t.Fatal(err)
		}
		want, err := local.DistanceMatrix(ctx, log)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, target{url: srv.URL + "/v1/sessions/" + sess.ID() + "/matrix", body: fmt.Sprintf(`{"log":%q}`, id), want: want})
	}
	post := func(ctx context.Context, tg target) (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, tg.url, strings.NewReader(tg.body))
		if err != nil {
			return nil, err
		}
		return http.DefaultClient.Do(req)
	}

	const workers, rounds = 6, 12
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 32))
			for r := 0; r < rounds; r++ {
				// The log over the cap builds slowly under -race; ask for
				// it in one round of three.
				tg := targets[rng.IntN(len(targets)-1)]
				if r%3 == 0 {
					tg = targets[len(targets)-1]
				}
				switch g % 3 {
				case 0: // cancelled mid-build, or before or after it
					cctx, cancel := context.WithCancel(ctx)
					time.AfterFunc(time.Duration(rng.IntN(2000))*time.Microsecond, cancel)
					resp, err := post(cctx, tg)
					if err == nil {
						got, err := ReadMatrix(resp.Body)
						resp.Body.Close()
						if err == nil && !sameBits(got, tg.want) {
							t.Errorf("worker %d: a completed matrix of n=%d differs from the provider's", g, len(tg.want))
						}
					}
					cancel()
				case 1: // hangs up after the first row
					resp, err := post(ctx, tg)
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := bufio.NewReader(resp.Body).ReadString(']'); err != nil {
						t.Errorf("worker %d: reading the first row: %v", g, err)
					}
					resp.Body.Close()
				default:
					resp, err := post(ctx, tg)
					if err != nil {
						t.Error(err)
						return
					}
					got, err := ReadMatrix(resp.Body)
					resp.Body.Close()
					if err != nil {
						t.Errorf("worker %d: %v", g, err)
					} else if !sameBits(got, tg.want) {
						t.Errorf("worker %d: the matrix of n=%d differs from the provider's", g, len(tg.want))
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
