package main

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"

	"repro/internal/service"
)

// TestRemoteSendsNoPlaintext runs the example with -remote against an
// in-process dpeserver that records every request body. No body may
// name a plaintext table: the owner builds its plaintext matrix and
// checks Definition 1 in-process.
func TestRemoteSendsNoPlaintext(t *testing.T) {
	reg := service.NewRegistry(service.Config{})
	t.Cleanup(reg.Close)
	h := service.NewHandler(reg)
	var (
		mu     sync.Mutex
		calls  []string
		bodies [][]byte
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		mu.Lock()
		calls = append(calls, r.Method+" "+r.URL.Path)
		bodies = append(bodies, body)
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	flag.CommandLine = flag.NewFlagSet("log_clustering", flag.ExitOnError)
	os.Args = []string{"log_clustering", "-remote", srv.URL}
	main()
	mu.Lock()
	defer mu.Unlock()
	for i, body := range bodies {
		for _, table := range []string{"photoobj", "specobj"} {
			if bytes.Contains(body, []byte(table)) {
				t.Errorf("%s carries the plaintext table name %q", calls[i], table)
			}
		}
	}
}
