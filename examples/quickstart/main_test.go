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
// name the plaintext table: the owner mines and checks its plaintext
// log in-process.
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

	flag.CommandLine = flag.NewFlagSet("quickstart", flag.ExitOnError)
	os.Args = []string{"quickstart", "-remote", srv.URL}
	main()
	mu.Lock()
	defer mu.Unlock()
	for i, body := range bodies {
		if bytes.Contains(body, []byte("patients")) {
			t.Errorf("%s carries the plaintext table name %q", calls[i], "patients")
		}
	}
}
