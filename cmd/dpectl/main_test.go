package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	dpe "repro"
	"repro/internal/service"
)

func TestParseConfigDefaults(t *testing.T) {
	c, err := parseConfig([]string{"gen"})
	if err != nil {
		t.Fatal(err)
	}
	if c.cmd != "gen" || c.seed != "dpectl" || c.master != "dpectl-demo-master" {
		t.Errorf("parsed = %+v", c)
	}
	if c.queries != 20 || c.rows != 80 || c.k != 4 || c.remote != "" {
		t.Errorf("parsed sizes = %+v", c)
	}
	if c.measure != dpe.MeasureToken {
		t.Errorf("measure = %v, want token", c.measure)
	}
	if c.par < 1 {
		t.Errorf("par = %d, want all cores", c.par)
	}
}

func TestParseConfigAllCommands(t *testing.T) {
	for _, cmd := range []string{"gen", "encrypt", "distance", "mine", "neighbors", "verify"} {
		if _, err := parseConfig([]string{cmd}); err != nil {
			t.Errorf("command %q: %v", cmd, err)
		}
	}
}

func TestParseConfigOverrides(t *testing.T) {
	c, err := parseConfig([]string{
		"mine", "-seed", "s1", "-master", "m1", "-queries", "30",
		"-rows", "10", "-measure", "access-area", "-k", "2",
		"-par", "2", "-remote", "http://localhost:8433",
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.seed != "s1" || c.master != "m1" || c.queries != 30 || c.rows != 10 ||
		c.measure != dpe.MeasureAccessArea || c.k != 2 || c.par != 2 ||
		c.remote != "http://localhost:8433" {
		t.Errorf("parsed = %+v", c)
	}
}

// TestParseConfigNeighbors pins the neighbors subcommand's flag
// surface: -query and -k select the search, and -remote points it at a
// dpeserver exactly like the other subcommands.
func TestParseConfigNeighbors(t *testing.T) {
	c, err := parseConfig([]string{
		"neighbors", "-query", "7", "-k", "5", "-measure", "structure",
		"-remote", "http://localhost:8433",
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.cmd != "neighbors" || c.query != 7 || c.k != 5 ||
		c.measure != dpe.MeasureStructure || c.remote != "http://localhost:8433" {
		t.Errorf("parsed = %+v", c)
	}
	// The default query index is the first log entry.
	c, err = parseConfig([]string{"neighbors"})
	if err != nil {
		t.Fatal(err)
	}
	if c.query != 0 {
		t.Errorf("default query = %d, want 0", c.query)
	}
}

// TestParseConfigExportImport pins the bundle subcommands' flag
// surface: both require -remote, export requires -session (with the
// output defaulting to <session>.dpe), and import takes the bundle file
// as its one positional argument.
func TestParseConfigExportImport(t *testing.T) {
	c, err := parseConfig([]string{"export", "-remote", "http://localhost:8433", "-session", "s-abc"})
	if err != nil {
		t.Fatal(err)
	}
	if c.cmd != "export" || c.session != "s-abc" || c.out != "s-abc.dpe" || c.remote != "http://localhost:8433" {
		t.Errorf("parsed = %+v", c)
	}
	c, err = parseConfig([]string{"export", "-remote", "http://h", "-session", "s-abc", "-o", "backup.dpe"})
	if err != nil {
		t.Fatal(err)
	}
	if c.out != "backup.dpe" {
		t.Errorf("out = %q, want backup.dpe", c.out)
	}
	c, err = parseConfig([]string{"import", "-remote", "http://h", "backup.dpe"})
	if err != nil {
		t.Fatal(err)
	}
	if c.cmd != "import" || c.in != "backup.dpe" || c.remote != "http://h" {
		t.Errorf("parsed = %+v", c)
	}
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"export", "-session", "s-abc"}, "-remote"},
		{[]string{"export", "-remote", "http://h"}, "-session"},
		{[]string{"import", "backup.dpe"}, "-remote"},
		{[]string{"import", "-remote", "http://h"}, "bundle"},
		{[]string{"import", "-remote", "http://h", "a.dpe", "b.dpe"}, "bundle"},
	}
	for _, tc := range cases {
		_, err := parseConfig(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseConfig(%v) = %v, want error mentioning %q", tc.args, err, tc.want)
		}
	}
}

func TestParseConfigErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{nil, "missing command"},
		{[]string{"frobnicate"}, "unknown command"},
		{[]string{"gen", "-measure", "bogus"}, "unknown measure"},
		{[]string{"gen", "-queries", "1"}, "-queries"},
		{[]string{"gen", "-rows", "0"}, "-rows"},
		{[]string{"mine", "-k", "0"}, "-k"},
		{[]string{"neighbors", "-k", "0"}, "-k"},
		{[]string{"neighbors", "-query", "-1"}, "-query"},
		{[]string{"neighbors", "-query", "20", "-queries", "20"}, "-query"},
		{[]string{"gen", "-master", ""}, "-master"},
		{[]string{"gen", "-no-such"}, "not defined"},
		{[]string{"gen", "stray"}, "unexpected arguments"},
	}
	for _, tc := range cases {
		_, err := parseConfig(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseConfig(%v) = %v, want error mentioning %q", tc.args, err, tc.want)
		}
	}
}

// sessionPath matches the session id segment of a /v1 path.
var sessionPath = regexp.MustCompile(`^/v1/sessions/[^/]+`)

// TestVerifyRemoteChecksLocally runs dpectl verify -remote against an
// in-process dpeserver that records every request. The server must see
// only the session's creation, the encrypted log and its matrix
// request: no /verify call and no plaintext table name. The owner's
// Definition 1 check must pass.
func TestVerifyRemoteChecksLocally(t *testing.T) {
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
		calls = append(calls, r.Method+" "+sessionPath.ReplaceAllString(r.URL.Path, "/v1/sessions/{id}"))
		bodies = append(bodies, body)
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	c, err := parseConfig([]string{"verify", "-queries", "12", "-remote", srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(c); err != nil {
		t.Fatalf("dpectl verify -remote: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"POST /v1/sessions", "POST /v1/sessions/{id}/logs", "POST /v1/sessions/{id}/matrix"}
	if !slices.Equal(calls, want) {
		t.Errorf("requests = %q, want %q", calls, want)
	}
	for i, body := range bodies {
		for _, table := range []string{"photoobj", "specobj"} {
			if bytes.Contains(body, []byte(table)) {
				t.Errorf("%s carries the plaintext table name %q", calls[i], table)
			}
		}
	}
}
