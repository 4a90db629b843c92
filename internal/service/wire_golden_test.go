package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	dpe "repro"
)

// goldenWirePath holds the /v1 response bodies TestWireGolden pins.
var goldenWirePath = filepath.Join("testdata", "wire_golden.txt")

// TestWireGolden pins the /v1 response bodies byte for byte: /mine and
// logs:append_mine (cold with an empty tail, then warm) for all six
// algorithms, plus neighbors, distances, matrix, logs:append, a 400
// and a 404. It drives a registry through the handler with fixed
// request ids; the random session id is replaced by {id}.
// RUN_GEN_FIXTURES=1 rewrites the golden file instead of comparing
// against it.
func TestWireGolden(t *testing.T) {
	reg := NewRegistry(Config{Shards: 1, Parallelism: 1})
	t.Cleanup(reg.Close)
	h := NewHandler(reg)

	var transcript bytes.Buffer
	sessionID := "{id}" // until the session exists
	calls := 0
	call := func(name, method, path string, body any) []byte {
		t.Helper()
		var payload []byte
		if body != nil {
			var err error
			if payload, err = json.Marshal(body); err != nil {
				t.Fatal(err)
			}
		}
		req := httptest.NewRequest(method, strings.ReplaceAll(path, "{id}", sessionID), bytes.NewReader(payload))
		req.Header.Set(RequestIDHeader, fmt.Sprintf("golden-%02d", calls))
		calls++
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		fmt.Fprintf(&transcript, "--- %s: %s %s -> %d, %d bytes\n%s\n", name, method, path, rec.Code, rec.Body.Len(), rec.Body.Bytes())
		return rec.Body.Bytes()
	}

	var created CreateSessionResponse
	if err := json.Unmarshal(call("create_session", http.MethodPost, "/v1/sessions",
		map[string]string{"measure": "token"}), &created); err != nil {
		t.Fatal(err)
	}
	sessionID = created.Session

	log := clusteredLog()
	tail := []string{
		"SELECT name, age, city FROM users WHERE age > 70",
		"SELECT count(id) FROM orders GROUP BY country",
		"SELECT id FROM audit",
	}
	var uploaded UploadLogResponse
	if err := json.Unmarshal(call("upload_log", http.MethodPost, "/v1/sessions/{id}/logs",
		UploadLogRequest{Queries: log}), &uploaded); err != nil {
		t.Fatal(err)
	}
	logID := uploaded.Log

	call("matrix", http.MethodPost, "/v1/sessions/{id}/matrix", MatrixRequest{Log: logID})
	call("distances", http.MethodPost, "/v1/sessions/{id}/distances", DistancesRequest{Log: logID, Query: 4})
	call("neighbors", http.MethodGet, "/v1/sessions/{id}/neighbors?log="+logID+"&query=1&k=4", nil)

	specs := []dpe.MineSpec{
		{Algorithm: dpe.MineKMedoids, K: 3},
		{Algorithm: dpe.MineDBSCAN, Eps: 0.45, MinPts: 2},
		{Algorithm: dpe.MineCompleteLink, K: 3},
		{Algorithm: dpe.MineOutliers, P: 0.7, D: 0.7},
		{Algorithm: dpe.MineKNN, K: 3, Query: 5},
		{Algorithm: dpe.MineApriori, MinSupport: 4, MaxLen: 3},
	}
	for _, spec := range specs {
		name := spec.Algorithm.String()
		call("mine "+name, http.MethodPost, "/v1/sessions/{id}/mine",
			MineRequest{Log: logID, Spec: EncodeMineSpec(spec)})
		call("append_mine cold "+name, http.MethodPost, "/v1/sessions/{id}/logs:append_mine",
			AppendMineRequest{Log: logID, Spec: EncodeMineSpec(spec)})
		call("append_mine warm "+name, http.MethodPost, "/v1/sessions/{id}/logs:append_mine",
			AppendMineRequest{Log: logID, Queries: tail, Spec: EncodeMineSpec(spec)})
	}
	call("append", http.MethodPost, "/v1/sessions/{id}/logs:append",
		AppendLogRequest{Log: logID, Queries: tail[:1]})
	call("mine without algorithm", http.MethodPost, "/v1/sessions/{id}/mine",
		map[string]any{"log": logID, "spec": map[string]int{"k": 3}})
	call("mine unknown session", http.MethodPost, "/v1/sessions/s-unknown/mine",
		MineRequest{Log: logID, Spec: EncodeMineSpec(specs[0])})

	got := bytes.ReplaceAll(transcript.Bytes(), []byte(sessionID), []byte("{id}"))
	if os.Getenv("RUN_GEN_FIXTURES") != "" {
		if err := os.WriteFile(goldenWirePath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenWirePath, len(got))
		return
	}
	want, err := os.ReadFile(goldenWirePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("/v1 bodies differ from %s at line %d:\n got: %s\nwant: %s", goldenWirePath, i+1, g, w)
			}
		}
	}
}

// goldenAppendMineBodies returns the logs:append_mine bodies
// TestWireGolden pins, six algorithms cold and warm, with their call
// names.
func goldenAppendMineBodies(tb testing.TB) (names []string, bodies [][]byte) {
	tb.Helper()
	data, err := os.ReadFile(goldenWirePath)
	if err != nil {
		tb.Fatal(err)
	}
	for len(data) > 0 {
		var line []byte
		line, data, _ = bytes.Cut(data, []byte("\n"))
		name, call, ok := bytes.Cut(line, []byte(": "))
		if !ok || !bytes.HasPrefix(name, []byte("--- append_mine ")) {
			continue
		}
		var code, size int
		if _, err := fmt.Sscanf(string(call[bytes.LastIndex(call, []byte("->")):]), "-> %d, %d bytes", &code, &size); err != nil || size > len(data) {
			tb.Fatalf("%s: unreadable header %q", goldenWirePath, line)
		}
		names = append(names, string(name[len("--- "):]))
		bodies = append(bodies, data[:size])
		data = data[size:]
	}
	return names, bodies
}

// TestReadAppendMineMatchesJSON decodes each pinned append_mine body
// with the row codec's reader and with encoding/json: the two must
// agree, writeAppendMine must re-encode the decoded response to the
// same bytes, the body must decode one byte at a time too, and
// truncations short of the trailing newline must fail.
func TestReadAppendMineMatchesJSON(t *testing.T) {
	names, bodies := goldenAppendMineBodies(t)
	if len(bodies) != 12 {
		t.Fatalf("%s holds %d append_mine bodies, want 12", goldenWirePath, len(bodies))
	}
	for i, body := range bodies {
		var want AppendMineResponse
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		for _, r := range []io.Reader{bytes.NewReader(body), iotest.OneByteReader(bytes.NewReader(body))} {
			got, err := readAppendMine(r)
			if err != nil {
				t.Fatalf("%s: %v", names[i], err)
			}
			if !reflect.DeepEqual(got, &want) {
				t.Fatalf("%s decodes to %+v, encoding/json to %+v", names[i], got, &want)
			}
		}
		var again bytes.Buffer
		if err := writeAppendMine(&again, want.Log, want.N, want.Offset, want.Rows, want.Result); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), body) {
			t.Fatalf("%s re-encodes to\n%s\nwant\n%s", names[i], again.Bytes(), body)
		}
		// Every truncation of the short bodies, about 1000 of each long
		// one's.
		for k := 0; k < len(body)-1; k += 1 + len(body)/1024 {
			if got, err := readAppendMine(bytes.NewReader(body[:k])); err == nil {
				t.Fatalf("%s truncated to %d of %d bytes decodes to %+v, want an error", names[i], k, len(body), got)
			}
		}
	}
}
