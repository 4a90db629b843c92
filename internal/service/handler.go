package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	dpe "repro"
	"repro/internal/distance"
)

// maxBodyBytes bounds request bodies (uploaded artifacts can be large —
// an encrypted catalog is the biggest legitimate payload).
const maxBodyBytes = 256 << 20

// API wire bodies not owned by the registry.
type (
	// CreateSessionResponse answers POST /v1/sessions.
	CreateSessionResponse struct {
		Session string      `json:"session"`
		Measure dpe.Measure `json:"measure"`
	}
	// UploadLogRequest is the body of POST /v1/sessions/{id}/logs.
	UploadLogRequest struct {
		Queries []string `json:"queries"`
	}
	// UploadLogResponse answers it with the content-derived log id.
	UploadLogResponse struct {
		Log     string `json:"log"`
		Queries int    `json:"queries"`
	}
	// AppendLogRequest is the body of POST /v1/sessions/{id}/logs:append:
	// the already-uploaded base log plus the queries to append to it.
	AppendLogRequest struct {
		Log     string   `json:"log"`
		Queries []string `json:"queries"`
	}
	// MatrixRequest is the body of POST /v1/sessions/{id}/matrix.
	MatrixRequest struct {
		Log string `json:"log"`
	}
	// DistancesRequest is the body of POST /v1/sessions/{id}/distances.
	DistancesRequest struct {
		Log   string `json:"log"`
		Query int    `json:"query"`
	}
	// DistancesResponse answers it.
	DistancesResponse struct {
		Distances []float64 `json:"distances"`
	}
	// MineRequest is the body of POST /v1/sessions/{id}/mine.
	MineRequest struct {
		Log  string       `json:"log"`
		Spec WireMineSpec `json:"spec"`
	}
	// AppendMineRequest is the body of POST
	// /v1/sessions/{id}/logs:append_mine: one batched request that
	// appends queries to an uploaded base log AND mines the grown log
	// incrementally from the server's cached mining state.
	AppendMineRequest struct {
		Log     string       `json:"log"`
		Queries []string     `json:"queries"`
		Spec    WireMineSpec `json:"spec"`
	}
	// AppendMineResponse answers it: the combined log's id, the new
	// full-width matrix rows (rows Offset..N-1; absent for apriori,
	// which never builds a matrix), and the mining result — whose
	// Incremental field carries the warm/cold disposition, the pair
	// counters, and the label delta over the old rows. The body is
	// this struct's JSON encoding, written and read through the row
	// codec (writeAppendMine, readAppendMine).
	AppendMineResponse struct {
		Log    string          `json:"log"`
		N      int             `json:"n"`
		Offset int             `json:"offset"`
		Rows   [][]float64     `json:"rows,omitempty"`
		Result *dpe.MineResult `json:"result"`
	}
	// NeighborsResponse answers GET /v1/sessions/{id}/neighbors: the
	// exact top-k neighbors of one query, plus the number of distances
	// the server computed for it (n−1, the full row).
	NeighborsResponse = dpe.NeighborsResult
	// errorResponse is every non-2xx body. RequestID carries the same
	// correlation id the X-Request-Id response header does, so an error
	// a client logs can be matched to the server's access log even when
	// the transport stripped the headers.
	errorResponse struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id,omitempty"`
	}
)

// NewHandler exposes a registry as the dpeserver HTTP API under /v1
// with no metrics or logging — NewHandlerWithOptions with a zero
// options struct. Request ids are still assigned and echoed.
func NewHandler(reg *Registry) http.Handler {
	return NewHandlerWithOptions(reg, HandlerOptions{})
}

// NewHandlerWithOptions exposes a registry as the dpeserver HTTP API
// under /v1, wrapped in the request-id/metrics/logging middleware (see
// HandlerOptions). All endpoints honor request-context cancellation: a
// client that goes away aborts its matrix build mid-flight.
func NewHandlerWithOptions(reg *Registry, opts HandlerOptions) http.Handler {
	h := &handler{reg: reg}
	mux := http.NewServeMux()
	labels := make(map[string]string)
	for _, rt := range h.routes() {
		mux.HandleFunc(rt.pattern, rt.serve)
		labels[rt.pattern] = rt.label
	}
	return &instrumented{
		mux:     mux,
		labels:  labels,
		metrics: newHTTPMetrics(opts.Obs, labels),
		logger:  opts.Logger,
		slow:    opts.SlowRequest,
	}
}

// route is one /v1 endpoint: its mux pattern, the short name that
// labels its metrics, and its handler.
type route struct {
	pattern string
	label   string
	serve   http.HandlerFunc
}

// routes is the one list of /v1 endpoints; the mux and the metric
// labels are both built from it.
func (h *handler) routes() []route {
	return []route{
		{"GET /v1/healthz", "healthz", h.healthz},
		{"GET /v1/stats", "stats", h.stats},
		{"POST /v1/sessions", "create_session", h.createSession},
		{"POST /v1/sessions:import", "import_session", h.importSession},
		{"GET /v1/sessions/{id}", "session_stats", h.sessionStats},
		{"GET /v1/sessions/{id}/export", "export_session", h.exportSession},
		{"DELETE /v1/sessions/{id}", "delete_session", h.deleteSession},
		{"POST /v1/sessions/{id}/logs", "upload_log", sessionCall(h.reg, http.StatusCreated, uploadLog)},
		{"POST /v1/sessions/{id}/logs:append", "append_log", sessionCall(h.reg, http.StatusOK, appendLog)},
		{"POST /v1/sessions/{id}/logs:append_mine", "append_mine", sessionCall(h.reg, http.StatusOK, appendMine)},
		{"POST /v1/sessions/{id}/matrix", "matrix", sessionCall(h.reg, http.StatusOK, matrix)},
		{"POST /v1/sessions/{id}/distances", "distances", sessionCall(h.reg, http.StatusOK, distances)},
		{"POST /v1/sessions/{id}/mine", "mine", sessionCall(h.reg, http.StatusOK, mine)},
		{"GET /v1/sessions/{id}/neighbors", "neighbors", h.neighbors},
	}
}

type handler struct {
	reg *Registry
}

func (h *handler) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// stats aggregates across shards; ?per_shard=1 (or =true) adds the
// per-shard breakdown without changing the aggregate fields, so
// existing consumers keep parsing the same shape. The breakdown and the
// aggregate come from one snapshot, so they always reconcile.
func (h *handler) stats(w http.ResponseWriter, r *http.Request) {
	var stats RegistryStats
	switch r.URL.Query().Get("per_shard") {
	case "1", "true":
		stats = h.reg.StatsPerShard()
	default:
		stats = h.reg.Stats()
	}
	writeJSON(w, http.StatusOK, stats)
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// writeError maps an error to a status: capacity exhaustion is 429,
// unknown sessions/logs are 404, a failed durable journal append is 500,
// a cancelled request context gets the non-standard-but-conventional
// 499 (the client is gone anyway), and everything else — bad artifacts,
// bad specs, parse failures — is the caller's fault (400).
func writeError(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, errTooManySessions):
		status = http.StatusTooManyRequests
	case errors.As(err, new(journalError)):
		status = http.StatusInternalServerError
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		if r.Context().Err() != nil {
			status = 499
		}
	default:
		var notFound interface{ NotFound() bool }
		if errors.As(err, &notFound) {
			status = http.StatusNotFound
		}
	}
	writeJSON(w, status, errorResponse{Error: err.Error(), RequestID: RequestIDFromContext(r.Context())})
}

// decodeBody decodes a JSON request body that must hold exactly one
// value: anything after it but whitespace is an error, so a
// concatenated or garbled body is rejected instead of half-read.
func decodeBody(r *http.Request, into any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("service: decoding request body: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return fmt.Errorf("service: request body has data after its JSON value")
	}
	return nil
}

// sessionOf resolves the {id} path segment.
func (h *handler) sessionOf(r *http.Request) (*session, error) {
	return h.reg.Session(r.PathValue("id"))
}

func (h *handler) createSession(w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, r, err)
		return
	}
	s, err := h.reg.CreateSession(&req)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusCreated, CreateSessionResponse{Session: s.ID(), Measure: *req.Measure})
}

// exportSession streams one session's portable bundle — the tenant's
// complete server-side state, CRC-checked, importable into any
// dpeserver regardless of its storage backend.
func (h *handler) exportSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Resolve before writing any bytes: a 404 must stay a 404, not a
	// half-written bundle with an error code stuck at 200.
	if _, err := h.reg.Session(id); err != nil {
		writeError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+".dpe"))
	if err := h.reg.ExportSession(id, w); err != nil {
		// Headers are gone; the truncated body fails the client's CRC
		// check, which is the integrity story working as designed.
		return
	}
}

// importSession restores an exported bundle (raw bytes, not JSON) as a
// live session, preserving its id and warm cached state.
func (h *handler) importSession(w http.ResponseWriter, r *http.Request) {
	res, err := h.reg.ImportSession(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusCreated, res)
}

func (h *handler) sessionStats(w http.ResponseWriter, r *http.Request) {
	s, err := h.sessionOf(r)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

func (h *handler) deleteSession(w http.ResponseWriter, r *http.Request) {
	if err := h.reg.DeleteSession(r.PathValue("id")); err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

// sessionCall adapts a session endpoint with a JSON body of type Req:
// it resolves {id}, decodes the body, runs call, and answers status
// with what call returns, or maps call's error through writeError. A
// rowStream answer is streamed; any other is encoded as JSON.
func sessionCall[Req, Resp any](reg *Registry, status int, call func(context.Context, *session, *Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s, err := reg.Session(r.PathValue("id"))
		var resp Resp
		if err == nil {
			var req Req
			if err = decodeBody(r, &req); err == nil {
				resp, err = call(r.Context(), s, &req)
			}
		}
		if err != nil {
			writeError(w, r, err)
			return
		}
		stream, ok := any(resp).(rowStream)
		if !ok {
			writeJSON(w, status, resp)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		// The status is out, so a failed write can only cut the body
		// short, which the client's row reader rejects.
		_ = stream(w)
	}
}

// rowStream is an answer written row by row with WriteMatrix,
// WriteAppendedRows or writeAppendMine instead of being encoded whole.
type rowStream func(io.Writer) error

func uploadLog(_ context.Context, s *session, req *UploadLogRequest) (*UploadLogResponse, error) {
	id, err := s.AddLog(req.Queries)
	if err != nil {
		return nil, err
	}
	return &UploadLogResponse{Log: id, Queries: len(req.Queries)}, nil
}

// appendLog is the incremental ingest endpoint: it grows an uploaded
// log in place (content-addressed, so the combined log gets its own id)
// and streams back only the new matrix rows — the expensive O(n²) block
// the client already holds never crosses the wire again.
func appendLog(ctx context.Context, s *session, req *AppendLogRequest) (rowStream, error) {
	combinedID, offset, rows, err := s.Append(ctx, req.Log, req.Queries)
	if err != nil {
		return nil, err
	}
	return func(w io.Writer) error {
		return WriteAppendedRows(w, combinedID, offset+len(rows), offset, rows)
	}, nil
}

// appendMine is the batched append-and-mine endpoint: one round trip
// extends the log, the prepared state, the cached matrix, and the
// mining state, and streams back the new rows plus the
// warm-started mining result with its label delta. The mining result's
// full matrix never crosses the wire — the client holds the old block
// and grows it by the returned rows, exactly like logs:append.
func appendMine(ctx context.Context, s *session, req *AppendMineRequest) (rowStream, error) {
	spec, err := req.Spec.Decode()
	if err != nil {
		return nil, err
	}
	combinedID, offset, rows, res, err := s.AppendMine(ctx, req.Log, req.Queries, spec)
	if err != nil {
		return nil, err
	}
	res = EncodeMineResult(res)
	res.Matrix = nil // the client grows its own matrix; never reship the block
	return func(w io.Writer) error {
		return writeAppendMine(w, combinedID, offset+len(req.Queries), offset, rows, res)
	}, nil
}

// matrix builds the log's matrix into spare storage before the status
// goes out, and gives the storage back once the stream's last write has
// returned, or at once when the build fails. The build's workers have
// stopped by then (DistanceMatrixPreparedInto), and WriteMatrix formats
// each row into its own buffer, so no request sees another's entries.
func matrix(ctx context.Context, s *session, req *MatrixRequest) (rowStream, error) {
	st := getMatrixStore()
	m, err := s.matrixInto(ctx, req.Log, st.cut)
	if err != nil {
		st.release()
		return nil, err
	}
	return func(w io.Writer) error {
		defer st.release()
		return WriteMatrix(w, m)
	}, nil
}

// spareMatrices keeps the storage of served matrices between /matrix
// requests, so a warm one allocates no n×n array on the server. It
// holds four, for the reason spareRowReaders gives, and so pins at most
// 16 MiB: each keeps at most maxSpareVals entries.
var spareMatrices = make(chan *matrixStore, 4)

// matrixStore is the storage of one served matrix: a flat backing array
// and a row list, re-cut for each n whose n² entries fit maxSpareVals.
type matrixStore struct {
	vals []float64
	rows dpe.Matrix
}

func getMatrixStore() *matrixStore {
	select {
	case st := <-spareMatrices:
		return st
	default:
		return new(matrixStore)
	}
}

func (st *matrixStore) release() {
	select {
	case spareMatrices <- st:
	default:
	}
}

// cut returns an n×n matrix over the store's storage, growing it when
// n needs more. Its entries are whatever the last request left; the
// build overwrites them all. A matrix of more than maxSpareVals entries
// gets storage of its own, which the store does not keep.
func (st *matrixStore) cut(n int) dpe.Matrix {
	if n*n > maxSpareVals {
		return distance.NewMatrix(n)
	}
	if cap(st.vals) < n*n {
		st.vals = make([]float64, n*n)
	}
	if cap(st.rows) < n {
		st.rows = make(dpe.Matrix, n)
	}
	m := st.rows[:n]
	for i := range m {
		m[i] = st.vals[i*n : (i+1)*n : (i+1)*n]
	}
	return m
}

func distances(ctx context.Context, s *session, req *DistancesRequest) (*DistancesResponse, error) {
	out, err := s.Distances(ctx, req.Log, req.Query)
	if err != nil {
		return nil, err
	}
	return &DistancesResponse{Distances: out}, nil
}

func mine(ctx context.Context, s *session, req *MineRequest) (*dpe.MineResult, error) {
	spec, err := req.Spec.Decode()
	if err != nil {
		return nil, err
	}
	return s.Mine(ctx, req.Log, spec)
}

// neighbors serves the top-K API: GET with query parameters log
// (required, server-side log id), query (required, row index) and k
// (optional, default 10; any larger k returns all n−1 entries). The
// response never includes the matrix row — only the k closest entries
// and the candidate count.
func (h *handler) neighbors(w http.ResponseWriter, r *http.Request) {
	s, err := h.sessionOf(r)
	if err != nil {
		writeError(w, r, err)
		return
	}
	qp := r.URL.Query()
	logID := qp.Get("log")
	if logID == "" {
		writeError(w, r, fmt.Errorf("service: neighbors needs a log query parameter"))
		return
	}
	q, err := strconv.Atoi(qp.Get("query"))
	if err != nil {
		writeError(w, r, fmt.Errorf("service: neighbors needs an integer query parameter: %w", err))
		return
	}
	k := 10
	if raw := qp.Get("k"); raw != "" {
		if k, err = strconv.Atoi(raw); err != nil {
			writeError(w, r, fmt.Errorf("service: neighbors k parameter: %w", err))
			return
		}
	}
	res, err := s.Neighbors(r.Context(), logID, q, k)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}
