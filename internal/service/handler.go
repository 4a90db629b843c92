package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	dpe "repro"
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
	// counters, and the label delta over the old rows.
	AppendMineResponse struct {
		Log    string          `json:"log"`
		N      int             `json:"n"`
		Offset int             `json:"offset"`
		Rows   [][]float64     `json:"rows,omitempty"`
		Result *WireMineResult `json:"result"`
	}
	// VerifyRequest is the body of POST /v1/sessions/{id}/verify: two
	// distance matrices to check entry-wise (Definition 1).
	VerifyRequest struct {
		Plain [][]float64 `json:"plain"`
		Enc   [][]float64 `json:"enc"`
	}
	// NeighborsResponse answers GET /v1/sessions/{id}/neighbors: the
	// exact top-k neighbors of one query, plus the number of distances
	// the server computed for it (n−1, the full row).
	NeighborsResponse struct {
		Neighbors  []dpe.Neighbor `json:"neighbors"`
		Candidates int            `json:"candidates"`
		N          int            `json:"n"`
	}
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
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	// GET /v1/stats aggregates across shards; ?per_shard=1 (or =true)
	// adds the per-shard breakdown without changing the aggregate
	// fields, so existing consumers keep parsing the same shape. The
	// breakdown and the aggregate come from one snapshot, so they
	// always reconcile.
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		var stats RegistryStats
		switch r.URL.Query().Get("per_shard") {
		case "1", "true":
			stats = reg.StatsPerShard()
		default:
			stats = reg.Stats()
		}
		writeJSON(w, http.StatusOK, stats)
	})
	mux.HandleFunc("POST /v1/sessions", h.createSession)
	mux.HandleFunc("POST /v1/sessions:import", h.importSession)
	mux.HandleFunc("GET /v1/sessions/{id}", h.sessionStats)
	mux.HandleFunc("GET /v1/sessions/{id}/export", h.exportSession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", h.deleteSession)
	mux.HandleFunc("POST /v1/sessions/{id}/logs", h.uploadLog)
	mux.HandleFunc("POST /v1/sessions/{id}/logs:append", h.appendLog)
	mux.HandleFunc("POST /v1/sessions/{id}/logs:append_mine", h.appendMine)
	mux.HandleFunc("POST /v1/sessions/{id}/matrix", h.matrix)
	mux.HandleFunc("POST /v1/sessions/{id}/distances", h.distances)
	mux.HandleFunc("POST /v1/sessions/{id}/mine", h.mine)
	mux.HandleFunc("GET /v1/sessions/{id}/neighbors", h.neighbors)
	mux.HandleFunc("POST /v1/sessions/{id}/verify", h.verify)
	return &instrumented{
		mux:     mux,
		metrics: newHTTPMetrics(opts.Obs),
		logger:  opts.Logger,
		slow:    opts.SlowRequest,
	}
}

type handler struct {
	reg *Registry
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// writeError maps an error to a status: capacity exhaustion is 429,
// unknown sessions/logs are 404, a cancelled request context gets the
// non-standard-but-conventional 499 (the client is gone anyway), and
// everything else — bad artifacts, bad specs, parse failures — is the
// caller's fault (400).
func writeError(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, errTooManySessions):
		status = http.StatusTooManyRequests
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

func decodeBody(r *http.Request, into any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("service: decoding request body: %w", err)
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

func (h *handler) uploadLog(w http.ResponseWriter, r *http.Request) {
	s, err := h.sessionOf(r)
	if err != nil {
		writeError(w, r, err)
		return
	}
	var req UploadLogRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, r, err)
		return
	}
	id, err := s.AddLog(req.Queries)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusCreated, UploadLogResponse{Log: id, Queries: len(req.Queries)})
}

// appendLog is the incremental ingest endpoint: it grows an uploaded
// log in place (content-addressed, so the combined log gets its own id)
// and streams back only the new matrix rows — the expensive O(n²) block
// the client already holds never crosses the wire again.
func (h *handler) appendLog(w http.ResponseWriter, r *http.Request) {
	s, err := h.sessionOf(r)
	if err != nil {
		writeError(w, r, err)
		return
	}
	var req AppendLogRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, r, err)
		return
	}
	combinedID, offset, rows, err := s.Append(r.Context(), req.Log, req.Queries)
	if err != nil {
		writeError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	WriteAppendedRows(w, combinedID, offset+len(rows), offset, rows)
}

// appendMine is the batched append-and-mine endpoint: one round trip
// extends the log, the prepared state, the cached matrix, and the
// mining state, and returns the new rows plus the
// warm-started mining result with its label delta. The mining result's
// full matrix never crosses the wire — the client holds the old block
// and splices the returned rows, exactly like logs:append.
func (h *handler) appendMine(w http.ResponseWriter, r *http.Request) {
	s, err := h.sessionOf(r)
	if err != nil {
		writeError(w, r, err)
		return
	}
	var req AppendMineRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, r, err)
		return
	}
	spec, err := req.Spec.Decode()
	if err != nil {
		writeError(w, r, err)
		return
	}
	combinedID, offset, rows, res, err := s.AppendMine(r.Context(), req.Log, req.Queries, spec)
	if err != nil {
		writeError(w, r, err)
		return
	}
	wireRes := EncodeMineResult(res)
	wireRes.Matrix = nil // the client splices Rows; never reship the block
	writeJSON(w, http.StatusOK, AppendMineResponse{
		Log:    combinedID,
		N:      offset + len(req.Queries),
		Offset: offset,
		Rows:   rows,
		Result: wireRes,
	})
}

func (h *handler) matrix(w http.ResponseWriter, r *http.Request) {
	s, err := h.sessionOf(r)
	if err != nil {
		writeError(w, r, err)
		return
	}
	var req MatrixRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, r, err)
		return
	}
	m, err := s.Matrix(r.Context(), req.Log)
	if err != nil {
		writeError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	WriteMatrix(w, m)
}

func (h *handler) distances(w http.ResponseWriter, r *http.Request) {
	s, err := h.sessionOf(r)
	if err != nil {
		writeError(w, r, err)
		return
	}
	var req DistancesRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, r, err)
		return
	}
	out, err := s.Distances(r.Context(), req.Log, req.Query)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, DistancesResponse{Distances: out})
}

func (h *handler) mine(w http.ResponseWriter, r *http.Request) {
	s, err := h.sessionOf(r)
	if err != nil {
		writeError(w, r, err)
		return
	}
	var req MineRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, r, err)
		return
	}
	spec, err := req.Spec.Decode()
	if err != nil {
		writeError(w, r, err)
		return
	}
	res, err := s.Mine(r.Context(), req.Log, spec)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, EncodeMineResult(res))
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
	writeJSON(w, http.StatusOK, NeighborsResponse{Neighbors: res.Neighbors, Candidates: res.Candidates, N: res.N})
}

func (h *handler) verify(w http.ResponseWriter, r *http.Request) {
	s, err := h.sessionOf(r)
	if err != nil {
		writeError(w, r, err)
		return
	}
	var req VerifyRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, r, err)
		return
	}
	rep, err := s.Verify(dpe.Matrix(req.Plain), dpe.Matrix(req.Enc))
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, EncodePreservationReport(rep))
}
