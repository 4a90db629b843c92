package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"

	dpe "repro"
)

// Client speaks the dpeserver wire protocol. It is safe for concurrent
// use; one Client can hold any number of sessions.
type Client struct {
	base string
	hc   *http.Client
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithHTTPClient substitutes the transport (timeouts, proxies, test
// doubles). The default is http.DefaultClient.
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// NewClient creates a client for a dpeserver base URL, e.g.
// "http://localhost:8433".
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: http.DefaultClient}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// SessionOption attaches shared artifacts to session creation — the
// wire-format mirror of dpe's ProviderOption. Artifacts are encoded
// eagerly so encoding errors surface at option-build time.
type SessionOption struct {
	apply func(*CreateSessionRequest)
	err   error
}

// WithCatalog ships the (encrypted) database contents, the DB-Content
// shared information of the result measure. For encrypted content pass
// the owner's ResultAggregatorKey; for plaintext pass nil.
func WithCatalog(cat *dpe.Catalog, key *dpe.AggregatorKey) SessionOption {
	wc, err := EncodeCatalog(cat)
	if err != nil {
		return SessionOption{err: err}
	}
	var wk *WireAggregatorKey
	if key != nil {
		wk = EncodeAggregatorKey(key)
	}
	return SessionOption{apply: func(req *CreateSessionRequest) {
		req.Catalog, req.AggregatorKey = wc, wk
	}}
}

// WithDomains ships the (encrypted) attribute domains, the Domains
// shared information of the access-area measure.
func WithDomains(domains map[string]dpe.Domain) SessionOption {
	wd, err := EncodeDomains(domains)
	if err != nil {
		return SessionOption{err: err}
	}
	return SessionOption{apply: func(req *CreateSessionRequest) { req.Domains = wd }}
}

// WithAccessAreaX sets Definition 5's partial-overlap value x ∈ (0,1).
func WithAccessAreaX(x float64) SessionOption {
	return SessionOption{apply: func(req *CreateSessionRequest) { req.AccessAreaX = x }}
}

// BuildCreateSessionRequest assembles the wire body of POST
// /v1/sessions from a measure and session options — the same request
// Client.NewSession sends, exposed so in-process callers (tests, the
// benchmark harness) can drive Registry.CreateSession through the
// identical encode path.
func BuildCreateSessionRequest(m dpe.Measure, opts ...SessionOption) (*CreateSessionRequest, error) {
	req := &CreateSessionRequest{Measure: &m}
	for _, opt := range opts {
		if opt.err != nil {
			return nil, opt.err
		}
		opt.apply(req)
	}
	return req, nil
}

// NewSession creates a provider session on the server from a measure
// plus shared artifacts and returns the handle for it. The returned
// Session implements dpe.ProviderAPI: code written against that
// interface cannot tell it from an in-process *dpe.Provider (the
// results are entry-wise identical — that is the wire format's
// preservation property).
func (c *Client) NewSession(ctx context.Context, m dpe.Measure, opts ...SessionOption) (*Session, error) {
	req, err := BuildCreateSessionRequest(m, opts...)
	if err != nil {
		return nil, err
	}
	var resp CreateSessionResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sessions", req, &resp); err != nil {
		return nil, err
	}
	return &Session{c: c, id: resp.Session, measure: m, logIDs: make(map[string]string)}, nil
}

// do sends one JSON request and decodes the JSON response into out
// (nil means discard).
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	body, err := c.doStream(ctx, method, path, in)
	if err != nil {
		return err
	}
	defer body.Close()
	if out == nil {
		_, err = io.Copy(io.Discard, body)
	} else {
		err = decodeJSON(body, out)
	}
	if err != nil {
		return fmt.Errorf("service: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// decodeJSON reads r to EOF and decodes the JSON value it holds into
// out; json.Unmarshal rejects anything but whitespace after the value.
// A response body read to EOF lets the transport reuse its connection;
// one closed short, such as a chunked body, whose last chunk follows
// the value, is dropped with it. The body lands in a spare row reader's
// scratch, so a call allocates no read buffer.
func decodeJSON(r io.Reader, out any) error {
	d := getRowReader(r)
	defer d.release()
	raw, err := d.all()
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

// doStream sends one JSON request and hands back the raw response body
// for streaming decoders (the matrix endpoint). The caller closes it.
func (c *Client) doStream(ctx context.Context, method, path string, in any) (io.ReadCloser, error) {
	var body io.Reader
	contentType := ""
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(b)
		contentType = "application/json"
	}
	return c.doRaw(ctx, method, path, body, contentType)
}

// doRaw sends one request with an arbitrary body (nil for none) and
// hands back the raw response body on 2xx, mapping error responses the
// same way for every call. The caller closes the returned body.
func (c *Client) doRaw(ctx context.Context, method, path string, body io.Reader, contentType string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	// Mint a correlation id client-side so a failed call can be chased
	// through the server's access log; the server honors it verbatim.
	req.Header.Set(RequestIDHeader, newRequestID())
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		var e errorResponse
		if decodeJSON(io.LimitReader(resp.Body, 1<<20), &e) == nil && e.Error != "" {
			if id := errorRequestID(&e, resp); id != "" {
				return nil, fmt.Errorf("service: %s %s: %s (HTTP %d, request %s)", method, path, e.Error, resp.StatusCode, id)
			}
			return nil, fmt.Errorf("service: %s %s: %s (HTTP %d)", method, path, e.Error, resp.StatusCode)
		}
		if id := resp.Header.Get(RequestIDHeader); id != "" {
			return nil, fmt.Errorf("service: %s %s: HTTP %d (request %s)", method, path, resp.StatusCode, id)
		}
		return nil, fmt.Errorf("service: %s %s: HTTP %d", method, path, resp.StatusCode)
	}
	return resp.Body, nil
}

// ExportSession downloads session id's portable bundle into w — the
// tenant's complete server-side state, restorable with ImportSession on
// any dpeserver regardless of storage backend. The bundle's trailing
// checksum is verified at import time, so a connection torn mid-export
// produces a file the importer rejects, never a half-restored tenant.
func (c *Client) ExportSession(ctx context.Context, id string, w io.Writer) error {
	body, err := c.doRaw(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id)+"/export", nil, "")
	if err != nil {
		return err
	}
	defer body.Close()
	if _, err := io.Copy(w, body); err != nil {
		return fmt.Errorf("service: downloading bundle: %w", err)
	}
	return nil
}

// ImportSession uploads a bundle and restores it as a live session
// (preserving the exported session id), returning what was restored.
func (c *Client) ImportSession(ctx context.Context, bundle io.Reader) (*ImportResult, error) {
	body, err := c.doRaw(ctx, http.MethodPost, "/v1/sessions:import", bundle, "application/octet-stream")
	if err != nil {
		return nil, err
	}
	defer body.Close()
	var res ImportResult
	if err := decodeJSON(body, &res); err != nil {
		return nil, fmt.Errorf("service: decoding import response: %w", err)
	}
	return &res, nil
}

// AttachSession binds a handle to a session that already lives on the
// server — typically one just restored with ImportSession, whose id the
// bundle preserved — fetching its measure from the stats endpoint.
func (c *Client) AttachSession(ctx context.Context, id string) (*Session, error) {
	var st SessionStats
	if err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id), nil, &st); err != nil {
		return nil, err
	}
	return &Session{c: c, id: id, measure: st.Measure, logIDs: make(map[string]string)}, nil
}

// errorRequestID picks the correlation id out of a failed response —
// the error body's field when present, the echoed header otherwise
// (a proxy-generated error body has no request_id, but the header may
// survive).
func errorRequestID(e *errorResponse, resp *http.Response) string {
	if e.RequestID != "" {
		return e.RequestID
	}
	return resp.Header.Get(RequestIDHeader)
}

// Session is a remote provider session: the client-side half of one
// dpeserver tenant. It uploads every distinct log once (content
// addressing makes repeats free) and then runs matrix, row, neighbors
// and mining calls against the server's cached prepared state. It
// offers no Definition 1 check: that needs the owner's plaintext
// matrix, which stays with the owner (dpe.VerifyPreservation).
//
// Session implements dpe.ProviderAPI and is safe for concurrent use.
type Session struct {
	c       *Client
	id      string
	measure dpe.Measure

	mu     sync.Mutex
	logIDs map[string]string // LogID(log) -> server-confirmed log id
	last   *grownMatrix      // the matrix Append or AppendMine returned last
}

var _ dpe.ProviderAPI = (*Session)(nil)

// ID returns the server-assigned session id.
func (s *Session) ID() string { return s.id }

// Measure returns the session's distance measure.
func (s *Session) Measure() dpe.Measure { return s.measure }

func (s *Session) path(suffix string) string {
	return "/v1/sessions/" + s.id + suffix
}

// UploadLog sends a query log to the server (once per distinct content)
// and returns its server-side id.
func (s *Session) UploadLog(ctx context.Context, log []string) (string, error) {
	key := LogID(log)
	s.mu.Lock()
	id, ok := s.logIDs[key]
	s.mu.Unlock()
	if ok {
		return id, nil
	}
	var resp UploadLogResponse
	err := s.c.do(ctx, http.MethodPost, s.path("/logs"), &UploadLogRequest{Queries: log}, &resp)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.logIDs[key] = resp.Log
	s.mu.Unlock()
	return resp.Log, nil
}

// DistanceMatrix computes the pairwise distance matrix of a log on the
// server, streaming the result back.
func (s *Session) DistanceMatrix(ctx context.Context, log []string) (dpe.Matrix, error) {
	id, err := s.UploadLog(ctx, log)
	if err != nil {
		return nil, err
	}
	body, err := s.c.doStream(ctx, http.MethodPost, s.path("/matrix"), &MatrixRequest{Log: id})
	if err != nil {
		return nil, err
	}
	defer body.Close()
	return ReadMatrix(body)
}

// Append extends the matrix already built for log with newQueries,
// implementing dpe.ProviderAPI's incremental path over the wire: the
// server reuses the session's cached prepared state, computes only the
// new entries, and streams back only the new rows; the old block never
// crosses the network again. The result is entry-wise identical to
// DistanceMatrix over the concatenated log. old must be len(log) rows
// of len(log) entries, and log must describe the matrix old was built
// from.
//
// The result may share old's storage, so treat both as read-only. When
// old is the matrix this session's Append or AppendMine returned last,
// it grows in place: the client allocates O(n·k) bytes amortized, not
// a new n×n matrix. Any other old is copied. Close releases the
// storage the session keeps for the next append.
func (s *Session) Append(ctx context.Context, old dpe.Matrix, log []string, newQueries []string) (dpe.Matrix, error) {
	if err := checkSquare(old, len(log)); err != nil {
		return nil, err
	}
	id, err := s.UploadLog(ctx, log)
	if err != nil {
		return nil, err
	}
	body, err := s.c.doStream(ctx, http.MethodPost, s.path("/logs:append"),
		&AppendLogRequest{Log: id, Queries: newQueries})
	if err != nil {
		return nil, err
	}
	defer body.Close()
	resp, err := ReadAppendedRows(body)
	if err != nil {
		return nil, err
	}
	if err := s.appended(log, newQueries, resp.Log, resp.N, resp.Offset); err != nil {
		return nil, err
	}
	return s.grow(old, resp.Rows)
}

// appended checks that an append answer spans rows len(log) to
// len(log)+len(newQueries) and remembers the combined log's server id,
// so follow-up calls on the grown log skip the re-upload and land on
// the warm prepared state.
func (s *Session) appended(log, newQueries []string, combinedID string, n, offset int) error {
	if offset != len(log) || n != len(log)+len(newQueries) {
		return fmt.Errorf("service: appended rows span %d..%d, want %d..%d",
			offset, n, len(log), len(log)+len(newQueries))
	}
	combined := make([]string, 0, n)
	combined = append(combined, log...)
	combined = append(combined, newQueries...)
	s.mu.Lock()
	s.logIDs[LogID(combined)] = combinedID
	s.mu.Unlock()
	return nil
}

// grownMatrix is the storage behind the matrix a Session's Append or
// AppendMine returned last. The row list and every row have the same
// spare capacity, so the next append onto that matrix writes its new
// columns and rows in place.
type grownMatrix struct {
	rows [][]float64 // n rows of n entries, each with the list's capacity
	out  dpe.Matrix  // the row list returned over rows, each row capped
}

// holds reports whether m is the matrix g was last returned as: the
// same row list, with every row still pointing at g's storage. m must
// be square.
func (g *grownMatrix) holds(m dpe.Matrix) bool {
	if g == nil || len(m) == 0 || len(m) != len(g.out) || &m[0] != &g.out[0] {
		return false
	}
	for i, row := range m {
		if &row[0] != &g.rows[i][0] {
			return false
		}
	}
	return true
}

// checkSquare checks that old can be the matrix of a log of n queries:
// n rows of n entries.
func checkSquare(old dpe.Matrix, n int) error {
	if len(old) != n {
		return fmt.Errorf("service: old matrix has %d rows for a log of %d queries", len(old), n)
	}
	for i, row := range old {
		if len(row) != n {
			return fmt.Errorf("service: old matrix row %d has %d entries, want %d", i, len(row), n)
		}
	}
	return nil
}

// grow returns old, an n×n matrix, extended by rows, the k new
// full-width rows of an append answer: entry-wise what
// dpe.SpliceMatrixRows returns. When old is the matrix this session
// returned last, grow takes its storage, so a concurrent append onto
// the same old copies instead, and writes the new columns and rows into
// the spare capacity, reallocating only when it runs out. Any other old
// is copied into new storage. Each call returns a fresh row list of
// rows capped at their length, so a caller's append reaches neither the
// spare capacity nor the storage.
func (s *Session) grow(old dpe.Matrix, rows [][]float64) (dpe.Matrix, error) {
	n, total := len(old), len(old)+len(rows)
	if err := checkSquare(old, n); err != nil {
		return nil, err
	}
	for r, row := range rows {
		if len(row) != total {
			return nil, fmt.Errorf("service: appended row %d has %d entries, want %d", r, len(row), total)
		}
	}
	s.mu.Lock()
	g := s.last
	if g.holds(old) {
		s.last = nil
	} else {
		g = nil
	}
	s.mu.Unlock()

	if g == nil || cap(g.rows) < total {
		// Half as much again: a chain of appends reallocates O(log n)
		// times and allocates O(n²) entries in all, and no row's spare
		// capacity exceeds half its length.
		c := total + total/2
		backing := make([]float64, n*c)
		g = &grownMatrix{rows: make([][]float64, n, c)}
		for i := range g.rows {
			g.rows[i] = backing[i*c : i*c+n : (i+1)*c]
			copy(g.rows[i], old[i])
		}
	}
	c := cap(g.rows)
	for i := range g.rows {
		dst := g.rows[i][:total]
		for r, row := range rows {
			dst[n+r] = row[i]
		}
		g.rows[i] = dst
	}
	backing := make([]float64, len(rows)*c)
	for r, row := range rows {
		dst := backing[r*c : r*c+total : (r+1)*c]
		copy(dst, row)
		g.rows = append(g.rows, dst)
	}
	out := make(dpe.Matrix, total)
	for i, row := range g.rows {
		out[i] = row[:total:total]
	}
	g.out = out
	s.mu.Lock()
	s.last = g
	s.mu.Unlock()
	return out, nil
}

// AppendMine is the batched append-and-mine call: one round trip
// appends newQueries to log on the server and mines the grown log
// incrementally from the server's cached mining state. It returns the
// extended matrix (old grown by the streamed new rows; nil for
// apriori, which never builds one) and the mining result, whose
// Incremental field reports the warm/cold disposition and the label
// delta. old must be the matrix built for log (nil for apriori); an
// empty newQueries mines log itself, bootstrapping the server's state.
// The matrix is shared as Append's is: it may share old's storage, so
// treat both as read-only, and only the matrix this session returned
// last grows in place.
func (s *Session) AppendMine(ctx context.Context, old dpe.Matrix, log []string, newQueries []string, spec dpe.MineSpec) (dpe.Matrix, *dpe.MineResult, error) {
	wantRows := spec.Algorithm != dpe.MineApriori
	if wantRows {
		if err := checkSquare(old, len(log)); err != nil {
			return nil, nil, err
		}
	}
	id, err := s.UploadLog(ctx, log)
	if err != nil {
		return nil, nil, err
	}
	body, err := s.c.doStream(ctx, http.MethodPost, s.path("/logs:append_mine"),
		&AppendMineRequest{Log: id, Queries: newQueries, Spec: EncodeMineSpec(spec)})
	if err != nil {
		return nil, nil, err
	}
	defer body.Close()
	resp, err := readAppendMine(body)
	if err != nil {
		return nil, nil, err
	}
	if err := s.appended(log, newQueries, resp.Log, resp.N, resp.Offset); err != nil {
		return nil, nil, err
	}
	res := resp.Result
	if !wantRows {
		return nil, res, nil
	}
	if len(resp.Rows) != resp.N-resp.Offset {
		return nil, nil, fmt.Errorf("service: %d appended rows, header says %d", len(resp.Rows), resp.N-resp.Offset)
	}
	m, err := s.grow(old, resp.Rows)
	if err != nil {
		return nil, nil, err
	}
	res.Matrix = m
	return m, res, nil
}

// Distances computes one matrix row on the server.
func (s *Session) Distances(ctx context.Context, log []string, q int) ([]float64, error) {
	id, err := s.UploadLog(ctx, log)
	if err != nil {
		return nil, err
	}
	var resp DistancesResponse
	err = s.c.do(ctx, http.MethodPost, s.path("/distances"), &DistancesRequest{Log: id, Query: q}, &resp)
	if err != nil {
		return nil, err
	}
	return resp.Distances, nil
}

// Neighbors asks the server for q's k nearest neighbors in log, ranked
// by the exact metric. Only the top-k entries cross the wire — never a
// matrix row, let alone the triangle.
func (s *Session) Neighbors(ctx context.Context, log []string, q, k int) (*dpe.NeighborsResult, error) {
	id, err := s.UploadLog(ctx, log)
	if err != nil {
		return nil, err
	}
	path := s.path(fmt.Sprintf("/neighbors?log=%s&query=%d&k=%d", url.QueryEscape(id), q, k))
	var resp dpe.NeighborsResult
	if err := s.c.do(ctx, http.MethodGet, path, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Mine builds the matrix on the server and runs one mining algorithm
// over it.
func (s *Session) Mine(ctx context.Context, log []string, spec dpe.MineSpec) (*dpe.MineResult, error) {
	id, err := s.UploadLog(ctx, log)
	if err != nil {
		return nil, err
	}
	var resp dpe.MineResult
	err = s.c.do(ctx, http.MethodPost, s.path("/mine"), &MineRequest{Log: id, Spec: EncodeMineSpec(spec)}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats fetches the session's server-side counters — in particular
// whether repeat calls hit the prepared-state cache.
func (s *Session) Stats(ctx context.Context) (*SessionStats, error) {
	var resp SessionStats
	if err := s.c.do(ctx, http.MethodGet, s.path(""), nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Close deletes the session (and its cached prepared state) on the
// server, and drops the storage kept for growing the last appended
// matrix in place.
func (s *Session) Close(ctx context.Context) error {
	s.mu.Lock()
	s.last = nil
	s.mu.Unlock()
	return s.c.do(ctx, http.MethodDelete, s.path(""), nil, nil)
}
