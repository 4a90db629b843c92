package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// RequestIDHeader carries the per-request correlation id. The server
// honors a well-formed incoming value (so a proxy's id threads through
// access logs, error bodies, and client error strings unchanged) and
// mints one otherwise; the response always echoes it.
const RequestIDHeader = "X-Request-Id"

// HandlerOptions configures the instrumentation wrapped around the /v1
// API. The zero value — no metrics, no logging, no slow-request
// tracing — behaves like the historical uninstrumented handler except
// that request ids are still assigned and echoed (they cost one header
// and make error bodies correlatable even on bare test servers).
type HandlerOptions struct {
	// Obs, when set, registers and feeds the dpe_http_* request
	// metrics (per-route latency histograms, route/code counters, an
	// inflight gauge).
	Obs *obs.Registry
	// Logger, when set, receives one structured access-log line per
	// request and a warning line for requests slower than SlowRequest.
	Logger *slog.Logger
	// SlowRequest is the latency above which a request is logged at
	// warning level with its per-stage span breakdown. Zero disables
	// slow-request tracing (and the per-request trace allocation).
	SlowRequest time.Duration
}

type requestIDKey struct{}

// RequestIDFromContext returns the request's correlation id, or "".
func RequestIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// validRequestID bounds what an incoming X-Request-Id may look like
// before the server adopts it into logs and metrics exposition: at most
// 64 bytes of [A-Za-z0-9._-]. Anything else is replaced, not rejected —
// a malformed header must not fail the request it labels.
func validRequestID(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// newRequestID mints a 16-hex-character id (64 random bits — plenty for
// correlating logs, not a security token).
func newRequestID() string {
	var b [8]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// httpMetrics is the middleware's slice of the obs wiring. Histograms
// are pre-registered per route at construction (the label set is closed,
// so nothing is minted per request); the route×code counters are
// get-or-create at response time because enumerating every status a
// handler can produce would be a maintenance trap.
type httpMetrics struct {
	o         *obs.Registry
	inflight  *obs.Gauge
	durations map[string]*obs.Histogram
}

// newHTTPMetrics registers the request metrics for the route labels,
// keyed by mux pattern.
func newHTTPMetrics(o *obs.Registry, labels map[string]string) *httpMetrics {
	if o == nil {
		return nil
	}
	m := &httpMetrics{
		o:         o,
		inflight:  o.Gauge("dpe_http_inflight_requests", "API requests currently being served."),
		durations: make(map[string]*obs.Histogram, len(labels)+1),
	}
	for _, label := range labels {
		m.durations[label] = o.Histogram("dpe_http_request_duration_seconds",
			"API request latency by route.", nil, "route", label)
	}
	// "verify" is a retired route, registered and always empty, as
	// dpe_* series are only ever added; a request to it is unmatched.
	for _, label := range []string{"unmatched", "verify"} {
		m.durations[label] = o.Histogram("dpe_http_request_duration_seconds",
			"API request latency by route.", nil, "route", label)
	}
	return m
}

// inflightAdd moves the inflight gauge; nil-safe like observe.
func (m *httpMetrics) inflightAdd(v float64) {
	if m == nil {
		return
	}
	m.inflight.Add(v)
}

// observe records one finished request; nil-safe so the uninstrumented
// handler pays a single branch.
func (m *httpMetrics) observe(route string, status int, d time.Duration) {
	if m == nil {
		return
	}
	m.durations[route].Observe(d.Seconds())
	m.o.Counter("dpe_http_requests_total", "API requests served, by route and status code.",
		"route", route, "code", strconv.Itoa(status)).Inc()
}

// statusRecorder captures the response status and size for the access
// log and the route×code counter.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusRecorder) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusRecorder) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *statusRecorder) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrumented wraps the /v1 mux with the request-id, metrics, and
// logging middleware. The wrapper always runs (request ids are part of
// the wire contract); metrics and logging engage only when configured.
type instrumented struct {
	mux *http.ServeMux
	// labels maps each registered mux pattern to its route label, so
	// label cardinality is closed over the API surface no matter what
	// paths clients probe.
	labels  map[string]string
	metrics *httpMetrics
	logger  *slog.Logger
	slow    time.Duration
}

func (h *instrumented) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := r.Header.Get(RequestIDHeader)
	if !validRequestID(id) {
		id = newRequestID()
	}
	w.Header().Set(RequestIDHeader, id)

	ctx := context.WithValue(r.Context(), requestIDKey{}, id)
	var trace *obs.Trace
	if h.slow > 0 && h.logger != nil {
		trace = &obs.Trace{}
		ctx = obs.ContextWithTrace(ctx, trace)
	}
	r = r.WithContext(ctx)

	rec := &statusRecorder{ResponseWriter: w}
	h.metrics.inflightAdd(1)
	// A panicking handler is still lowered from the inflight gauge,
	// counted (as a 500) and logged; the panic then goes on to
	// net/http, which handles it as it would without this wrapper.
	defer func() {
		p := recover()
		if p != nil {
			rec.status = http.StatusInternalServerError
		}
		h.finish(r, rec, id, time.Since(start), trace, p)
		if p != nil {
			panic(p)
		}
	}()
	// The mux writes the matched pattern back onto r before dispatch,
	// so r.Pattern is readable once ServeHTTP returns or panics.
	h.mux.ServeHTTP(rec, r)
}

// finish lowers the inflight gauge, observes the request and writes its
// access-log line: INFO for a served request, ERROR for one whose
// handler panicked with p.
func (h *instrumented) finish(r *http.Request, rec *statusRecorder, id string, d time.Duration, trace *obs.Trace, p any) {
	h.metrics.inflightAdd(-1)
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	// Requests that matched no pattern (404s, bad methods) share one
	// "unmatched" series.
	route, ok := h.labels[r.Pattern]
	if !ok {
		route = "unmatched"
	}
	h.metrics.observe(route, rec.status, d)

	if h.logger == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("route", route),
		slog.Int("status", rec.status),
		slog.Int64("bytes", rec.bytes),
		slog.Duration("dur", d),
		slog.String("request_id", id),
	}
	if p != nil {
		attrs = append(attrs, slog.Any("panic", p))
		h.logger.LogAttrs(r.Context(), slog.LevelError, "request", attrs...)
		return
	}
	h.logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
	if h.slow > 0 && d >= h.slow {
		if spans := trace.String(); spans != "" {
			attrs = append(attrs, slog.String("stages", spans))
		}
		h.logger.LogAttrs(r.Context(), slog.LevelWarn, "slow request", attrs...)
	}
}
