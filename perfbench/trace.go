package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

// span is one traced interval. Times are nanoseconds since the
// tracer's epoch; Op is the client op the span belongs to (0 when
// unknown) and Parent the name of the op's span that caused it.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
	Kind   string `json:"kind,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans at the layer boundaries the benchmark can reach
// from outside the program: the client op, the HTTP transport, the
// server handler, every journal append, and replays of public calls on
// an op's own inputs. Spans stay in memory until dump.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ops   atomic.Int64

	mu       sync.Mutex
	spans    []span
	reqOp    map[string]int64  // X-Request-Id -> op
	handlers map[int]*openSpan // index+1 in spans -> open handler span
}

type openSpan struct {
	op      int64
	session string
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), reqOp: map[string]int64{}, handlers: map[int]*openSpan{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// add appends a finished span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

type opKey struct{}

// withOp tags ctx with a fresh op id when tracing is on.
func (t *tracer) withOp(ctx context.Context) (context.Context, int64) {
	if t == nil || !t.on.Load() {
		return ctx, 0
	}
	id := t.ops.Add(1)
	return context.WithValue(ctx, opKey{}, id), id
}

func opOf(ctx context.Context) int64 {
	id, _ := ctx.Value(opKey{}).(int64)
	return id
}

// replay times fn as a replayed public call of op.
func (t *tracer) replay(op int64, name string, fn func() int64) {
	if t == nil || op == 0 {
		return
	}
	start := t.now()
	n := fn()
	t.add(span{Name: name, Op: op, Parent: "op", Start: start, End: t.now(), Bytes: n})
}

// transport decorates the client's http.RoundTripper: it binds the
// request id the client minted to the op in the request context, and
// records time to first byte and the body read as two spans.
func (t *tracer) transport(base http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		op := opOf(req.Context())
		if op == 0 || !t.on.Load() {
			return base.RoundTrip(req)
		}
		if id := req.Header.Get(service.RequestIDHeader); id != "" {
			t.mu.Lock()
			t.reqOp[id] = op
			t.mu.Unlock()
		}
		start := t.now()
		resp, err := base.RoundTrip(req)
		ttfb := t.now()
		reqBytes := req.ContentLength
		if reqBytes < 0 {
			reqBytes = 0
		}
		t.add(span{Name: "http.ttfb", Op: op, Parent: "op", Start: start, End: ttfb, Bytes: reqBytes})
		if err != nil {
			return resp, err
		}
		resp.Body = &tracedBody{ReadCloser: resp.Body, t: t, op: op, start: ttfb}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// tracedBody records the response body read as one span, ending at
// EOF or Close, whichever comes first.
type tracedBody struct {
	io.ReadCloser
	t     *tracer
	op    int64
	start int64
	n     int64
	done  bool
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *tracedBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *tracedBody) finish() {
	if b.done {
		return
	}
	b.done = true
	b.t.add(span{Name: "http.body", Op: b.op, Parent: "op", Start: b.start, End: b.t.now(), Bytes: b.n})
}

// handler decorates the server's http.Handler: one span per request,
// linked to its op through the X-Request-Id the client sent.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := t.now()
		t.mu.Lock()
		op := t.reqOp[r.Header.Get(service.RequestIDHeader)]
		t.spans = append(t.spans, span{Name: "http.handler", Op: op, Parent: "http.ttfb", Start: start})
		id := len(t.spans)
		t.handlers[id] = &openSpan{op: op, session: sessionOfPath(r.URL.Path)}
		t.mu.Unlock()
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		end := t.now()
		t.mu.Lock()
		t.spans[id-1].End = end
		t.spans[id-1].Bytes = cw.n
		delete(t.handlers, id)
		t.mu.Unlock()
	})
}

// sessionOfPath extracts {id} from /v1/sessions/{id}[/...].
func sessionOfPath(p string) string {
	rest, ok := strings.CutPrefix(p, "/v1/sessions/")
	if !ok {
		return ""
	}
	id, _, _ := strings.Cut(rest, "/")
	return id
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// store decorates the registry's store.Store so every shard journal's
// Append is a span under the handler serving the record's session.
func (t *tracer) store(s store.Store) store.Store { return tracedStore{Store: s, t: t} }

type tracedStore struct {
	store.Store
	t *tracer
}

func (s tracedStore) Open(shard int) (store.Log, error) {
	l, err := s.Store.Open(shard)
	if err != nil {
		return nil, err
	}
	return tracedLog{Log: l, t: s.t}, nil
}

type tracedLog struct {
	store.Log
	t *tracer
}

func (l tracedLog) Append(rec store.Record) error {
	if !l.t.on.Load() {
		return l.Log.Append(rec)
	}
	start := l.t.now()
	err := l.Log.Append(rec)
	end := l.t.now()
	l.t.mu.Lock()
	s := span{Name: "journal.append", Start: start, End: end, Bytes: int64(len(rec.Data) + len(rec.Blob)), Kind: string(rec.Kind)}
	if h := l.t.handlerFor(rec.Session); h != nil {
		s.Op, s.Parent = h.op, "http.handler"
	}
	l.t.spans = append(l.t.spans, s)
	l.t.mu.Unlock()
	return err
}

// handlerFor picks the open handler span serving session, or one whose
// path names no session (session create). Callers hold t.mu.
func (t *tracer) handlerFor(session string) *openSpan {
	var create *openSpan
	for _, h := range t.handlers {
		if h.session == session && session != "" {
			return h
		}
		if h.session == "" {
			create = h
		}
	}
	return create
}

// dump writes the spans as JSON lines to path.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
