package obs

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "help")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", "help")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

func TestGetOrCreateReturnsSameCell(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", "route", "matrix")
	b := r.Counter("x_total", "help", "route", "matrix")
	if a != b {
		t.Fatal("identical registration returned a different cell")
	}
	other := r.Counter("x_total", "help", "route", "mine")
	if other == a {
		t.Fatal("different label value returned the same cell")
	}
}

func TestNilReceiversNoOp(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Trace
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	tr.Add("stage", time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || tr.Spans() != nil || tr.String() != "" {
		t.Fatal("nil receivers must read as zero")
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP lat_seconds help",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_sum 102.65",
		"lat_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "requests", "route", "matrix", "code", "200").Add(7)
	r.Gauge("live", "live sessions").Set(3)
	r.CounterFunc("hits_total", "cache hits", func() float64 { return 42 })
	r.GaugeFunc("bytes", "cache bytes", func() float64 { return 1024 })
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE req_total counter",
		`req_total{code="200",route="matrix"} 7`, // label keys sorted
		"# TYPE live gauge",
		"live 3",
		"hits_total 42",
		"bytes 1024",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One header per family even with several label sets.
	r.Counter("req_total", "requests", "route", "mine", "code", "200").Inc()
	sb.Reset()
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "# TYPE req_total counter"); got != 1 {
		t.Fatalf("family header emitted %d times, want 1", got)
	}
}

func TestLabelEscaping(t *testing.T) {
	got := Labels("k", "a\"b\\c\nd")
	want := `{k="a\"b\\c\nd"}`
	if got != want {
		t.Fatalf("Labels = %s, want %s", got, want)
	}
}

// TestCounterLookupAllocBytes bounds what finding an existing labelled
// counter allocates: dpeserver looks its route×code request counter up
// this way on every request, and a label escaper built per value would
// cost about 14 KB per lookup.
func TestCounterLookupAllocBytes(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "help", "route", "neighbors", "code", "200")
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Counter("req_total", "help", "route", "neighbors", "code", "200").Inc()
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 1024 {
		t.Fatalf("counter lookup allocates %d B/op, want < 1 KiB", got)
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestConflictingRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "help")
	mustPanic(t, "type conflict", func() { r.Gauge("a_total", "help") })
	mustPanic(t, "help conflict", func() { r.Counter("a_total", "other help") })
	r.Histogram("h_seconds", "help", []float64{1, 2})
	mustPanic(t, "bucket conflict", func() { r.Histogram("h_seconds", "help", []float64{1, 2, 3}) })
	mustPanic(t, "unsorted buckets", func() { r.Histogram("bad", "help", []float64{2, 1}) })
	r.CounterFunc("f_total", "help", func() float64 { return 0 })
	mustPanic(t, "double func", func() { r.CounterFunc("f_total", "help", func() float64 { return 0 }) })
	mustPanic(t, "func over cell", func() { r.GaugeFunc("a_total", "help", func() float64 { return 0 }) })
	mustPanic(t, "odd labels", func() { r.Counter("odd_total", "help", "just-a-key") })
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	h := r.Histogram("h_seconds", "help", []float64{0.5})
	g := r.Gauge("g", "help")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.25)
				g.Add(1)
				// Registration races with scrapes too.
				r.Counter("c_total", "help").Add(0)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if _, err := r.WriteTo(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != 8000 || h.Count() != 8000 || g.Value() != 8000 {
		t.Fatalf("lost updates: c=%d h=%d g=%g", c.Value(), h.Count(), g.Value())
	}
	if h.Sum() != 2000 {
		t.Fatalf("histogram sum = %g, want 2000", h.Sum())
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "help").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "x_total 1") {
		t.Fatalf("body missing metric:\n%s", buf[:n])
	}

	post, err := srv.Client().Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != 405 {
		t.Fatalf("POST status %d, want 405", post.StatusCode)
	}
}

func TestTraceContext(t *testing.T) {
	tr := &Trace{}
	ctx := ContextWithTrace(context.Background(), tr)
	TraceFromContext(ctx).Add("prepare", 1500*time.Millisecond)
	TraceFromContext(ctx).Add("matrix", 2*time.Millisecond)
	if got := TraceFromContext(context.Background()); got != nil {
		t.Fatal("empty context should carry no trace")
	}
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != "prepare" || spans[1].Name != "matrix" {
		t.Fatalf("spans = %v", spans)
	}
	if s := tr.String(); s != "prepare=1.5s matrix=2ms" {
		t.Fatalf("trace string = %q", s)
	}
}
