// Package obs is the service's dependency-free instrumentation layer:
// atomic counters, gauges, and fixed-bucket histograms in a named
// registry, rendered in the Prometheus text exposition format by an
// http.Handler, plus lightweight span timing for per-request stage
// traces (see span.go).
//
// Design constraints, in order:
//
//   - Zero dependencies. The whole layer is stdlib-only, so the hot
//     path never pays for a client library and the module's dependency
//     graph stays empty.
//   - Cheap when off. Every instrument method is nil-receiver safe:
//     code can hold possibly-nil *Counter/*Gauge/*Histogram fields and
//     call them unconditionally — an uninstrumented deployment costs
//     one nil check per event.
//   - Loud when miswired. Registering the same series name with a
//     conflicting type, help string, bucket layout, or a second
//     func-backed reader panics at wire-up time instead of silently
//     shadowing a metric (the CI metric lint runs exactly this).
//
// Metric names follow the Prometheus conventions: snake_case with a
// unit suffix (_total for counters, _seconds/_bytes where applicable).
// Registered names are part of the service's observable API — renames
// are breaking changes and belong in a changelog entry.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value. The zero value is NOT
// usable — obtain counters from a Registry — but a nil *Counter is: all
// methods no-op, so uninstrumented code paths cost one branch.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n; negative n is ignored (counters are
// monotonic by contract).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. A nil *Gauge no-ops.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by delta (use negative deltas to decrease).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets and tracks their sum
// — enough for Prometheus quantile estimation without per-observation
// allocation. A nil *Histogram no-ops.
type Histogram struct {
	bounds []float64      // sorted inclusive upper bounds, no +Inf
	counts []atomic.Int64 // one per bound; +Inf overflow is count-sum(buckets)
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// DurationBuckets are the default latency bucket bounds in seconds:
// half a millisecond through 10 s in a 1-2.5-5 progression — wide
// enough for both a cache-hit stats call and a cold Paillier prepare.
var DurationBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// metricKind tags what a series is, for exposition and conflict checks.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("metricKind(%d)", int(k))
	}
}

// series is one registered (name, labels) instrument.
type series struct {
	name   string // family name
	labels string // canonical rendered label block, "" or `{k="v",...}`
	kind   metricKind
	help   string

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	// read, when set, makes the series func-backed: its value is read
	// at scrape time instead of from the counter/gauge cell. Used to
	// surface existing monotonic totals (cache hits, live sessions)
	// without double bookkeeping.
	read func() float64

	bucketKey string // bucket-layout fingerprint, histograms only
}

// Registry is a named set of metrics. All methods are safe for
// concurrent use; registration is get-or-create for identical
// (name, labels, type, help) and panics on conflicts.
type Registry struct {
	mu     sync.Mutex
	byKey  map[string]*series
	funcMu sync.Mutex // serializes read() calls at scrape time
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*series)}
}

// Labels renders alternating key/value pairs into the canonical label
// block series identity uses. Keys are sorted; values are escaped. It
// panics on an odd pair count — label sets are wired at startup, where
// a loud failure beats a silently misnamed series.
func Labels(kv ...string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", kv))
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.k)
		sb.WriteString(`="`)
		sb.WriteString(labelEscaper.Replace(p.v))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// labelEscaper applies the exposition-format label escapes. Building a
// Replacer costs kilobytes and one is safe for concurrent use, so every
// label value shares this one; dpeserver escapes two on every request.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// register returns the existing identical series or creates one;
// conflicting re-registration panics (the metric lint's teeth).
func (r *Registry) register(s *series) *series {
	key := s.name + s.labels
	r.mu.Lock()
	defer r.mu.Unlock()
	if have, ok := r.byKey[key]; ok {
		if have.kind != s.kind {
			panic(fmt.Sprintf("obs: metric %s%s already registered as a %s, re-registered as a %s", s.name, s.labels, have.kind, s.kind))
		}
		if have.help != s.help {
			panic(fmt.Sprintf("obs: metric %s%s already registered with help %q, re-registered with %q", s.name, s.labels, have.help, s.help))
		}
		if have.bucketKey != s.bucketKey {
			panic(fmt.Sprintf("obs: histogram %s%s already registered with different buckets", s.name, s.labels))
		}
		if have.read != nil || s.read != nil {
			// Two func-backed readers for one series cannot be merged,
			// and mixing a cell with a reader silently shadows one of
			// them — both are wiring bugs.
			panic(fmt.Sprintf("obs: func-backed metric %s%s registered twice", s.name, s.labels))
		}
		return have
	}
	r.byKey[key] = s
	return s
}

// Counter registers (or returns) a counter series. labels are
// alternating key/value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.register(&series{name: name, labels: Labels(labels...), kind: kindCounter, help: help, counter: &Counter{}})
	return s.counter
}

// Gauge registers (or returns) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	s := r.register(&series{name: name, labels: Labels(labels...), kind: kindGauge, help: help, gauge: &Gauge{}})
	return s.gauge
}

// CounterFunc registers a counter series whose value is read at scrape
// time — how an existing monotonic total (a cache's hit counter) is
// surfaced without double bookkeeping. The reader must be monotonic and
// safe for concurrent use. Registering the same series twice panics.
func (r *Registry) CounterFunc(name, help string, read func() float64, labels ...string) {
	r.register(&series{name: name, labels: Labels(labels...), kind: kindCounter, help: help, read: read})
}

// GaugeFunc registers a gauge series read at scrape time (live session
// counts, cache byte totals). Registering the same series twice panics.
func (r *Registry) GaugeFunc(name, help string, read func() float64, labels ...string) {
	r.register(&series{name: name, labels: Labels(labels...), kind: kindGauge, help: help, read: read})
}

// Histogram registers (or returns) a histogram series with the given
// inclusive upper bucket bounds (nil means DurationBuckets). Bounds
// must be sorted strictly ascending; +Inf is implicit.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if bounds == nil {
		bounds = DurationBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not strictly ascending: %v", name, bounds))
		}
	}
	h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds))}
	s := r.register(&series{
		name: name, labels: Labels(labels...), kind: kindHistogram, help: help,
		hist: h, bucketKey: fmt.Sprint(bounds),
	})
	return s.hist
}

// snapshot returns the registered series sorted by family name then
// label block — the stable exposition order.
func (r *Registry) snapshot() []*series {
	r.mu.Lock()
	out := make([]*series, 0, len(r.byKey))
	for _, s := range r.byKey {
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}
