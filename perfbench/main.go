// Command perfbench is the repository's end-to-end benchmark. It builds
// the dpeserver stack in process the way cmd/dpeserver builds it with
// default flags and -data-dir (a fresh segments data directory, the obs
// registry, the instrumented store, NewHandlerWithOptions with request
// logs discarded), drives it over loopback HTTP through service.Client
// with a closed loop of two clients, verifies every answer, and prints
// the metrics of one workload:
//
//	python3 perfbench/run.py --workload matrix-warm --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 it carries the per-layer
// metrics of a traced run (see layers.go). Run it from the repository
// root: data directories and span dumps go under .bench_build/ there.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRuns is how many times a run builds the whole set-up; setup_s
// is their median.
const setupRuns = 5

// maxSlice is the longest stretch the closed loop runs without a pause:
// the timed phase runs as equal slices of at most this length (an even
// number of them in a traced run), and the server's journal is
// compacted, untimed, between them. ingest-mine journals ~1 MB per op,
// and only compaction reclaims a deleted session's records —
// cmd/dpeserver compacts every 10 minutes — so one unsliced 15-s run
// grew the data directory by ~1.7 GB.
const maxSlice = 2500 * time.Millisecond

// compact compacts the server's journal after phase p when p grew the
// data directory; the read workloads journal nothing in their timed
// phases, and ingest-mine has no live session between phases, so the
// rewrite is cheap.
func compact(s *stack, p *phase) error {
	if p.journal <= 0 {
		return nil
	}
	if err := s.reg.CompactAll(); err != nil {
		return fmt.Errorf("compacting the journal between phases: %w", err)
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	errs     []string // the first failures' messages
	diskFree float64  // least free disk space seen at a slice's end, MiB
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: matrix-warm, neighbors-topk or ingest-mine")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "timed phase length in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	gitSHA := fs.String("git-sha", "none", "commit of the code measured, when known")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments")
		os.Exit(2)
	}
	source, err := sourceDigest()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(context.Background(), config{
		workload: *name, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, setups: setupRuns, out: os.Stdout, work: ".bench_build", source: source, gitSHA: *gitSHA,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, e := range res.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", e)
	}
	if len(res.errs) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: least free disk space at a slice's end: %.0f MiB\n", res.diskFree)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	setups   int
	shape    *shape // overrides shapes[workload] (self-tests)
	out      io.Writer
	work     string // directory for data directories and span dumps
	source   string // hash of the sources measured
	gitSHA   string
	wrap     stackOptions // extra decoration (self-tests)
}

func newWorkload(name string, seed int64, sh shape) (workload, error) {
	switch name {
	case "matrix-warm":
		return newMatrixWarm(seed, sh)
	case "neighbors-topk":
		return newNeighborsTopK(seed, sh)
	case "ingest-mine":
		return newIngestMine(seed, sh)
	}
	return nil, fmt.Errorf("unknown workload %q (have matrix-warm, neighbors-topk, ingest-mine)", name)
}

func (c config) printf(format string, args ...any) {
	if c.out != nil {
		fmt.Fprintf(c.out, format, args...)
	}
}

// run executes one benchmark run and returns its result line.
func run(ctx context.Context, cfg config) (res *result, err error) {
	sh := shapes[cfg.workload]
	if cfg.shape != nil {
		sh = *cfg.shape
	}
	w, err := newWorkload(cfg.workload, cfg.seed, sh)
	if err != nil {
		return nil, err
	}
	work, err := filepath.Abs(cfg.work)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}

	var tr *tracer
	opts := cfg.wrap
	if cfg.traced {
		tr = newTracer()
		opts = traceOptions(tr, opts)
	}

	// Set-up, several times: each from the generated plaintext inputs to
	// the first warm-up op, on a fresh data directory.
	var s *stack
	var setups, setupCPU []float64
	var setupObs map[string]float64
	for i := 0; i < cfg.setups; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		dir, err := os.MkdirTemp(work, "data-")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		cpu0 := processCPU()
		if s, err = openStack(dir, opts); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		if err := w.setup(ctx, s); err != nil {
			s.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		setupCPU = append(setupCPU, (processCPU() - cpu0).Seconds())
		setupObs = scrape(s.obs)
		if i == 0 {
			if err := w.reference(ctx); err != nil {
				s.close()
				return nil, fmt.Errorf("reference: %w", err)
			}
		}
	}
	defer func() {
		if cerr := s.close(); cerr != nil && err == nil {
			res, err = nil, cerr
		}
	}()

	warm := make([]*recorder, clients)
	if err := w.warmup(ctx, s, func(c int) *recorder {
		warm[c] = &recorder{}
		return warm[c]
	}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	var warmFailed int64
	for _, r := range warm {
		warmFailed += r.failed
	}

	env := environment(cfg.gitSHA, cfg.source)
	cfg.printf("perfbench workload=%s seed=%d seconds=%g trace=%v clients=%d\n", cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.traced, clients)
	cfg.printf("env %s\n", env)
	cfg.printf("set-ups wall_s %v cpu_s %v\n", roundAll(setups, 4), roundAll(setupCPU, 4))

	// The timed phase runs as equal slices of at most maxSlice, with
	// the journal compacted between them. A traced run alternates
	// untraced and traced slices, so host noise hits both alike; the
	// gap between them is the tracing overhead.
	n := int(math.Ceil(float64(cfg.seconds) / float64(maxSlice)))
	if cfg.traced {
		n = max(2, n+n%2)
	}
	var plain, traced []*phase
	diskFree := math.Inf(1)
	for i := 0; i < n; i++ {
		var t *tracer
		if cfg.traced && i%2 == 1 {
			t = tr
		}
		p := runPhase(ctx, w, s, cfg.seconds/time.Duration(n), t)
		diskFree = min(diskFree, diskFreeMiB(s.dir))
		if err := compact(s, p); err != nil {
			return nil, err
		}
		if t == nil {
			plain = append(plain, p)
		} else {
			traced = append(traced, p)
		}
	}
	res = &result{Metrics: map[string]metric{}, diskFree: diskFree}
	cfg.printf("disk free at slice ends: least %.0f MiB\n", diskFree)
	timed := mergePhases(plain)
	if !cfg.traced {
		all := endToEnd(timed, setupCPU, setups)
		for _, name := range bounded {
			res.Metrics[name] = all[name]
		}
		printMetrics(cfg, all)
		cfg.printf("%s\n", tailNote(timed))
	} else {
		tp := mergePhases(traced)
		perLayer(res, tp, timed, tr.snapshot(), setupObs)
		printMetrics(cfg, res.Metrics)
		printShares(cfg, res.Metrics, tp)
		path := filepath.Join(work, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.dump(path); err != nil {
			return nil, err
		}
		cfg.printf("spans %s\n", path)
		timed = mergePhases(append(plain, traced...))
	}
	rec := &timed.rec
	res.Attempted, res.Failed = rec.attempted, rec.failed
	res.Correct = res.Failed == 0 && warmFailed == 0 && res.Attempted > 0
	if rec.recallN > 0 && rec.recall/float64(rec.recallN) < minRecall {
		res.Correct = false
		cfg.printf("recall_at_10 below %g\n", minRecall)
	}
	res.errs = append(warmErrs(warm), rec.errs...)
	for _, e := range res.errs {
		cfg.printf("failure %s\n", e)
	}
	// reference() fails the run when Definition 1 does not hold.
	cfg.printf("verification error_rate=%g failed=%d attempted=%d warmup_failed=%d definition1=held\n",
		ratio(float64(rec.failed), float64(rec.attempted)), rec.failed, rec.attempted, warmFailed)
	return res, nil
}

// printMetrics prints one "metric name value unit" line per metric.
func printMetrics(cfg config, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		cfg.printf("metric %-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// minRecall is the recall_at_10 below which the approximate path counts
// as broken and the run as incorrect.
const minRecall = 0.5

func warmErrs(rs []*recorder) []string {
	var out []string
	for _, r := range rs {
		if r != nil {
			out = append(out, r.errs...)
		}
	}
	return out
}

// mergePhases adds phases up as if they were one.
func mergePhases(ps []*phase) *phase {
	out := &phase{obs: map[string]float64{}}
	var total, steal uint64
	ok := true
	for _, p := range ps {
		out.rec.merge(&p.rec)
		out.wall += p.wall
		out.cpu += p.cpu
		out.journal += p.journal
		out.heapPeak = max(out.heapPeak, p.heapPeak)
		out.cachePeak = max(out.cachePeak, p.cachePeak)
		out.rt1.gcCPU += p.rt1.gcCPU - p.rt0.gcCPU
		out.rt1.busyCPU += p.rt1.busyCPU - p.rt0.busyCPU
		out.rt1.allocBytes += p.rt1.allocBytes - p.rt0.allocBytes
		out.rt1.gcCycles += p.rt1.gcCycles - p.rt0.gcCycles
		ok = ok && p.host[0].ok && p.host[1].ok
		total += p.host[1].total - p.host[0].total
		steal += p.host[1].steal - p.host[0].steal
		for k, v := range p.obs {
			out.obs[k] += v
		}
		out.reg.add(p.reg)
	}
	out.host[1] = hostCPU{total: total, steal: steal, ok: ok}
	out.host[0].ok = ok
	return out
}

// environment describes the host and build a run measured on.
func environment(gitSHA, source string) string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s git_sha=%s source_sha256=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitSHA, source)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func roundAll(xs []float64, digits int) []float64 {
	p := math.Pow(10, float64(digits))
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*p) / p
	}
	return out
}

// sourceDigest identifies the code measured: a hash of the Go sources
// and go.mod files under the working directory. The checkout a run
// measures need not be a git repository.
func sourceDigest() (string, error) {
	return digestTree(".", func(p string) bool {
		return strings.HasSuffix(p, ".go") || filepath.Base(p) == "go.mod"
	})
}
