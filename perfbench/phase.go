package main

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// recorder is one client's tally. Only its own client goroutine
// touches it; phases merge the clients' recorders when they end.
type recorder struct {
	tr *tracer // nil when the phase is untraced

	lat       []float64 // ms, successful ops
	attempted int64
	failed    int64
	errs      []string

	ingested int64 // raw query bytes sent in uploads and appends
	pairs    int64 // distance pairs the server computed for the ops
	cands    int64 // LSH candidates the server re-ranked
	examined int64 // pairs the incremental miner examined
	mines    int64 // append_mine calls, bootstrap included
	warm     int64 // of which warm-started
	recall   float64
	recallN  int64
}

// op times one client call; the returned op id is non-zero when the
// call was traced.
func (r *recorder) op(ctx context.Context, kind string, fn func(context.Context) error) (int64, error) {
	ctx, id := r.tr.withOp(ctx)
	start := time.Now()
	err := fn(ctx)
	end := time.Now()
	r.attempted++
	if err != nil {
		r.fail(err)
	} else {
		r.lat = append(r.lat, float64(end.Sub(start))/1e6)
	}
	if id != 0 {
		r.tr.add(span{Name: "op." + kind, Op: id, Start: r.tr.since(start), End: r.tr.since(end)})
	}
	return id, err
}

// fail counts a failed op: a call error, or an answer that did not
// verify.
func (r *recorder) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

func (r *recorder) merge(o *recorder) {
	r.lat = append(r.lat, o.lat...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.errs = append(r.errs, o.errs...)
	r.ingested += o.ingested
	r.pairs += o.pairs
	r.cands += o.cands
	r.examined += o.examined
	r.mines += o.mines
	r.warm += o.warm
	r.recall += o.recall
	r.recallN += o.recallN
}

// runSteps runs steps units of work on every client concurrently.
func runSteps(ctx context.Context, w workload, steps int, rec func(int) *recorder) error {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		r := rec(c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				w.step(ctx, c, r)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// phase is one timed closed-loop phase and what was measured around it.
type phase struct {
	rec      recorder
	wall     time.Duration
	cpu      time.Duration // user+sys
	rt0, rt1 runtimeSample
	heapPeak uint64
	host     [2]hostCPU
	journal  int64 // bytes added to the data directory

	// Filled for traced phases only: obs sample deltas, registry
	// counter deltas, and the largest prepared-cache size seen.
	obs       map[string]float64
	reg       regDelta
	cachePeak int64
}

// regDelta is the change of the registry's public cache counters over
// a phase.
type regDelta struct {
	hits, misses, evictions  int64
	mineHits, mineMisses     int64
	approxHits, approxMisses int64
}

func (d *regDelta) add(o regDelta) {
	d.hits += o.hits
	d.misses += o.misses
	d.evictions += o.evictions
	d.mineHits += o.mineHits
	d.mineMisses += o.mineMisses
	d.approxHits += o.approxHits
	d.approxMisses += o.approxMisses
}

// registryCounters reads the registry-wide counters GET /v1/stats
// serves, plus the workload sessions' approx-index outcomes.
func registryCounters(ctx context.Context, w workload, reg *service.Registry) regDelta {
	st := reg.Stats()
	d := regDelta{
		hits: st.PreparedCache.Hits, misses: st.PreparedCache.Misses, evictions: st.PreparedCache.Evictions,
		mineHits: st.MineStateHits, mineMisses: st.MineStateMisses,
	}
	d.approxHits, d.approxMisses = w.approxCounts(ctx)
	return d
}

// runPhase drives the closed loop for d: every client runs steps back
// to back until d has passed, then finishes the step it is in.
func runPhase(ctx context.Context, w workload, s *stack, d time.Duration, tr *tracer) *phase {
	p := &phase{}
	var obs0 map[string]float64
	var reg0 regDelta
	if tr != nil {
		obs0, reg0 = scrape(s.obs), registryCounters(ctx, w, s.reg)
		tr.on.Store(true)
	}
	recs := make([]*recorder, clients)
	for c := range recs {
		recs[c] = &recorder{tr: tr}
	}
	j0 := dirBytes(s.dir)
	stop := make(chan struct{})
	var sample func()
	if tr != nil {
		sample = func() {
			if b := s.reg.Stats().PreparedCache.Bytes; b > p.cachePeak {
				p.cachePeak = b
			}
		}
	}
	peak := heapPeak(stop, 5*time.Millisecond, sample)
	p.host[0], p.rt0 = readHostCPU(), readRuntime()
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				w.step(ctx, c, recs[c])
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.cpu = processCPU() - cpu0
	p.host[1], p.rt1 = readHostCPU(), readRuntime()
	close(stop)
	p.heapPeak = <-peak
	p.journal = dirBytes(s.dir) - j0
	for _, r := range recs {
		p.rec.merge(r)
	}
	if tr != nil {
		tr.on.Store(false)
		p.obs = scrape(s.obs)
		for k, v := range p.obs {
			p.obs[k] = v - obs0[k]
		}
		reg1 := registryCounters(ctx, w, s.reg)
		p.reg = regDelta{
			hits: reg1.hits - reg0.hits, misses: reg1.misses - reg0.misses, evictions: reg1.evictions - reg0.evictions,
			mineHits: reg1.mineHits - reg0.mineHits, mineMisses: reg1.mineMisses - reg0.mineMisses,
			approxHits: reg1.approxHits - reg0.approxHits, approxMisses: reg1.approxMisses - reg0.approxMisses,
		}
	}
	return p
}

// scrape renders the obs registry in Prometheus text format and parses
// every sample into name{labels} -> value.
func scrape(o *obs.Registry) map[string]float64 {
	var sb strings.Builder
	o.WriteTo(&sb)
	out := make(map[string]float64)
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
