package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/store"
)

const mib = 1 << 20

// bounded are the end-to-end metrics the result line carries, each
// with a bound in BENCHMARK.json: the ones whose run-to-run spread stays
// within a bound on the host the benchmark was written on. There, host
// CPU steal swung between 0% and 47% within minutes, and even at zero
// steal the CPU time of a fixed op drifted by a third as the host's
// other load came and went; every time metric but the set-up time
// (which BENCHMARK.json must bound) is printed unbounded.
var bounded = []string{"setup_s", "alloc_mb_per_op", "heap_peak_mb"}

// endToEnd computes every end-to-end metric of an untraced phase.
// setupCPU and setupWall hold each set-up's process CPU and wall time.
// setup_s is the median CPU time: under steal storms wall set-up time
// spread up to 0.41 over ten seeds where its CPU time spread 0.12, and
// CPU time still shows work moved into set-up.
func endToEnd(p *phase, setupCPU, setupWall []float64) map[string]metric {
	lat := append([]float64(nil), p.rec.lat...)
	sort.Float64s(lat)
	ops := float64(p.rec.attempted)
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	set("setup_s", "s", median(setupCPU))
	set("setup_wall_s", "s", median(setupWall))
	set("throughput_ops_s", "1/s", float64(len(lat))/p.wall.Seconds())
	set("latency_p50_ms", "ms", quantile(lat, 0.5))
	set("latency_tail_ms", "ms", tail(lat))
	set("cpu_ms_per_op", "ms", ratio(float64(p.cpu.Microseconds())/1e3, ops))
	set("alloc_mb_per_op", "MiB", ratio(float64(p.rt1.allocBytes-p.rt0.allocBytes)/mib, ops))
	set("heap_peak_mb", "MiB", float64(p.heapPeak)/mib)
	set("journal_kb_per_op", "KiB", ratio(float64(p.journal)/1024, ops))
	if p.rec.recallN > 0 {
		set("recall_at_10", "ratio", p.rec.recall/float64(p.rec.recallN))
	}
	set("error_rate", "ratio", ratio(float64(p.rec.failed), ops))
	set("host.steal_pct", "%", max(0, stealPct(p.host[0], p.host[1])))
	return m
}

// tailBeyond is how many samples lie beyond latency_tail_ms.
const tailBeyond = 10

// tail is the highest latency percentile with tailBeyond samples beyond
// it (the largest sample when there are fewer).
func tail(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(0, len(sorted)-1-tailBeyond)]
}

// tailNote says which percentile latency_tail_ms is, of how many
// samples, and how long the timed phase ran.
func tailNote(p *phase) string {
	n := len(p.rec.lat)
	return fmt.Sprintf("latency_tail_ms is p%.4g of %d samples (%d beyond); timed phase %.4g s",
		100*float64(max(0, n-tailBeyond))/float64(max(n, 1)), n, min(n, tailBeyond), p.wall.Seconds())
}

// stages are the provider pipeline stages dpe_stage_duration_seconds
// observes.
var stages = []string{"prepare", "matrix", "append_extend", "append_rows", "approx_index", "rerank", "mine", "mine_delta"}

func stageMs(obs map[string]float64, stage string) float64 {
	return 1e3 * obs[`dpe_stage_duration_seconds_sum{stage="`+stage+`"}`]
}

// journalKinds are the store record kinds the registry journals.
var journalKinds = []store.Kind{store.KindLog, store.KindSnapshot, store.KindMining, store.KindApprox, store.KindSession, store.KindDelete}

// perLayer fills the per-layer metrics of a traced run. t is the
// traced phases merged, u the untraced phases that alternated with
// them; spans are the traced phases' spans; setup holds the obs samples
// after the last set-up.
//
// Server-side, a layer's time is self time: the handler span minus the
// provider stages, journal appends and server-side codec replays it
// contains (the mine stage's own matrix build, once per ingest-mine
// cycle, counts in both mine and matrix). Client-side, http.client_side_ms_per_op is transport time
// outside the handler span (client HTTP stack, loopback), and
// trace.unattributed_ms_per_op is op time outside both that the
// client-side replays (log hashing, request encoding, response
// decoding) do not explain, floored at 0 per op. Replays are estimates
// re-run next to the op, so layers can overlap; the floor keeps the
// overlap from reading as negative time.
func perLayer(res *result, t, u *phase, spans []span, setup map[string]float64) {
	n := float64(t.rec.attempted)
	ms := map[string]float64{}
	bytes := map[string]float64{}
	count := map[string]float64{}
	kindBytes := map[string]float64{}
	type opTime struct {
		dur, client        float64
		transport, handler [][2]int64
	}
	ops := map[int64]*opTime{}
	opOf := func(id int64) *opTime {
		if ops[id] == nil {
			ops[id] = &opTime{}
		}
		return ops[id]
	}
	for _, s := range spans {
		if s.Op == 0 && s.Name != "journal.append" {
			continue // calls outside ops (stats reads)
		}
		d := float64(s.dur()) / 1e6
		name := s.Name
		if strings.HasPrefix(name, "op.") {
			opOf(s.Op).dur = d
			continue
		}
		ms[name] += d
		bytes[name] += float64(s.Bytes)
		count[name]++
		switch name {
		case "journal.append":
			kindBytes[s.Kind] += float64(s.Bytes)
		case "http.ttfb", "http.body":
			o := opOf(s.Op)
			o.transport = append(o.transport, [2]int64{s.Start, s.End})
		case "http.handler":
			o := opOf(s.Op)
			o.handler = append(o.handler, [2]int64{s.Start, s.End})
		case "replay.logid", "replay.req_encode", "replay.resp_decode":
			opOf(s.Op).client += d
		}
	}
	var clientSide, unattributed float64
	for _, o := range ops {
		tr, hd := union(o.transport), union(o.handler)
		both := union(append(append([][2]int64(nil), o.transport...), o.handler...))
		clientSide += tr - (tr + hd - both)
		unattributed += max(0, o.dur-both-o.client)
	}
	var stagesMs float64
	for _, st := range stages {
		stagesMs += stageMs(t.obs, st)
	}

	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	per := func(v float64) float64 { return ratio(v, n) }

	set("client.logid_ms_per_op", "ms", per(ms["replay.logid"]))

	set("wire.encode_ms_per_op", "ms", per(ms["replay.req_encode"]+ms["replay.resp_encode"]))
	set("wire.decode_ms_per_op", "ms", per(ms["replay.req_decode"]+ms["replay.resp_decode"]))
	set("wire.resp_kb_per_op", "KiB", per(bytes["http.body"]/1024))
	set("wire.req_kb_per_op", "KiB", per(bytes["http.ttfb"]/1024))

	// Server-side replays: the response encode, the request decode, and
	// the mining-state encode the handler runs before journaling it.
	serverReplays := ms["replay.resp_encode"] + ms["replay.req_decode"] + ms["replay.state_encode"]
	set("http.server_ms_per_op", "ms", per(max(0, ms["http.handler"]-stagesMs-ms["journal.append"]-serverReplays)))
	set("http.ttfb_ms_per_op", "ms", per(ms["http.ttfb"]))
	set("http.client_side_ms_per_op", "ms", per(clientSide))

	r := t.reg
	set("registry.cache_hit_ratio", "ratio", ratio(float64(r.hits), float64(r.hits+r.misses)))
	set("registry.approx_hit_ratio", "ratio", ratio(float64(r.approxHits), float64(r.approxHits+r.approxMisses)))
	set("registry.mine_state_hit_ratio", "ratio", ratio(float64(r.mineHits), float64(r.mineHits+r.mineMisses)))
	var evictions float64
	for k, v := range t.obs {
		if strings.HasPrefix(k, "dpe_cache_evictions_total{") {
			evictions += v
		}
	}
	set("registry.evictions_per_op", "count", per(evictions))
	set("registry.flight_dedups_per_op", "count", per(t.obs["dpe_singleflight_dedups_total"]))
	set("registry.cache_mb", "MiB", float64(t.cachePeak)/mib)

	set("distance.prepare_ms", "ms", stageMs(setup, "prepare"))
	set("distance.prepare_ms_per_op", "ms", per(stageMs(t.obs, "prepare")))
	set("distance.matrix_ms_per_op", "ms", per(stageMs(t.obs, "matrix")))
	set("distance.extend_ms_per_op", "ms", per(stageMs(t.obs, "append_extend")))
	set("distance.append_rows_ms_per_op", "ms", per(stageMs(t.obs, "append_rows")))
	set("distance.pairs_per_op", "count", per(float64(t.rec.pairs)))

	set("approx.index_build_ms", "ms", stageMs(setup, "approx_index"))
	set("approx.candidates_ms_per_op", "ms", per(ms["replay.candidates"]))
	set("approx.candidates_per_op", "count", per(float64(t.rec.cands)))
	set("provider.rerank_ms_per_op", "ms", per(max(0, stageMs(t.obs, "rerank")-ms["replay.candidates"])))
	recall := 0.0
	if t.rec.recallN > 0 {
		recall = t.rec.recall / float64(t.rec.recallN)
	}
	set("recall_at_10", "ratio", recall)

	set("mining.mine_ms_per_op", "ms", per(stageMs(t.obs, "mine")+stageMs(t.obs, "mine_delta")))
	set("mining.state_encode_ms_per_op", "ms", per(ms["replay.state_encode"]))
	set("mining.state_kb_per_op", "KiB", per(bytes["replay.state_encode"]/1024))
	set("mining.examined_pairs_per_op", "count", per(float64(t.rec.examined)))
	set("mining.warm_ratio", "ratio", ratio(float64(t.rec.warm), float64(t.rec.mines)))

	set("journal.append_ms_per_op", "ms", per(ms["journal.append"]))
	set("journal.fsync_ms_per_op", "ms", per(1e3*t.obs["dpe_store_fsync_seconds_sum"]))
	set("journal.records_per_op", "count", per(count["journal.append"]))
	for _, k := range journalKinds {
		set("journal.kb_per_op."+string(k), "KiB", per(kindBytes[string(k)]/1024))
	}
	set("journal.write_amplification", "ratio", ratio(float64(t.journal), float64(t.rec.ingested)))
	set("journal_kb_per_op", "KiB", per(float64(t.journal)/1024))

	set("runtime.gc_cycles_per_op", "count", per(float64(t.rt1.gcCycles-t.rt0.gcCycles)))
	set("runtime.gc_cpu_pct", "%", 100*ratio(t.rt1.gcCPU-t.rt0.gcCPU, t.rt1.busyCPU-t.rt0.busyCPU))

	set("host.steal_pct", "%", max(0, stealPct(t.host[0], t.host[1])))
	set("error_rate", "ratio", ratio(float64(t.rec.failed), n))

	set("trace.unattributed_ms_per_op", "ms", per(unattributed))
	tput := func(p *phase) float64 { return float64(len(p.rec.lat)) / p.wall.Seconds() }
	set("trace.overhead_pct", "%", 100*ratio(tput(u)-tput(t), tput(u)))
}

// union is the total length in ms of a set of [start, end] ns intervals.
func union(iv [][2]int64) float64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64
	for _, v := range iv {
		if v[0] > end {
			end = v[0]
		}
		if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return float64(total) / 1e6
}

// traceOptions installs the tracer's decorators on the stack's public
// seams; a transport decoration already in opts stays inside the
// tracer's.
func traceOptions(tr *tracer, opts stackOptions) stackOptions {
	return stackOptions{
		store:   tr.store,
		handler: tr.handler,
		transport: func(rt http.RoundTripper) http.RoundTripper {
			if opts.transport != nil {
				rt = opts.transport(rt)
			}
			return tr.transport(rt)
		},
	}
}

// digestTree hashes the files under root that keep selects, in path
// order, skipping hidden directories and build output. It fails when
// root holds no go.mod: the benchmark must run from the repository
// root.
func digestTree(root string, keep func(string) bool) (string, error) {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return "", fmt.Errorf("no go.mod in the working directory: run from the repository root")
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !keep(p) {
			return nil
		}
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(p))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// printShares prints each per-layer time as a share of the traced
// phases' mean op latency. Layers can overlap (replays are estimates),
// so the shares need not sum to 100%.
func printShares(cfg config, ms map[string]metric, t *phase) {
	var sum float64
	for _, l := range t.rec.lat {
		sum += l
	}
	mean := ratio(sum, float64(len(t.rec.lat)))
	names := make([]string, 0, len(ms))
	for n := range ms {
		if strings.HasSuffix(n, "_ms_per_op") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		cfg.printf("share %-34s %6.2f%% of the mean op (%.4g ms)\n", n, 100*ratio(ms[n].Value, mean), mean)
	}
}
