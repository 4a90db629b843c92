// Command dpeserver runs the untrusted service provider of the paper as
// an actual network service. A data owner ships the encrypted Table I
// artifacts to it over HTTP, uploads encrypted query logs into a
// session, and mines on ciphertext remotely:
//
//	dpeserver -addr :8433 -par 8 -max-sessions 256 -shards 16 -data-dir /var/lib/dpe
//
// Multi-tenant state is sharded by session id over a consistent-hash
// ring (-shards, default GOMAXPROCS rounded to a power of two): each
// shard owns its own lock, singleflight group, and slice of the
// prepared-state cache, so tenants on different shards never contend.
//
// With -data-dir, every shard journals its sessions, uploaded logs,
// and cached artifacts — prepared-state snapshots and mining states —
// to an append-only segment file there; a restarted
// dpeserver replays the journals, so tenants resume without
// re-uploading artifacts and the first request after a restart hits
// the warm cache. Each shard's janitor compacts its journal every
// -compact-interval, dropping deleted sessions' records. The data
// directory is exclusively locked — a second dpeserver pointed at the
// same directory fails at startup instead of corrupting journals.
// Without -data-dir the server keeps everything in memory.
//
// The API lives under /v1 (see internal/service):
//
//	POST   /v1/sessions                   create a session (measure + artifacts)
//	GET    /v1/sessions/{id}              session stats (logs, cache hits)
//	DELETE /v1/sessions/{id}              drop the session
//	POST   /v1/sessions/{id}/logs         upload a query log (content-addressed)
//	POST   /v1/sessions/{id}/matrix       full distance matrix (streamed)
//	POST   /v1/sessions/{id}/distances    one matrix row (kNN access pattern)
//	POST   /v1/sessions/{id}/mine         matrix + mining algorithm
//	POST   /v1/sessions/{id}/verify       Definition 1 check on two matrices
//	GET    /v1/stats                      server-wide stats
//	GET    /v1/healthz                    liveness
//
// With -metrics-addr, a second listener (kept off the tenant port so an
// operator can firewall it separately) serves GET /metrics in Prometheus
// text format — request-latency histograms per route, per-shard cache
// gauges, journal counters, and provider stage timings — and, with
// -pprof, the net/http/pprof profiling endpoints under /debug/pprof/.
// Every request carries an X-Request-Id (honored when the client sends
// one, minted otherwise) that appears in the access log, in error
// bodies, and in client error strings; requests slower than
// -slow-request are logged at warning level with their per-stage span
// breakdown.
//
// The server never holds key material: sessions carry only ciphertext
// artifacts and the public aggregate-evaluation key. SIGINT/SIGTERM
// drain in-flight requests before exit (-shutdown-grace bounds the
// drain).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// serverConfig is the fully-validated outcome of flag parsing — what
// run needs to start serving.
type serverConfig struct {
	addr        string
	grace       time.Duration
	dataDir     string // segment-journal directory; "" = in-memory
	metricsAddr string
	pprof       bool
	slowRequest time.Duration
	service     service.Config
}

// parseConfig parses and validates the command line without touching
// the process (no flag.ExitOnError, no os.Exit), so tests can drive it.
func parseConfig(args []string) (*serverConfig, error) {
	fs := flag.NewFlagSet("dpeserver", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	addr := fs.String("addr", ":8433", "listen address")
	par := fs.Int("par", 0, "distance-engine parallelism per session (0 = all cores)")
	maxSessions := fs.Int("max-sessions", 64, "maximum live sessions")
	shards := fs.Int("shards", 0, "session/cache shards (0 = GOMAXPROCS rounded up to a power of two)")
	cacheEntries := fs.Int("cache-entries", 128, "prepared-state cache: max entries")
	cacheBytes := fs.Int64("cache-bytes", 64<<20, "prepared-state cache: max estimated bytes")
	maxLogs := fs.Int("max-logs", 64, "max distinct uploaded logs per session")
	maxLogBytes := fs.Int64("max-log-bytes", 64<<20, "max total raw log bytes per session")
	sessionTTL := fs.Duration("session-ttl", 2*time.Hour, "idle time after which a session may be reaped at capacity")
	grace := fs.Duration("shutdown-grace", 10*time.Second, "graceful-shutdown drain window")
	dataDir := fs.String("data-dir", "", "persist sessions, logs, and cached artifacts to per-shard journals in this directory ('' = in-memory only)")
	compactInterval := fs.Duration("compact-interval", 10*time.Minute, "how often each shard's janitor compacts its journal (requires -data-dir; <= 0 disables)")
	metricsAddr := fs.String("metrics-addr", "", "serve GET /metrics (Prometheus text) on this address ('' = no metrics listener)")
	pprofOn := fs.Bool("pprof", false, "also serve /debug/pprof/ on the metrics listener (requires -metrics-addr)")
	slowRequest := fs.Duration("slow-request", 1*time.Second, "log requests slower than this at warning level with stage spans (<= 0 disables)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *addr == "" {
		return nil, fmt.Errorf("-addr must not be empty")
	}
	if *par <= 0 {
		*par = runtime.NumCPU()
	}
	if *shards < 0 {
		return nil, fmt.Errorf("-shards must not be negative, got %d", *shards)
	}
	if *shards == 0 {
		*shards = service.DefaultShards()
	}
	for name, v := range map[string]int64{
		"-max-sessions":  int64(*maxSessions),
		"-cache-entries": int64(*cacheEntries),
		"-cache-bytes":   *cacheBytes,
		"-max-logs":      int64(*maxLogs),
		"-max-log-bytes": *maxLogBytes,
	} {
		if v <= 0 {
			return nil, fmt.Errorf("%s must be positive, got %d", name, v)
		}
	}
	if *sessionTTL <= 0 {
		return nil, fmt.Errorf("-session-ttl must be positive, got %v", *sessionTTL)
	}
	if *grace < 0 {
		return nil, fmt.Errorf("-shutdown-grace must not be negative, got %v", *grace)
	}
	if *compactInterval <= 0 {
		*compactInterval = -1 // Config semantics: negative disables, 0 means the default
	}
	if *pprofOn && *metricsAddr == "" {
		return nil, fmt.Errorf("-pprof requires -metrics-addr (profiling is served on the metrics listener)")
	}
	if *slowRequest < 0 {
		*slowRequest = 0 // Handler semantics: 0 disables slow-request tracing
	}
	return &serverConfig{
		addr:        *addr,
		grace:       *grace,
		dataDir:     *dataDir,
		metricsAddr: *metricsAddr,
		pprof:       *pprofOn,
		slowRequest: *slowRequest,
		service: service.Config{
			MaxSessions:           *maxSessions,
			Parallelism:           *par,
			CacheEntries:          *cacheEntries,
			CacheBytes:            *cacheBytes,
			MaxLogsPerSession:     *maxLogs,
			MaxLogBytesPerSession: *maxLogBytes,
			SessionTTL:            *sessionTTL,
			Shards:                *shards,
			CompactEvery:          *compactInterval,
		},
	}, nil
}

func main() {
	sc, err := parseConfig(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpeserver:", err)
		os.Exit(2)
	}
	if err := run(sc); err != nil {
		fmt.Fprintln(os.Stderr, "dpeserver:", err)
		os.Exit(1)
	}
}

func run(sc *serverConfig) error {
	addr, cfg, grace := sc.addr, sc.service, sc.grace
	// The obs registry exists whether or not a metrics listener does:
	// instrumentation is wired once, and -metrics-addr only decides
	// whether anything scrapes it.
	metrics := obs.NewRegistry()
	if sc.dataDir != "" {
		st, err := store.OpenBackend("segments", sc.dataDir)
		if err != nil {
			return err
		}
		if in, ok := st.(store.Instrumenter); ok {
			in.Instrument(metrics)
		}
		cfg.Store = st
	}
	cfg.Obs = metrics
	reg, err := service.OpenRegistry(cfg)
	if err != nil {
		return err
	}
	defer reg.Close() // stop the janitors and sync the journals on the way out
	if sc.dataDir != "" {
		rec := reg.Recovery()
		log.Printf("dpeserver: recovered from %s: %d sessions, %d logs, %d prepared snapshots, %d mining states (%d tombstones, %d skipped records)",
			sc.dataDir, rec.Sessions, rec.Logs, rec.Snapshots, rec.MineStates, rec.Tombstones, rec.Skipped)
	}
	srv := &http.Server{
		Addr: addr,
		Handler: service.NewHandlerWithOptions(reg, service.HandlerOptions{
			Obs:         metrics,
			Logger:      slog.Default(),
			SlowRequest: sc.slowRequest,
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 2)
	var metricsSrv *http.Server
	if sc.metricsAddr != "" {
		mmux := http.NewServeMux()
		mmux.Handle("/metrics", metrics.Handler())
		if sc.pprof {
			// The default-mux registrations in net/http/pprof are side
			// effects we skip (blank import pollutes DefaultServeMux);
			// mount the handlers explicitly instead.
			mmux.HandleFunc("/debug/pprof/", pprof.Index)
			mmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		metricsSrv = &http.Server{
			Addr:              sc.metricsAddr,
			Handler:           mmux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			log.Printf("dpeserver: metrics on %s (pprof %v)", sc.metricsAddr, sc.pprof)
			if err := metricsSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				errc <- fmt.Errorf("metrics listener: %w", err)
			}
		}()
	}

	go func() {
		log.Printf("dpeserver: listening on %s (parallelism %d, %d shards, max %d sessions, cache %d entries / %d bytes)",
			addr, cfg.Parallelism, cfg.Shards, cfg.MaxSessions, cfg.CacheEntries, cfg.CacheBytes)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("dpeserver: shutting down (draining up to %s)", grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if metricsSrv != nil {
		metricsSrv.Shutdown(shutdownCtx)
	}
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("dpeserver: bye")
	return nil
}
