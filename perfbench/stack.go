package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// dpeserverConfig is the service configuration cmd/dpeserver builds
// from its default flags (-par 0 = all cores, -shards 0 = GOMAXPROCS
// rounded up, the flag defaults for every budget).
func dpeserverConfig() service.Config {
	return service.Config{
		MaxSessions:           64,
		Parallelism:           runtime.NumCPU(),
		CacheEntries:          128,
		CacheBytes:            64 << 20,
		MaxLogsPerSession:     64,
		MaxLogBytesPerSession: 64 << 20,
		SessionTTL:            2 * time.Hour,
		Shards:                service.DefaultShards(),
		CompactEvery:          10 * time.Minute,
	}
}

// stack is one in-process dpeserver and the client that drives it over
// loopback HTTP.
type stack struct {
	dir       string
	obs       *obs.Registry
	reg       *service.Registry
	srv       *http.Server
	served    chan error
	transport *http.Transport
	client    *service.Client
}

// stackOptions decorates the stack's public seams; zero values leave
// them as cmd/dpeserver wires them.
type stackOptions struct {
	store     func(store.Store) store.Store
	handler   func(http.Handler) http.Handler
	transport func(http.RoundTripper) http.RoundTripper
}

// openStack builds the server the way cmd/dpeserver -data-dir dir does
// — segments store instrumented on the obs registry, default registry
// config, NewHandlerWithOptions with the access log discarded — and
// serves it on an ephemeral loopback port.
func openStack(dir string, opts stackOptions) (*stack, error) {
	metrics := obs.NewRegistry()
	st, err := store.OpenBackend("segments", dir)
	if err != nil {
		return nil, err
	}
	if in, ok := st.(store.Instrumenter); ok {
		in.Instrument(metrics)
	}
	cfg := dpeserverConfig()
	cfg.Store, cfg.Obs = st, metrics
	if opts.store != nil {
		cfg.Store = opts.store(st)
	}
	reg, err := service.OpenRegistry(cfg)
	if err != nil {
		st.Close()
		return nil, err
	}
	var h http.Handler = service.NewHandlerWithOptions(reg, service.HandlerOptions{
		Obs:         metrics,
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
		SlowRequest: time.Second,
	})
	if opts.handler != nil {
		h = opts.handler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.Close()
		return nil, err
	}
	s := &stack{
		dir:    dir,
		obs:    metrics,
		reg:    reg,
		srv:    &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		// No proxy: the benchmark talks to its own loopback listener.
		transport: &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: time.Minute},
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	var rt http.RoundTripper = s.transport
	if opts.transport != nil {
		rt = opts.transport(rt)
	}
	s.client = service.NewClient("http://"+ln.Addr().String(), service.WithHTTPClient(&http.Client{Transport: rt}))
	return s, nil
}

// close drains the server, closes the registry (syncing the journals)
// and removes the data directory.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.transport.CloseIdleConnections()
	s.reg.Close()
	if rerr := os.RemoveAll(s.dir); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		return fmt.Errorf("closing server stack: %w", err)
	}
	return nil
}
