package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

func TestParseConfigDefaults(t *testing.T) {
	sc, err := parseConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sc.addr != ":8433" {
		t.Errorf("addr = %q, want :8433", sc.addr)
	}
	if sc.grace != 10*time.Second {
		t.Errorf("grace = %v, want 10s", sc.grace)
	}
	cfg := sc.service
	if cfg.MaxSessions != 64 || cfg.CacheEntries != 128 || cfg.CacheBytes != 64<<20 {
		t.Errorf("service defaults = %+v", cfg)
	}
	if cfg.Parallelism <= 0 {
		t.Errorf("parallelism = %d, want all cores", cfg.Parallelism)
	}
	if cfg.SessionTTL != 2*time.Hour {
		t.Errorf("session TTL = %v, want 2h", cfg.SessionTTL)
	}
	if cfg.Shards != service.DefaultShards() {
		t.Errorf("shards = %d, want the GOMAXPROCS-derived default %d", cfg.Shards, service.DefaultShards())
	}
	if s := cfg.Shards; s&(s-1) != 0 || s < 1 {
		t.Errorf("default shards = %d, want a power of two", s)
	}
	if sc.dataDir != "" {
		t.Errorf("data dir = %q, want in-memory by default", sc.dataDir)
	}
	if cfg.CompactEvery != 10*time.Minute {
		t.Errorf("compact interval = %v, want 10m", cfg.CompactEvery)
	}
	if sc.metricsAddr != "" || sc.pprof {
		t.Errorf("metrics listener on by default: addr=%q pprof=%v", sc.metricsAddr, sc.pprof)
	}
	if sc.slowRequest != time.Second {
		t.Errorf("slow-request threshold = %v, want 1s", sc.slowRequest)
	}
}

// TestParseConfigObservabilityFlags pins the metrics/pprof/slow-request
// wiring: pprof rides the metrics listener (so it cannot be requested
// without one), and a non-positive slow-request threshold disables the
// tracing instead of warning on every request.
func TestParseConfigObservabilityFlags(t *testing.T) {
	sc, err := parseConfig([]string{"-metrics-addr", "127.0.0.1:9100", "-pprof", "-slow-request", "250ms"})
	if err != nil {
		t.Fatal(err)
	}
	if sc.metricsAddr != "127.0.0.1:9100" || !sc.pprof {
		t.Errorf("parsed metrics addr=%q pprof=%v", sc.metricsAddr, sc.pprof)
	}
	if sc.slowRequest != 250*time.Millisecond {
		t.Errorf("slow-request = %v, want 250ms", sc.slowRequest)
	}
	if _, err := parseConfig([]string{"-pprof"}); err == nil || !strings.Contains(err.Error(), "-metrics-addr") {
		t.Errorf("-pprof without -metrics-addr = %v, want an error naming -metrics-addr", err)
	}
	sc, err = parseConfig([]string{"-slow-request", "-1s"})
	if err != nil {
		t.Fatal(err)
	}
	if sc.slowRequest != 0 {
		t.Errorf("-slow-request -1s mapped to %v, want the 0 disable sentinel", sc.slowRequest)
	}
}

// TestParseConfigPersistenceFlags pins the -data-dir / -compact-interval
// wiring: -data-dir names the segment-journal directory, and a
// non-positive interval disables periodic compaction (the registry's
// negative sentinel) instead of silently meaning "use the default".
func TestParseConfigPersistenceFlags(t *testing.T) {
	sc, err := parseConfig([]string{"-data-dir", "/tmp/dpe-data", "-compact-interval", "30s"})
	if err != nil {
		t.Fatal(err)
	}
	if sc.dataDir != "/tmp/dpe-data" {
		t.Errorf("data dir = %q, want /tmp/dpe-data", sc.dataDir)
	}
	if sc.service.CompactEvery != 30*time.Second {
		t.Errorf("compact interval = %v, want 30s", sc.service.CompactEvery)
	}
	for _, v := range []string{"0s", "-5m"} {
		sc, err := parseConfig([]string{"-compact-interval", v})
		if err != nil {
			t.Fatal(err)
		}
		if sc.service.CompactEvery >= 0 {
			t.Errorf("-compact-interval %s mapped to %v, want a negative disable sentinel", v, sc.service.CompactEvery)
		}
	}
}

func TestParseConfigOverrides(t *testing.T) {
	sc, err := parseConfig([]string{
		"-addr", "127.0.0.1:9000", "-par", "3", "-max-sessions", "5",
		"-cache-entries", "7", "-cache-bytes", "1024", "-max-logs", "2",
		"-max-log-bytes", "2048", "-session-ttl", "5m", "-shutdown-grace", "1s",
		"-shards", "16",
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sc.service
	if sc.addr != "127.0.0.1:9000" || cfg.Parallelism != 3 || cfg.MaxSessions != 5 ||
		cfg.CacheEntries != 7 || cfg.CacheBytes != 1024 || cfg.MaxLogsPerSession != 2 ||
		cfg.MaxLogBytesPerSession != 2048 || cfg.SessionTTL != 5*time.Minute || sc.grace != time.Second ||
		cfg.Shards != 16 {
		t.Errorf("parsed = %+v / %+v", sc, cfg)
	}
}

func TestParseConfigRejectsBadValues(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-addr", ""}, "-addr"},
		{[]string{"-max-sessions", "0"}, "-max-sessions"},
		{[]string{"-max-sessions", "-4"}, "-max-sessions"},
		{[]string{"-cache-entries", "0"}, "-cache-entries"},
		{[]string{"-cache-bytes", "-1"}, "-cache-bytes"},
		{[]string{"-max-logs", "0"}, "-max-logs"},
		{[]string{"-max-log-bytes", "0"}, "-max-log-bytes"},
		{[]string{"-session-ttl", "0s"}, "-session-ttl"},
		{[]string{"-shards", "-1"}, "-shards"},
		{[]string{"-shutdown-grace", "-1s"}, "-shutdown-grace"},
		{[]string{"-par", "x"}, "invalid value"},
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
		{[]string{"stray"}, "unexpected arguments"},
	}
	for _, c := range cases {
		_, err := parseConfig(c.args)
		if err == nil {
			t.Errorf("parseConfig(%v) succeeded, want error mentioning %q", c.args, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("parseConfig(%v) = %v, want error mentioning %q", c.args, err, c.want)
		}
	}
}

// TestParseConfigZeroParMeansAllCores pins the 0-sentinel behavior.
func TestParseConfigZeroParMeansAllCores(t *testing.T) {
	sc, err := parseConfig([]string{"-par", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if sc.service.Parallelism < 1 {
		t.Errorf("parallelism = %d", sc.service.Parallelism)
	}
}
