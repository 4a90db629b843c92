package service

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	dpe "repro"
	"repro/internal/obs"
	"repro/internal/service/ring"
	"repro/internal/store"
	"repro/internal/store/journal"
)

// notFoundError marks lookup failures (unknown session or log) so the
// HTTP layer maps them to 404 instead of 400.
type notFoundError struct{ err error }

func (e notFoundError) Error() string  { return e.err.Error() }
func (e notFoundError) Unwrap() error  { return e.err }
func (e notFoundError) NotFound() bool { return true }

// Config tunes a Registry.
type Config struct {
	// MaxSessions bounds concurrently live sessions across all shards;
	// 0 means 64.
	MaxSessions int
	// Parallelism sizes each session provider's distance-engine worker
	// pool; <= 1 means sequential.
	Parallelism int
	// CacheEntries bounds the prepared-state cache's total entry count;
	// 0 means 128. The budget is split evenly across shards (rounded
	// up, minimum one entry per shard).
	CacheEntries int
	// CacheBytes bounds the prepared-state cache's estimated total
	// size; 0 means 64 MiB. Split across shards like CacheEntries.
	CacheBytes int64
	// MaxLogsPerSession bounds distinct uploaded logs per session; 0
	// means 64.
	MaxLogsPerSession int
	// MaxLogBytesPerSession bounds the total raw bytes of a session's
	// uploaded logs; 0 means 64 MiB.
	MaxLogBytesPerSession int64
	// SessionTTL is how long an idle session survives: the background
	// janitor reaps sessions untouched for longer, and CreateSession
	// reaps synchronously when the registry is full. 0 means 2 hours.
	SessionTTL time.Duration
	// Shards is the number of session shards — independent lock domains
	// each owning a slice of the session map, a singleflight group, and
	// a prepared-state LRU. 0 means DefaultShards(). 1 reproduces the
	// historical unsharded registry exactly.
	Shards int
	// JanitorInterval is how often each shard's janitor scans for
	// TTL-expired sessions. 0 means SessionTTL/4 clamped to [1s, 5m];
	// < 0 disables the background janitor entirely (idle sessions are
	// then reaped only when CreateSession hits capacity).
	JanitorInterval time.Duration
	// Store is the persistence seam: session creations/deletions, log
	// uploads, and prepared-state snapshots are journaled to one
	// store.Log per shard, and OpenRegistry replays them so a restart
	// loses no tenant state. nil means store.Null{} — the historical
	// in-memory registry.
	Store store.Store
	// CompactEvery is how often each shard's janitor additionally
	// rewrites the shard's journal down to its live records (dropping
	// tombstoned sessions and superseded snapshots). 0 means 10
	// minutes; < 0 disables periodic compaction. Ignored without a
	// persistent Store.
	CompactEvery time.Duration
	// Obs, when set, wires the registry's instruments into a metrics
	// registry (session lifecycle counters, cache gauges, singleflight
	// dedups, provider stage histograms — see metrics.go). nil leaves
	// the registry uninstrumented at zero per-request cost.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.MaxLogsPerSession <= 0 {
		c.MaxLogsPerSession = 64
	}
	if c.MaxLogBytesPerSession <= 0 {
		c.MaxLogBytesPerSession = 64 << 20
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 2 * time.Hour
	}
	if c.Shards <= 0 {
		c.Shards = DefaultShards()
	}
	if c.JanitorInterval == 0 {
		c.JanitorInterval = c.SessionTTL / 4
		if c.JanitorInterval < time.Second {
			c.JanitorInterval = time.Second
		}
		if c.JanitorInterval > 5*time.Minute {
			c.JanitorInterval = 5 * time.Minute
		}
	}
	if c.Store == nil {
		c.Store = store.Null{}
	}
	if c.CompactEvery == 0 {
		c.CompactEvery = 10 * time.Minute
	}
	return c
}

// DefaultShards derives a shard count from GOMAXPROCS, rounded up to
// the next power of two and clamped to [1, 256]: enough lock domains
// that cores rarely collide, few enough that split cache budgets stay
// meaningful.
func DefaultShards() int {
	n := runtime.GOMAXPROCS(0)
	s := 1
	for s < n && s < 256 {
		s <<= 1
	}
	return s
}

// CreateSessionRequest is the wire body of POST /v1/sessions: the
// measure plus whatever Table I shared artifacts it needs. Catalog (with
// an optional aggregator key for encrypted content) belongs to the
// result measure, Domains to the access-area measure.
type CreateSessionRequest struct {
	// Measure is required: a pointer so an absent (or misspelled) field
	// is an error instead of silently defaulting to the token measure.
	Measure       *dpe.Measure          `json:"measure"`
	Catalog       *WireCatalog          `json:"catalog,omitempty"`
	AggregatorKey *WireAggregatorKey    `json:"aggregator_key,omitempty"`
	Domains       map[string]WireDomain `json:"domains,omitempty"`
	AccessAreaX   float64               `json:"access_area_x,omitempty"`
	Tolerance     float64               `json:"tolerance,omitempty"`
}

// SessionStats is the wire body of GET /v1/sessions/{id}: what a tenant
// can observe about its session, including whether its calls are being
// served from the prepared-state cache.
type SessionStats struct {
	Session        string      `json:"session"`
	Measure        dpe.Measure `json:"measure"`
	Logs           int         `json:"logs"`
	PreparedHits   int64       `json:"prepared_hits"`
	PreparedMisses int64       `json:"prepared_misses"`
	// ApproxHits/ApproxMisses are always 0: the server no longer builds
	// or caches an approx index. The fields stay on the wire for clients
	// that read them.
	ApproxHits   int64 `json:"approx_hits"`
	ApproxMisses int64 `json:"approx_misses"`
	// MineStateHits/MineStateMisses count mining-state cache outcomes on
	// the logs:append_mine path. A restart that recovered the state from
	// the journal warm-starts the first post-restart mine (a miss whose
	// result reports Warm) instead of bootstrapping cold.
	MineStateHits   int64     `json:"mine_state_hits"`
	MineStateMisses int64     `json:"mine_state_misses"`
	CreatedAt       time.Time `json:"created_at"`
}

// ShardStats is one shard's slice of GET /v1/stats?per_shard=1.
type ShardStats struct {
	Shard         int        `json:"shard"`
	Sessions      int        `json:"sessions"`
	PreparedCache CacheStats `json:"prepared_cache"`
}

// RecoveryStats counts what OpenRegistry replayed from a persistent
// store — the observable proof that a restart recovered tenant state
// instead of starting cold.
type RecoveryStats struct {
	// Sessions, Logs, Snapshots, and MineStates count the live records
	// restored.
	Sessions   int `json:"sessions"`
	Logs       int `json:"logs"`
	Snapshots  int `json:"snapshots"`
	MineStates int `json:"mine_states"`
	// Tombstones counts replayed deletions (sessions journaled and
	// later removed; startup compaction drops them from the journal).
	Tombstones int `json:"tombstones"`
	// Skipped counts records that could not be applied: unknown kinds
	// (from newer binaries, or the approx indexes older ones
	// journaled), orphaned logs/snapshots of tombstoned sessions, or
	// undecodable payloads.
	Skipped int `json:"skipped"`
}

// total is the number of applied-or-seen records — used to decide
// whether a startup compaction is worth doing.
func (rs RecoveryStats) total() int {
	return rs.Sessions + rs.Logs + rs.Snapshots + rs.MineStates + rs.Tombstones + rs.Skipped
}

// absorb folds one journal's typed replay counts into the recovery
// report (the registry replays one journal per shard, plus orphans).
func (rs *RecoveryStats) absorb(st journal.Stats) {
	rs.Sessions += st.Sessions
	rs.Logs += st.Logs
	rs.Snapshots += st.Snapshots
	rs.MineStates += st.Mining
	rs.Tombstones += st.Deletes
	rs.Skipped += st.Skipped
}

// RegistryStats is the wire body of GET /v1/stats. The top-level fields
// aggregate across shards (wire-compatible with the unsharded format);
// PerShard carries the optional breakdown, and Recovered appears only
// on registries opened from a persistent store.
type RegistryStats struct {
	Sessions      int        `json:"sessions"`
	MaxSessions   int        `json:"max_sessions"`
	Shards        int        `json:"shards"`
	PreparedCache CacheStats `json:"prepared_cache"`
	// MineStateHits/MineStateMisses aggregate the sessions' mining-state
	// cache outcomes registry-wide. They are monotonic (they survive
	// session deletion), so /metrics exports the same counters as
	// dpe_mine_state_{hits,misses}_total and the two views reconcile
	// exactly.
	MineStateHits   int64          `json:"mine_state_hits"`
	MineStateMisses int64          `json:"mine_state_misses"`
	Recovered       *RecoveryStats `json:"recovered,omitempty"`
	PerShard        []ShardStats   `json:"per_shard,omitempty"`
}

// Registry is the service's multi-tenant state, sharded by session id:
// a consistent-hash ring routes every id to one of N shards, each with
// its own mutex, session map, singleflight group, prepared-state LRU,
// and (when persistent) journal — so tenant traffic on different shards
// never shares a lock. All methods are safe for concurrent use.
type Registry struct {
	cfg    Config
	router *ring.Ring
	shards []*shard

	// persistent is true when cfg.Store journals for real (not Null):
	// the write-through hooks and the janitor's compaction activate
	// only then.
	persistent bool
	recovered  RecoveryStats
	// replayDeleted remembers every tombstoned id seen during replay,
	// including deletes whose create record has not been replayed yet
	// (journals replay in file order, and a re-homed session's create
	// can live in a later journal than its tombstone). A create for a
	// remembered id is stale — session ids are random and never reused
	// — and must not resurrect. Only used inside OpenRegistry; nil
	// afterwards.
	replayDeleted map[string]bool

	// live is the registry-wide session count: capacity is a global
	// budget enforced lock-free, so MaxSessions means the same thing at
	// every shard count.
	live atomic.Int64

	// artifactHits/artifactMisses are the registry-wide artifact cache
	// counters per kind: bumped alongside the per-session ones, and for
	// mining states read by both GET /v1/stats and the /metrics series,
	// so the two views are one source and reconcile exactly.
	// Registry-level (not summed from sessions) so they stay monotonic
	// across session deletion.
	artifactHits, artifactMisses [numArtifacts]atomic.Int64

	// metrics holds the obs instruments (all nil unless cfg.Obs is set
	// — every call site tolerates that; see metrics.go).
	metrics registryMetrics

	stop        chan struct{}
	janitors    sync.WaitGroup
	closeOnce   sync.Once
	journalOnce sync.Once
}

// NewRegistry creates an empty in-memory registry and, unless the
// janitor is disabled, starts one background reaper goroutine per
// shard. Callers that care about goroutine hygiene should Close it when
// done. It panics if a persistent Store is configured and fails to open
// or replay — callers wiring real persistence should use OpenRegistry
// and handle the error.
func NewRegistry(cfg Config) *Registry {
	r, err := OpenRegistry(cfg)
	if err != nil {
		panic(fmt.Sprintf("service: NewRegistry with a failing store: %v", err))
	}
	return r
}

// OpenRegistry creates a registry and, when cfg.Store persists, replays
// every shard's journal so the process resumes exactly where its
// predecessor stopped: sessions route to the same shards (the ring's
// key→shard map is stable), uploaded logs are servable, and replayed
// prepared-state snapshots make the first post-restart request a cache
// hit. After a successful replay the journals are compacted once,
// dropping tombstones and re-homing records if the shard count changed.
func OpenRegistry(cfg Config) (*Registry, error) {
	cfg = cfg.withDefaults()
	r := &Registry{
		cfg:    cfg,
		router: ring.New(cfg.Shards),
		shards: make([]*shard, cfg.Shards),
		stop:   make(chan struct{}),
	}
	_, isNull := cfg.Store.(store.Null)
	r.persistent = !isNull
	entries := splitEntries(cfg.CacheEntries, cfg.Shards)
	bytes := splitBytes(cfg.CacheBytes, cfg.Shards)
	for i := range r.shards {
		lg, err := cfg.Store.Open(i)
		if err != nil {
			r.closeJournals()
			return nil, fmt.Errorf("service: opening shard %d journal: %w", i, err)
		}
		r.shards[i] = newShard(entries, bytes, journal.New(lg))
	}
	if r.persistent {
		r.replayDeleted = make(map[string]bool)
		if err := r.replay(); err != nil {
			r.closeJournals()
			return nil, err
		}
		// A previous run may have used more shards: replay the extra
		// journals too (records route by id, so sessions land on their
		// new owning shard) and retire them once the owning shards'
		// compaction has re-homed every record.
		orphans, err := r.replayOrphans()
		if err != nil {
			for _, orphan := range orphans {
				orphan.Close()
			}
			r.closeJournals()
			return nil, err
		}
		if r.recovered.total() > 0 {
			// Normalize after recovery: tombstones drop, duplicate records
			// collapse, and a session whose id now routes elsewhere (the
			// operator changed -shards) moves to its owning shard's journal.
			for _, sh := range r.shards {
				if err := r.compactShard(sh); err != nil {
					r.closeJournals()
					return nil, fmt.Errorf("service: startup compaction: %w", err)
				}
			}
		}
		for _, orphan := range orphans {
			// Best-effort: a failed retirement means the orphan is
			// re-replayed next boot — harmless, because duplicates are
			// idempotent and replayDeleted blocks stale creates.
			orphan.Compact(nil) // nil collect empties the journal
			orphan.Close()
		}
		r.replayDeleted = nil
	}
	// Wire metrics after replay (recovery never pollutes the serving
	// counters — RecoveryStats reports it separately) and before the
	// janitors start reading the reap counters.
	if cfg.Obs != nil {
		r.wireMetrics(cfg.Obs)
	}
	if cfg.JanitorInterval > 0 {
		for _, sh := range r.shards {
			r.janitors.Add(1)
			go r.janitor(sh)
		}
	}
	return r, nil
}

// replay streams every shard's journal back into memory through the
// typed handler. Records are routed by session id through the ring —
// not by which file they were found in — so a journal written under a
// different shard count still recovers completely.
func (r *Registry) replay() error {
	h := replayApplier{r}
	for i, sh := range r.shards {
		st, err := sh.journal.Replay(h)
		r.recovered.absorb(st)
		if err != nil {
			return fmt.Errorf("service: replaying shard %d journal: %w", i, err)
		}
	}
	return nil
}

// replayOrphans replays journals of shards beyond the configured count
// and returns their handles so the caller can retire them after the
// live shards' compaction has re-homed the records.
func (r *Registry) replayOrphans() ([]*journal.Journal, error) {
	indexes, err := r.cfg.Store.List()
	if err != nil {
		return nil, fmt.Errorf("service: listing journals: %w", err)
	}
	var orphans []*journal.Journal
	for _, idx := range indexes {
		if idx < r.cfg.Shards {
			continue // owned by a live shard, already replayed
		}
		lg, err := r.cfg.Store.Open(idx)
		if err != nil {
			return orphans, fmt.Errorf("service: opening orphan journal %d: %w", idx, err)
		}
		jl := journal.New(lg)
		st, err := jl.Replay(replayApplier{r})
		r.recovered.absorb(st)
		if err != nil {
			jl.Close()
			return orphans, fmt.Errorf("service: replaying orphan journal %d: %w", idx, err)
		}
		orphans = append(orphans, jl)
	}
	return orphans, nil
}

// replayApplier is the journal.Handler that applies replayed records to
// the registry. Replay is idempotent (duplicates report Ignored) and
// tolerant: a record it cannot apply reports Skipped, never fatal — the
// journal is a recovery aid, and partial recovery beats refusing to
// start.
type replayApplier struct{ r *Registry }

func (a replayApplier) Session(js journal.Session) journal.Outcome {
	return a.r.restoreSession(js)
}

func (a replayApplier) Delete(d journal.Delete) journal.Outcome {
	r := a.r
	// Remember the tombstone even when the session is not (yet) live:
	// its create record may still be waiting in a later journal, and
	// replaying it then must not resurrect the tenant.
	r.replayDeleted[d.ID] = true
	r.drop(d.ID)
	return journal.Applied
}

func (a replayApplier) Log(l journal.Log) journal.Outcome {
	s := a.r.replaySession(l.SessionID)
	if s == nil {
		return journal.Skipped
	}
	if !s.restoreLog(l.LogID, l.Queries) {
		return journal.Ignored // already present: harmless duplicate
	}
	return journal.Applied
}

func (a replayApplier) Artifact(art journal.Artifact) journal.Outcome {
	s := a.r.replaySession(art.SessionID)
	if s == nil {
		return journal.Skipped
	}
	return s.restore(art)
}

// replaySession resolves a record's session during replay, or nil.
func (r *Registry) replaySession(id string) *session {
	if id == "" {
		return nil
	}
	return r.shardFor(id).session(id)
}

// restoreSession rebuilds one session from its journaled create
// request. The session's idle clock restarts at recovery time: its
// tenant gets a full TTL to come back, rather than being reaped for
// idleness accrued while the server was down.
func (r *Registry) restoreSession(js journal.Session) journal.Outcome {
	var req CreateSessionRequest
	if err := json.Unmarshal(js.Request, &req); err != nil || req.Measure == nil {
		return journal.Skipped
	}
	if r.replayDeleted[js.ID] {
		return journal.Skipped // stale create of an already-tombstoned id
	}
	if r.shardFor(js.ID).session(js.ID) != nil {
		return journal.Ignored // duplicate (e.g. compaction raced an append)
	}
	s, err := r.newSession(js.ID, &req, js.Request, js.Created)
	if err != nil {
		return journal.Skipped
	}
	s.sh.put(s)
	r.live.Add(1)
	return journal.Applied
}

// Recovery reports what this registry replayed at open time (all zeros
// for in-memory registries).
func (r *Registry) Recovery() RecoveryStats { return r.recovered }

// closeJournals closes every opened shard journal and the store.
func (r *Registry) closeJournals() {
	r.journalOnce.Do(func() {
		for _, sh := range r.shards {
			if sh != nil && sh.journal != nil {
				sh.journal.Close()
			}
		}
		r.cfg.Store.Close()
	})
}

// Close stops the background janitors and syncs and closes the shard
// journals. The registry's in-memory state remains usable (sessions,
// lookups, caches all keep working); only the periodic TTL reaping and
// — for persistent registries — journaling stop. Safe to call more
// than once.
func (r *Registry) Close() {
	r.closeOnce.Do(func() { close(r.stop) })
	r.janitors.Wait()
	r.closeJournals()
}

// janitor periodically reaps one shard's TTL-expired sessions, so
// abandoned tenants are reclaimed even when no CreateSession pressure
// ever hits capacity, and — on persistent registries — periodically
// compacts the shard's journal. Each shard gets its own ticker: a slow
// scan of one shard never delays the others.
func (r *Registry) janitor(sh *shard) {
	defer r.janitors.Done()
	t := time.NewTicker(r.cfg.JanitorInterval)
	defer t.Stop()
	lastCompact := time.Now()
	for {
		select {
		case <-r.stop:
			return
		case now := <-t.C:
			r.reapShard(sh, now)
			if r.persistent && r.cfg.CompactEvery > 0 && now.Sub(lastCompact) >= r.cfg.CompactEvery {
				lastCompact = now
				// Best-effort: a failed compaction leaves the previous
				// journal intact, and the next tick retries.
				r.compactShard(sh)
			}
		}
	}
}

// reapShard removes one shard's idle sessions and releases everything
// they held: the capacity slot, the cached prepared state, and — via a
// tombstone — the journaled records (dropped for good at the next
// compaction).
func (r *Registry) reapShard(sh *shard, now time.Time) {
	for _, id := range sh.reapIdle(now, r.cfg.SessionTTL) {
		r.live.Add(-1)
		r.metrics.sessionsReaped.Inc()
		r.metrics.evictReap.Add(int64(sh.cache.removePrefix(id + "\x00")))
		if r.persistent {
			// Best-effort, like the artifact appends: a dropped
			// tombstone is counted, not retried.
			if err := sh.journal.Append(journal.Delete{ID: id}); err != nil {
				r.metrics.appendErrors[store.KindDelete].Inc()
			}
		}
	}
}

// reapIdle sweeps every shard; called when CreateSession is at capacity.
func (r *Registry) reapIdle(now time.Time) {
	for _, sh := range r.shards {
		r.reapShard(sh, now)
	}
}

// compactShard rewrites one shard's journal down to its live state:
// one session record per live session, its logs, and the prepared-state
// snapshots currently cached. The journal's lock is held across the
// collect + rewrite, so no append can slip between what was collected
// and what the rewritten journal holds (appenders never hold session or
// shard locks while journaling, keeping the order acyclic). Holding the
// lock for the whole rewrite is deliberate: collecting outside it would
// let a racing create's record be overwritten away. The cost is that
// tenant writes on this shard queue behind the compaction — acceptable
// while compaction stays rare (-compact-interval) relative to the write
// rate.
func (r *Registry) compactShard(sh *shard) error {
	return sh.journal.Compact(func() []journal.Record {
		sessions := sh.list()
		sort.Slice(sessions, func(i, j int) bool {
			if !sessions[i].created.Equal(sessions[j].created) {
				return sessions[i].created.Before(sessions[j].created)
			}
			return sessions[i].id < sessions[j].id
		})
		var recs []journal.Record
		for _, s := range sessions {
			recs = append(recs, s.records()...)
		}
		return recs
	})
}

// records renders the session as typed journal records: the create
// record, each uploaded log, and every artifact cached for one of them.
// It is the one serializer both journal compaction and tenant export
// share, so an exported bundle holds exactly what a compacted journal
// would.
func (s *session) records() []journal.Record {
	if len(s.persistReq) == 0 {
		return nil // no encoded create request (should not happen)
	}
	recs := []journal.Record{journal.Session{ID: s.id, Created: s.created, Request: s.persistReq}}
	s.mu.Lock()
	logs := make(map[string][]string, len(s.logs))
	for id, queries := range s.logs {
		logs[id] = queries
	}
	s.mu.Unlock()
	ids := make([]string, 0, len(logs))
	for id := range logs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		recs = append(recs, journal.Log{SessionID: s.id, LogID: id, Queries: logs[id]})
	}
	return append(recs, s.artifactRecords(logs)...)
}

// CompactAll synchronously compacts every shard's journal — an
// operational hook (tests, shutdown scripts); the janitor does this
// periodically on its own.
func (r *Registry) CompactAll() error {
	if !r.persistent {
		return nil
	}
	for i, sh := range r.shards {
		if err := r.compactShard(sh); err != nil {
			return fmt.Errorf("service: compacting shard %d: %w", i, err)
		}
	}
	return nil
}

// shardFor routes a session id to its shard. The ring makes the mapping
// stable across processes, so a future multi-node deployment can route
// tenants with the identical function — and a restarted one reloads
// each session into the same shard.
func (r *Registry) shardFor(id string) *shard {
	return r.shards[r.router.Shard(id)]
}

// newSessionID draws an unguessable session id: in a multi-tenant
// service the id is the only thing protecting one tenant's session from
// another, so it must not be enumerable.
func newSessionID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("service: generating session id: %w", err)
	}
	return "s-" + hex.EncodeToString(b[:]), nil
}

// errTooManySessions distinguishes capacity exhaustion (429) from bad
// requests (400).
var errTooManySessions = fmt.Errorf("service: session limit reached")

// newSession builds (but does not register) the session a create
// request describes — shared by CreateSession, journal replay, and
// import, so a rebuilt session is byte-for-byte the session that was
// journaled. persistReq is the request's encoding, kept for compaction
// and export. The idle clock starts now: a recovered or imported
// tenant gets a full TTL to come back.
func (r *Registry) newSession(id string, req *CreateSessionRequest, persistReq json.RawMessage, created time.Time) (*session, error) {
	provider, err := buildProvider(req, r.cfg.Parallelism, r.observeStage)
	if err != nil {
		return nil, err
	}
	return &session{
		id:         id,
		measure:    *req.Measure,
		provider:   provider,
		reg:        r,
		sh:         r.shardFor(id),
		logs:       make(map[string][]string),
		created:    created,
		lastUsed:   time.Now(),
		persistReq: persistReq,
	}, nil
}

// admit registers a new session under the registry-wide capacity
// budget: when full, idle sessions are reaped across all shards before
// the session is refused. Concurrent admits on different shards share
// no lock, so the slot is claimed with a CAS loop.
func (r *Registry) admit(s *session) error {
	if int(r.live.Load()) >= r.cfg.MaxSessions {
		r.reapIdle(time.Now())
	}
	for {
		n := r.live.Load()
		if int(n) >= r.cfg.MaxSessions {
			return fmt.Errorf("%w (%d live)", errTooManySessions, n)
		}
		if r.live.CompareAndSwap(n, n+1) {
			break
		}
	}
	s.sh.put(s)
	return nil
}

// drop unregisters a live session and releases its capacity slot and
// cached artifacts, reporting whether it was live and how many cache
// entries it released.
func (r *Registry) drop(id string) (live bool, evicted int) {
	sh := r.shardFor(id)
	if !sh.remove(id) {
		return false, 0
	}
	r.live.Add(-1)
	return true, sh.cache.removePrefix(id + "\x00")
}

// buildProvider decodes a create request's artifacts and constructs the
// session's provider (see newSession). observe, when non-nil, wires the
// provider's pipeline-stage timings into the registry's histograms and
// request traces.
func buildProvider(req *CreateSessionRequest, parallelism int, observe dpe.StageObserver) (*dpe.Provider, error) {
	opts := []dpe.ProviderOption{dpe.WithParallelism(parallelism)}
	if observe != nil {
		opts = append(opts, dpe.WithStageObserver(observe))
	}
	if req.Catalog != nil {
		cat, err := req.Catalog.Decode()
		if err != nil {
			return nil, err
		}
		var agg dpe.Aggregator
		if req.AggregatorKey != nil {
			pk, err := req.AggregatorKey.Decode()
			if err != nil {
				return nil, err
			}
			agg = dpe.AggregatorFromKey(pk)
		}
		opts = append(opts, dpe.WithCatalog(cat, agg))
	}
	if req.Domains != nil {
		domains, err := DecodeDomains(req.Domains)
		if err != nil {
			return nil, err
		}
		opts = append(opts, dpe.WithDomains(domains))
	}
	if req.AccessAreaX != 0 {
		opts = append(opts, dpe.WithAccessAreaX(req.AccessAreaX))
	}
	if req.Tolerance != 0 {
		opts = append(opts, dpe.WithTolerance(req.Tolerance))
	}
	return dpe.NewProvider(*req.Measure, opts...)
}

// CreateSession decodes the request's artifacts, builds the provider
// once, registers a session serving it on the shard its id hashes to,
// and — on persistent registries — journals the creation. Capacity is
// a registry-wide budget: when full, idle sessions are reaped across
// all shards before the request is refused.
func (r *Registry) CreateSession(req *CreateSessionRequest) (*session, error) {
	if req.Measure == nil {
		return nil, fmt.Errorf("service: request is missing the measure (want token|structure|result|access-area)")
	}
	id, err := newSessionID()
	if err != nil {
		return nil, err
	}
	// The request is encoded on every registry (not just persistent
	// ones): the bytes are what compaction re-journals and what export
	// bundles carry, and exporting from an in-memory server must work.
	persistReq, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("service: encoding session record: %w", err)
	}
	s, err := r.newSession(id, req, persistReq, time.Now())
	if err != nil {
		return nil, err
	}
	if err := r.admit(s); err != nil {
		return nil, err
	}
	if r.persistent {
		if err := s.sh.journal.Append(journal.Session{ID: id, Created: s.created, Request: persistReq}); err != nil {
			r.drop(id)
			return nil, fmt.Errorf("service: journaling session create: %w", err)
		}
	}
	r.metrics.sessionsCreated.Inc()
	return s, nil
}

// Session returns a live session by id.
func (r *Registry) Session(id string) (*session, error) {
	if s := r.shardFor(id).session(id); s != nil {
		return s, nil
	}
	return nil, notFoundError{fmt.Errorf("service: unknown session %q", id)}
}

// DeleteSession removes a session and its cached prepared state, and
// journals a tombstone on persistent registries (the records vanish for
// good at the next compaction).
func (r *Registry) DeleteSession(id string) error {
	live, evicted := r.drop(id)
	if !live {
		return notFoundError{fmt.Errorf("service: unknown session %q", id)}
	}
	r.metrics.sessionsDeleted.Inc()
	r.metrics.evictDelete.Add(int64(evicted))
	if r.persistent {
		if err := r.shardFor(id).journal.Append(journal.Delete{ID: id}); err != nil {
			// The in-memory delete already happened; surface the journal
			// problem so the operator knows a restart could resurrect it.
			return fmt.Errorf("service: journaling session delete: %w", err)
		}
	}
	return nil
}

// Stats aggregates a snapshot across shards. Each shard is snapshotted
// independently under its own briefly-held locks and summed outside any
// of them — prepared-state sizes were charged when entries were cached,
// so no lock is ever held while sizing, and a stats call cannot stall
// tenant traffic on any shard.
func (r *Registry) Stats() RegistryStats {
	return r.aggregate(r.ShardStats())
}

// StatsPerShard is Stats with the per-shard breakdown attached. Both
// views derive from the one set of snapshots, so the aggregate fields
// always reconcile exactly against the breakdown they ship with.
func (r *Registry) StatsPerShard() RegistryStats {
	snaps := r.ShardStats()
	stats := r.aggregate(snaps)
	stats.PerShard = snaps
	return stats
}

// aggregate sums one consistent set of shard snapshots.
func (r *Registry) aggregate(snaps []ShardStats) RegistryStats {
	stats := RegistryStats{
		MaxSessions:     r.cfg.MaxSessions,
		Shards:          len(r.shards),
		MineStateHits:   r.artifactHits[artMining].Load(),
		MineStateMisses: r.artifactMisses[artMining].Load(),
	}
	if r.persistent {
		recovered := r.recovered
		stats.Recovered = &recovered
	}
	for _, snap := range snaps {
		stats.Sessions += snap.Sessions
		stats.PreparedCache.Entries += snap.PreparedCache.Entries
		stats.PreparedCache.Bytes += snap.PreparedCache.Bytes
		stats.PreparedCache.Hits += snap.PreparedCache.Hits
		stats.PreparedCache.Misses += snap.PreparedCache.Misses
		stats.PreparedCache.Evictions += snap.PreparedCache.Evictions
	}
	return stats
}

// ShardStats snapshots every shard — the per_shard stats breakdown.
func (r *Registry) ShardStats() []ShardStats {
	out := make([]ShardStats, len(r.shards))
	for i, sh := range r.shards {
		out[i] = sh.snapshot(i)
	}
	return out
}
