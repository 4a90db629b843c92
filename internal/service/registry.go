package service

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	dpe "repro"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/store/journal"
)

// notFoundError marks lookup failures (unknown session or log) so the
// HTTP layer maps them to 404 instead of 400.
type notFoundError struct{ err error }

func (e notFoundError) Error() string  { return e.err.Error() }
func (e notFoundError) Unwrap() error  { return e.err }
func (e notFoundError) NotFound() bool { return true }

// journalError marks a failed durable journal append (session create,
// log upload, session delete, import). The fault is the server's, not
// the request's, so the API answers 500.
type journalError struct{ err error }

func (e journalError) Error() string { return e.err.Error() }
func (e journalError) Unwrap() error { return e.err }

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
	// uploads, and cached artifacts are journaled to one store.Log per
	// shard, and OpenRegistry replays them so a restart loses no tenant
	// state. nil keeps the registry in memory: its shards have no
	// journal, and nothing is encoded, written or replayed.
	Store store.Store
	// CompactEvery is how often each shard's janitor additionally
	// rewrites the shard's journal down to its live records (dropping
	// tombstoned sessions and superseded snapshots). 0 means 10
	// minutes; < 0 disables periodic compaction. Ignored without a
	// Store.
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

// RecoveryStats counts what OpenRegistry replayed from a Store — the
// observable proof that a restart recovered tenant state instead of
// starting cold. It is the journal's own replay count, summed over
// every journal replayed (one per shard, plus orphans).
type RecoveryStats = journal.Stats

// RegistryStats is the wire body of GET /v1/stats. The top-level fields
// aggregate across shards (wire-compatible with the unsharded format);
// PerShard carries the optional breakdown, and Recovered appears only
// on registries opened with a Store.
type RegistryStats struct {
	Sessions      int        `json:"sessions"`
	MaxSessions   int        `json:"max_sessions"`
	Shards        int        `json:"shards"`
	PreparedCache CacheStats `json:"prepared_cache"`
	// MineStateHits/MineStateMisses sum the shards' mining-state
	// outcomes. They are monotonic (they survive session deletion), so
	// /metrics exports the same sums as dpe_mine_state_{hits,misses}_total
	// and the two views reconcile exactly.
	MineStateHits   int64          `json:"mine_state_hits"`
	MineStateMisses int64          `json:"mine_state_misses"`
	Recovered       *RecoveryStats `json:"recovered,omitempty"`
	PerShard        []ShardStats   `json:"per_shard,omitempty"`
}

// Registry is the service's multi-tenant state, sharded by session id:
// shardIndex routes every id to one of N shards, each with its own
// mutex, session map, singleflight group, prepared-state LRU, and (with
// a Store) journal — so tenant traffic on different shards never
// shares a lock. All methods are safe for concurrent use.
type Registry struct {
	cfg       Config
	shards    []*shard
	recovered RecoveryStats

	// live is the registry-wide session count: capacity is a global
	// budget enforced lock-free, so MaxSessions means the same thing at
	// every shard count.
	live atomic.Int64

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
// done. It panics if the configured Store fails to open or replay —
// callers wiring a Store should use OpenRegistry and handle the
// error.
func NewRegistry(cfg Config) *Registry {
	r, err := OpenRegistry(cfg)
	if err != nil {
		panic(fmt.Sprintf("service: NewRegistry with a failing store: %v", err))
	}
	return r
}

// OpenRegistry creates a registry and, when cfg.Store is set, replays
// every shard's journal so the process resumes exactly where its
// predecessor stopped: uploaded logs are servable, and replayed
// prepared-state snapshots make the first post-restart request a cache
// hit. After a successful replay the journals are compacted, dropping
// tombstones and re-homing sessions (see compactStartup).
func OpenRegistry(cfg Config) (*Registry, error) {
	cfg = cfg.withDefaults()
	r := &Registry{
		cfg:    cfg,
		shards: make([]*shard, cfg.Shards),
		stop:   make(chan struct{}),
	}
	entries := splitEntries(cfg.CacheEntries, cfg.Shards)
	bytes := splitBytes(cfg.CacheBytes, cfg.Shards)
	for i := range r.shards {
		r.shards[i] = newShard(entries, bytes, &r.metrics)
	}
	if cfg.Store != nil {
		if err := r.recoverJournals(); err != nil {
			r.closeJournals()
			return nil, err
		}
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

// recoverJournals opens every shard's journal on cfg.Store, replays
// them and the journals of shards beyond the configured count, then
// compacts them (see compactStartup).
func (r *Registry) recoverJournals() error {
	for i, sh := range r.shards {
		lg, err := r.cfg.Store.Open(i)
		if err != nil {
			return fmt.Errorf("service: opening shard %d journal: %w", i, err)
		}
		sh.journal = journal.New(lg)
	}
	rc := &recovery{r: r, deleted: make(map[string]bool), moved: make(map[int][]string)}
	if err := rc.replay(); err != nil {
		return err
	}
	// A previous run may have used more shards: replay the extra
	// journals too (records route by id) and empty them once compaction
	// has re-homed every record. Failing to empty one fails the boot, as
	// a failed compaction does: a create left in an orphan would outlive
	// the tombstone a later compaction drops, and resurrect a deleted
	// session.
	orphans, err := rc.replayOrphans()
	if err == nil {
		err = r.compactStartup(rc.moved)
	}
	for _, orphan := range orphans {
		if err == nil {
			if err = orphan.Compact(nil); err != nil {
				err = fmt.Errorf("service: retiring an orphan journal: %w", err)
			}
		}
		orphan.Close()
	}
	return err
}

// recovery is the state of OpenRegistry's one replay of its Store.
type recovery struct {
	r *Registry
	// deleted remembers every tombstoned id seen during replay,
	// including deletes whose create record has not been replayed yet
	// (journals replay in file order, and a re-homed session's create
	// can live in a later journal than its tombstone). A create for a
	// remembered id is stale — session ids are random and never reused
	// — and must not resurrect.
	deleted map[string]bool
	// moved lists, by journal index, the sessions replay restored from
	// a journal other than their owning shard's (see compactStartup).
	moved map[int][]string
}

// replay streams every shard's journal back into memory through the
// typed handler. Records are routed by session id — not by which file
// they were found in — so a journal written under a different shard
// count still recovers completely.
func (rc *recovery) replay() error {
	for i, sh := range rc.r.shards {
		st, err := sh.journal.Replay(replayApplier{rc, i})
		rc.r.recovered.Add(st)
		if err != nil {
			return fmt.Errorf("service: replaying shard %d journal: %w", i, err)
		}
	}
	return nil
}

// replayOrphans replays journals of shards beyond the configured count
// and returns their handles so the caller can retire them after the
// live shards' compaction has re-homed the records.
func (rc *recovery) replayOrphans() ([]*journal.Journal, error) {
	r := rc.r
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
		st, err := jl.Replay(replayApplier{rc, idx})
		r.recovered.Add(st)
		if err != nil {
			jl.Close()
			return orphans, fmt.Errorf("service: replaying orphan journal %d: %w", idx, err)
		}
		orphans = append(orphans, jl)
	}
	return orphans, nil
}

// replayApplier is the journal.Handler that applies replayed records to
// the registry from the journal with index journal. Replay is
// idempotent (duplicates report Ignored) and tolerant: a record it
// cannot apply reports Skipped, never fatal — the journal is a recovery
// aid, and partial recovery beats refusing to start.
type replayApplier struct {
	rc      *recovery
	journal int
}

func (a replayApplier) Session(js journal.Session) journal.Outcome {
	out := a.rc.restoreSession(js)
	if out == journal.Applied && a.rc.r.shardIndex(js.ID) != a.journal {
		a.rc.moved[a.journal] = append(a.rc.moved[a.journal], js.ID)
	}
	return out
}

func (a replayApplier) Delete(d journal.Delete) journal.Outcome {
	// Remember the tombstone even when the session is not (yet) live:
	// its create record may still be waiting in a later journal, and
	// replaying it then must not resurrect the tenant.
	a.rc.deleted[d.ID] = true
	a.rc.r.drop(d.ID)
	return journal.Applied
}

func (a replayApplier) Log(l journal.Log) journal.Outcome {
	s := a.rc.r.replaySession(l.SessionID)
	if s == nil {
		return journal.Skipped
	}
	return s.restoreLog(l)
}

func (a replayApplier) Artifact(art journal.Artifact) journal.Outcome {
	s := a.rc.r.replaySession(art.SessionID)
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
func (rc *recovery) restoreSession(js journal.Session) journal.Outcome {
	r := rc.r
	var req CreateSessionRequest
	if err := json.Unmarshal(js.Request, &req); err != nil || req.Measure == nil {
		return journal.Skipped
	}
	if rc.deleted[js.ID] {
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
// for a registry without a Store).
func (r *Registry) Recovery() RecoveryStats { return r.recovered }

// closeJournals closes every opened shard journal and the store.
func (r *Registry) closeJournals() {
	r.journalOnce.Do(func() {
		for _, sh := range r.shards {
			sh.journal.Close()
		}
		if r.cfg.Store != nil {
			r.cfg.Store.Close()
		}
	})
}

// Close stops the background janitors and syncs and closes the shard
// journals. The registry's in-memory state remains usable (sessions,
// lookups, caches all keep working); only the periodic TTL reaping and
// — with a Store — journaling stop. Safe to call more
// than once.
func (r *Registry) Close() {
	r.closeOnce.Do(func() { close(r.stop) })
	r.janitors.Wait()
	r.closeJournals()
}

// janitor periodically reaps one shard's TTL-expired sessions, so
// abandoned tenants are reclaimed even when no CreateSession pressure
// ever hits capacity, and periodically compacts the shard's journal (a
// no-op without a Store). Each shard gets its own ticker: a slow
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
			if r.cfg.CompactEvery > 0 && now.Sub(lastCompact) >= r.cfg.CompactEvery {
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
		r.metrics.evictReap.Add(int64(sh.cache.removeSession(id)))
		sh.appendBestEffort(store.KindDelete, journal.Delete{ID: id}, nil)
	}
}

// reapIdle sweeps every shard; called when CreateSession is at capacity.
func (r *Registry) reapIdle(now time.Time) {
	for _, sh := range r.shards {
		r.reapShard(sh, now)
	}
}

// compactStartup rewrites every journal to its live state after
// recovery: tombstones drop, duplicates collapse, and each session ends
// up in its owner's journal alone. When replay found sessions outside
// their owners' journals, a first pass keeps each where it was and
// also writes it into its owner's; the second, ordinary pass drops the
// other copies. No rewrite removes a session's last copy, so a crash
// between any two of them loses nothing. moved lists, by journal index,
// the sessions replay found outside their owners' journals.
func (r *Registry) compactStartup(moved map[int][]string) error {
	if r.recovered.Total() == 0 {
		return nil
	}
	passes := []map[int][]string{nil}
	if len(moved) > 0 {
		passes = []map[int][]string{moved, nil}
	}
	for _, guests := range passes {
		for i, sh := range r.shards {
			if err := r.compactShard(sh, guests[i]...); err != nil {
				return fmt.Errorf("service: startup compaction: %w", err)
			}
		}
	}
	return nil
}

// compactShard rewrites one shard's journal down to its live state:
// one session record per live session, its logs, and the prepared-state
// snapshots currently cached. guests names live sessions of other
// shards to keep in this journal too (see compactStartup); a guest that
// is no longer live is left out. The journal's lock is held across the
// collect + rewrite, so no append can slip between what was collected
// and what the rewritten journal holds (appenders never hold session or
// shard locks while journaling, keeping the order acyclic). Holding the
// lock for the whole rewrite is deliberate: collecting outside it would
// let a racing create's record be overwritten away. The cost is that
// tenant writes on this shard queue behind the compaction — acceptable
// while compaction stays rare (-compact-interval) relative to the write
// rate.
func (r *Registry) compactShard(sh *shard, guests ...string) error {
	return sh.journal.Compact(func() []journal.Record {
		sessions := sh.list()
		for _, id := range guests {
			if s := r.shardFor(id).session(id); s != nil {
				sessions = append(sessions, s)
			}
		}
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
// A log appended to another is written as a delta after its base, so
// each append chain is its root followed by its deltas. It is the one
// serializer both journal compaction and tenant export share, so an
// exported bundle holds exactly what a compacted journal would.
func (s *session) records() []journal.Record {
	if len(s.persistReq) == 0 {
		return nil // no encoded create request (should not happen)
	}
	recs := []journal.Record{journal.Session{ID: s.id, Created: s.created, Request: s.persistReq}}
	s.mu.Lock()
	logs := maps.Clone(s.logs)
	s.mu.Unlock()
	written := make(map[string]bool, len(logs))
	for _, id := range slices.Sorted(maps.Keys(logs)) {
		// A delta's base is durable, so it is never rolled back and is
		// in logs too: walk up to the first log already written, then
		// write the walked chain root first.
		var chain []string
		for at := id; at != "" && !written[at]; at = logs[at].base {
			written[at] = true
			chain = append(chain, at)
		}
		for _, at := range slices.Backward(chain) {
			l := logs[at]
			tail := l.queries[len(logs[l.base].queries):] // all of a root's
			recs = append(recs, journal.Log{SessionID: s.id, LogID: at, Base: l.base, Queries: tail})
		}
	}
	return append(recs, s.artifactRecords(logs)...)
}

// CompactAll synchronously compacts every shard's journal — an
// operational hook (tests, shutdown scripts); the janitor does this
// periodically on its own.
func (r *Registry) CompactAll() error {
	for i, sh := range r.shards {
		if err := r.compactShard(sh); err != nil {
			return fmt.Errorf("service: compacting shard %d: %w", i, err)
		}
	}
	return nil
}

// shardIndex routes a session id to its shard: 64-bit FNV-1a of the id
// modulo the shard count, written out so routing allocates nothing. It
// depends on nothing but the id and the count, so a restarted process
// reloads each session into the shard its predecessor journaled it to.
func (r *Registry) shardIndex(id string) int {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211 // FNV-1a prime
	}
	return int(h % uint64(len(r.shards)))
}

// shardFor returns the shard that owns a session id.
func (r *Registry) shardFor(id string) *shard {
	return r.shards[r.shardIndex(id)]
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
		logs:       make(map[string]sessionLog),
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
	return true, sh.cache.removeSession(id)
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
	return dpe.NewProvider(*req.Measure, opts...)
}

// CreateSession decodes the request's artifacts, builds the provider
// once, registers a session serving it on the shard its id hashes to,
// and journals the creation. Capacity is
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
	// The request is encoded on every registry (not just ones with a
	// Store): the bytes are what compaction re-journals and what export
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
	if err := s.sh.appendDurable("session create", journal.Session{ID: id, Created: s.created, Request: persistReq}); err != nil {
		r.drop(id)
		return nil, err
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
// journals a tombstone (the records vanish for good at the next
// compaction).
func (r *Registry) DeleteSession(id string) error {
	live, evicted := r.drop(id)
	if !live {
		return notFoundError{fmt.Errorf("service: unknown session %q", id)}
	}
	r.metrics.sessionsDeleted.Inc()
	r.metrics.evictDelete.Add(int64(evicted))
	// The in-memory delete already happened; a failed append surfaces the
	// journal problem so the operator knows a restart could resurrect it.
	return r.shardFor(id).appendDurable("session delete", journal.Delete{ID: id})
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

// aggregate sums one consistent set of shard snapshots, and the
// shards' mining-state outcomes.
func (r *Registry) aggregate(snaps []ShardStats) RegistryStats {
	stats := RegistryStats{MaxSessions: r.cfg.MaxSessions, Shards: len(r.shards)}
	if r.cfg.Store != nil {
		recovered := r.recovered
		stats.Recovered = &recovered
	}
	for _, sh := range r.shards {
		stats.MineStateHits += sh.hits[artMining].Load()
		stats.MineStateMisses += sh.misses[artMining].Load()
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
