package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"time"

	dpe "repro"
	"repro/internal/distance"
	"repro/internal/store/journal"
)

// session is one tenant's provider state on the server: the immutable
// provider built from the uploaded artifacts, plus the logs uploaded so
// far. Logs are content-addressed, so re-uploading an identical log is
// idempotent and lands on the same cached prepared state. A session is
// pinned to one registry shard for its whole life — its cache entries,
// in-flight preparations, journal records, and map entry all live
// there.
type session struct {
	id       string
	measure  dpe.Measure
	provider *dpe.Provider
	reg      *Registry
	sh       *shard
	created  time.Time

	// persistReq is the encoded CreateSessionRequest, kept so journal
	// compaction and tenant export can rewrite the create record without
	// re-encoding artifacts. Deliberate trade-off: the encoded request
	// stays resident alongside the decoded provider for the session's
	// lifetime — roughly doubling artifact memory for catalog-heavy
	// tenants — until compaction learns to source create records from
	// the journal itself.
	persistReq json.RawMessage

	mu       sync.Mutex
	logs     map[string]sessionLog
	logBytes int64
	lastUsed time.Time
	// inflight counts leader artifact builds currently running for this
	// session. The janitor never reaps a session with inflight > 0: a
	// reap mid-build would discard the most expensive work the service
	// does and churn the cache byte budget.
	inflight int
	// hits/misses count this session's share of its shard's artifact
	// outcomes (see resolve): a miss is a build, a hit is a cached or
	// coalesced artifact served.
	// A restart that recovered an artifact from the journal shows a hit
	// (and no miss) on its first post-restart use; a mining state
	// recovered for a base log shows as a miss whose IncrementalStats
	// report Warm.
	hits, misses [numArtifacts]int64
}

// sessionLog is one registered log of a session.
type sessionLog struct {
	queries []string
	// base is the log this one was appended to when its journal record
	// is a delta against base (see journal.Log); "" when the record
	// holds the whole log.
	base string
	// durable is set once the log's record is in the journal. Only a
	// durable log becomes a delta's base, so no delta reaches the
	// journal before its base, and none names a base whose failed
	// upload was rolled back.
	durable bool
}

// ID returns the session id.
func (s *session) ID() string { return s.id }

// touchLocked marks the session used; callers hold s.mu.
func (s *session) touchLocked() { s.lastUsed = time.Now() }

// LogID content-addresses a query log: equal logs get equal ids. The
// id carries the full SHA-256 digest — a truncated content address
// would let two different logs inside one session silently share
// prepared state and matrices on a 64-bit collision; at 256 bits a
// collision is cryptographically out of reach. Each query is hashed as
// its decimal length, a newline, and its bytes, assembled in one buffer
// sized for the longest query.
func LogID(queries []string) string {
	longest := 0
	for _, q := range queries {
		longest = max(longest, len(q))
	}
	buf := make([]byte, 0, 21+longest)
	h := sha256.New()
	for _, q := range queries {
		buf = strconv.AppendInt(buf[:0], int64(len(q)), 10)
		buf = append(buf, '\n')
		buf = append(buf, q...)
		h.Write(buf)
	}
	return "l-" + hex.EncodeToString(h.Sum(nil))
}

// AddLog registers an uploaded log and returns its content-derived id.
// The session's raw-log store is budgeted (entries and bytes) so one
// tenant cannot grow server memory without bound.
func (s *session) AddLog(queries []string) (string, error) {
	return s.addLog(append([]string(nil), queries...), "", 0)
}

// queryBytes is the byte-budget charge of queries.
func queryBytes(queries []string) int64 {
	size := int64(0)
	for _, q := range queries {
		size += int64(len(q))
	}
	return size
}

// addLog registers queries, which the session keeps, as a log and
// journals it. A log appended to the log base (queries[:baseLen] are
// base's queries; a root passes "" and 0) shares base's string data —
// Go strings are immutable, so only the headers are new — and is
// charged only for its tail, queries[baseLen:]. Its journal record is a
// delta that carries that tail when base's own record is durable, and
// the whole log before then.
func (s *session) addLog(queries []string, base string, baseLen int) (string, error) {
	if len(queries) == 0 {
		return "", fmt.Errorf("service: empty query log")
	}
	id := LogID(queries)
	size := queryBytes(queries[baseLen:])
	cfg := s.reg.cfg
	s.mu.Lock()
	s.touchLocked()
	if _, ok := s.logs[id]; ok {
		s.mu.Unlock()
		return id, nil
	}
	if len(s.logs) >= cfg.MaxLogsPerSession {
		n := len(s.logs)
		s.mu.Unlock()
		return "", fmt.Errorf("service: session log limit reached (%d logs); delete the session or reuse uploaded logs", n)
	}
	if s.logBytes+size > cfg.MaxLogBytesPerSession {
		have := s.logBytes
		s.mu.Unlock()
		return "", fmt.Errorf("service: session log byte budget exceeded (%d + %d > %d bytes)", have, size, cfg.MaxLogBytesPerSession)
	}
	rec := journal.Log{SessionID: s.id, LogID: id, Queries: queries}
	if s.logs[base].durable {
		rec.Base, rec.Queries = base, queries[baseLen:]
	}
	s.logs[id] = sessionLog{queries: queries, base: rec.Base}
	s.logBytes += size
	s.mu.Unlock()

	// Journal outside s.mu (the journal's lock is never taken while
	// holding session or shard locks — see shard.journal's rule). A
	// concurrent compaction between the map update and this append
	// either already snapshotted the new log (fine: the append is a
	// harmless duplicate for replay) or will be followed by it.
	err := s.sh.appendDurable("log upload", rec)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		delete(s.logs, id)
		s.logBytes -= size
		return "", err
	}
	s.markDurableLocked(id)
	return id, nil
}

// markDurableLocked records that the journal holds the record of the
// registered log id; callers hold s.mu.
func (s *session) markDurableLocked(id string) {
	l := s.logs[id]
	l.durable = true
	s.logs[id] = l
}

// restoreLog is the replay-side inverse of a log upload: it trusts a
// root's recorded id (pre-restart references must stay valid even
// across LogID algorithm changes) and is idempotent. A delta whose base
// is not restored, or whose rebuilt log does not hash to its id, is
// skipped.
func (s *session) restoreLog(rec journal.Log) journal.Outcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.logs[rec.LogID]; ok {
		return journal.Ignored // already present: harmless duplicate
	}
	l, size, ok := rebuildLog(rec, s.logs)
	if !ok {
		return journal.Skipped
	}
	l.durable = true
	s.logs[rec.LogID] = l
	s.logBytes += size
	return journal.Applied
}

// rebuildLog returns the log a journal record holds and its byte
// charge: a root's queries, or a delta's base queries (looked up in
// logs) followed by its tail, sharing the base's strings and charged
// for the tail alone, as the live append was. It reports false for a
// delta whose base is not in logs or whose rebuilt log does not hash to
// the recorded id.
func rebuildLog(rec journal.Log, logs map[string]sessionLog) (sessionLog, int64, bool) {
	if rec.Base == "" {
		return sessionLog{queries: rec.Queries}, queryBytes(rec.Queries), true
	}
	base, ok := logs[rec.Base]
	if !ok {
		return sessionLog{}, 0, false
	}
	queries := make([]string, 0, len(base.queries)+len(rec.Queries))
	queries = append(append(queries, base.queries...), rec.Queries...)
	if LogID(queries) != rec.LogID {
		return sessionLog{}, 0, false
	}
	return sessionLog{queries: queries, base: rec.Base}, queryBytes(rec.Queries), true
}

// log returns an uploaded log by id.
func (s *session) log(id string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touchLocked()
	l, ok := s.logs[id]
	if !ok {
		return nil, notFoundError{fmt.Errorf("service: unknown log %q (upload it first)", id)}
	}
	return l.queries, nil
}

// prepared returns the log's prepared state, serving repeat calls from
// the session's shard-local LRU cache (the expensive half of every
// distance computation — tokenizing, parsing, executing — runs at most
// once per uploaded log while the entry stays cached). Concurrent cold
// calls for the same log collapse into a single preparation.
func (s *session) prepared(ctx context.Context, logID string) (*dpe.PreparedLog, error) {
	queries, err := s.log(logID)
	if err != nil {
		return nil, err
	}
	return s.preparedBy(ctx, logID, func(ctx context.Context) (*dpe.PreparedLog, error) {
		return s.provider.Prepare(ctx, queries)
	})
}

// preparedBy resolves logID's prepared state, running build on a miss.
// Both the full-prepare path (prepared) and the incremental extension
// path (appendPrepared) go through here, so they share the shard's
// cache, its coalescing, and the deleted-session rule.
func (s *session) preparedBy(ctx context.Context, logID string, build func(context.Context) (*dpe.PreparedLog, error)) (*dpe.PreparedLog, error) {
	key := cacheKey{session: s.id, kind: artPrepared, log: logID}
	return resolve(ctx, s, key, nil, func(ctx context.Context) (*dpe.PreparedLog, sizer, error) {
		pl, err := build(ctx)
		return pl, pl, err
	})
}

// Append is the incremental ingest path: it registers base ∘ newQueries
// as a new content-addressed log, extends the base log's cached prepared
// state with only the new queries, and computes only the new matrix rows
// (n·k + k·(k−1)/2 pair computations instead of a full rebuild). It
// returns the combined log's id, the offset n where the new rows start,
// and the k full-width rows — what a client splices onto its old matrix.
// The extended prepared state is cached under the combined log, so
// follow-up matrix/row/mine calls on it are warm; concurrent identical
// appends coalesce into one extension (the same singleflight as cold
// prepares).
//
// Each append registers one more log entry (charged only for the new
// tail's bytes — the base's string data is shared), so a long
// one-query-at-a-time append chain runs into MaxLogsPerSession; batch
// appends, or delete the session, when the budget error surfaces.
//
// An empty append is a no-op, not an error — the combined log *is* the
// base log (content addressing collapses them) and zero rows come back
// — matching dpe.Provider.Append, so dpe.ProviderAPI callers behave
// identically in-process and remote.
func (s *session) Append(ctx context.Context, baseLogID string, newQueries []string) (combinedID string, offset int, rows [][]float64, err error) {
	combinedID, offset, pl, err := s.appendPrepared(ctx, baseLogID, newQueries, nil)
	if err != nil {
		return "", 0, nil, err
	}
	rows, err = s.provider.AppendRowsPrepared(ctx, offset, pl)
	if err != nil {
		return "", 0, nil, err
	}
	return combinedID, offset, rows, nil
}

// appendPrepared is the ingest step Append and AppendMine share. It
// registers base ∘ newQueries as a new content-addressed log — charged
// and journaled as the new tail alone (see addLog) — and returns its
// id, the base length, and its prepared state. The state is extended
// from the base log's through the combined log's own singleflight key,
// so a racing logs:append and logs:append_mine coalesce into one
// extension. check, when set, vets the combined length before anything
// is registered.
func (s *session) appendPrepared(ctx context.Context, baseLogID string, newQueries []string, check func(n int) error) (string, int, *dpe.PreparedLog, error) {
	base, err := s.log(baseLogID)
	if err != nil {
		return "", 0, nil, err
	}
	if check != nil {
		if err := check(len(base) + len(newQueries)); err != nil {
			return "", 0, nil, err
		}
	}
	if len(newQueries) == 0 { // the combined log is the base log
		pl, err := s.prepared(ctx, baseLogID)
		return baseLogID, len(base), pl, err
	}
	combined := make([]string, 0, len(base)+len(newQueries))
	combined = append(combined, base...)
	combined = append(combined, newQueries...)
	combinedID, err := s.addLog(combined, baseLogID, len(base))
	if err != nil {
		return "", 0, nil, err
	}
	// The base is prepared from the queries in hand, not looked up
	// again: a concurrent upload of the base that fails rolls it back,
	// but the combined log registered above stays, so its append must
	// still answer.
	pl, err := s.preparedBy(ctx, combinedID, func(ctx context.Context) (*dpe.PreparedLog, error) {
		basePL, err := s.preparedBy(ctx, baseLogID, func(ctx context.Context) (*dpe.PreparedLog, error) {
			return s.provider.Prepare(ctx, base)
		})
		if err != nil {
			return nil, err
		}
		return s.provider.ExtendPrepared(ctx, basePL, newQueries)
	})
	if err != nil {
		return "", 0, nil, err
	}
	return combinedID, len(base), pl, nil
}

// Neighbors is the exact top-K path: one matrix row of the log's cached
// prepared state, of which only the k closest entries are kept.
func (s *session) Neighbors(ctx context.Context, logID string, q, k int) (*dpe.NeighborsResult, error) {
	pl, err := s.prepared(ctx, logID)
	if err != nil {
		return nil, err
	}
	return s.provider.NeighborsPrepared(ctx, pl, q, k)
}

// Matrix computes the full pairwise distance matrix of an uploaded log
// into fresh storage, which the caller keeps.
func (s *session) Matrix(ctx context.Context, logID string) (dpe.Matrix, error) {
	return s.matrixInto(ctx, logID, distance.NewMatrix)
}

// matrixInto computes the full pairwise distance matrix of an uploaded
// log into the n×n storage alloc returns for the log's length n.
func (s *session) matrixInto(ctx context.Context, logID string, alloc func(n int) dpe.Matrix) (dpe.Matrix, error) {
	pl, err := s.prepared(ctx, logID)
	if err != nil {
		return nil, err
	}
	m := alloc(pl.Len())
	if err := s.provider.DistanceMatrixPreparedInto(ctx, pl, m); err != nil {
		return nil, err
	}
	return m, nil
}

// Distances computes one matrix row of an uploaded log.
func (s *session) Distances(ctx context.Context, logID string, q int) ([]float64, error) {
	pl, err := s.prepared(ctx, logID)
	if err != nil {
		return nil, err
	}
	return s.provider.DistancesPrepared(ctx, pl, q)
}

// Mine builds the matrix of an uploaded log and runs one mining
// algorithm over it. The spec is validated before any expensive work.
func (s *session) Mine(ctx context.Context, logID string, spec dpe.MineSpec) (*dpe.MineResult, error) {
	queries, err := s.log(logID)
	if err != nil {
		return nil, err
	}
	if err := spec.Validate(len(queries)); err != nil {
		return nil, err
	}
	pl, err := s.prepared(ctx, logID)
	if err != nil {
		return nil, err
	}
	return s.provider.MinePrepared(ctx, pl, spec)
}

// AppendMine is the batched append-and-mine endpoint: one request
// appends newQueries to an uploaded base log, extends the prepared
// state (through the same singleflight key Append uses, so a racing
// logs:append and logs:append_mine coalesce into one extension instead
// of building twice), and runs the mining spec incrementally from the
// base log's cached MineState. It returns the combined log id, the
// offset where the new rows start, the new full-width matrix rows (nil
// for apriori, which never builds a matrix), and the mining result with
// its IncrementalStats label delta. The rows come from the result's
// Matrix when it has one, else from the appended rows a warm DBSCAN run
// computed when they cover this call's offset; otherwise (a zero-delta
// replay, or a state cached or coalesced under the combined log but
// reached from another base) they are computed from the combined log's
// prepared state, beside the run and outside its PairsComputed.
//
// An empty append mines the base log itself — the content-addressed
// combined log *is* the base log — bootstrapping (and caching) its
// mining state.
func (s *session) AppendMine(ctx context.Context, baseLogID string, newQueries []string, spec dpe.MineSpec) (combinedID string, offset int, rows [][]float64, res *dpe.MineResult, err error) {
	combinedID, offset, pl, err := s.appendPrepared(ctx, baseLogID, newQueries, spec.Validate)
	if err != nil {
		return "", 0, nil, nil, err
	}
	// The session's cached MineState for the combined log replays as a
	// zero-delta warm run (no distance pairs); without one, the base
	// log's state warm-starts the delta, and with neither the mine
	// bootstraps cold. The cache keeps only the state, never the result.
	key := cacheKey{session: s.id, kind: artMining, spec: spec, log: combinedID}
	res, err = resolve(ctx, s, key,
		func(ctx context.Context, v sizer) (*dpe.MineResult, error) {
			res, state, err := s.provider.MineIncremental(ctx, pl, v.(*dpe.MineState), spec)
			if err == nil && res.Incremental.PairsComputed > 0 {
				// Only a decoded k-medoids state, which carries no
				// matrix, makes a zero-delta replay compute pairs. The
				// state this run built carries the matrix it built, so
				// cache it in the decoded one's place (unjournaled: the
				// record on disk is the same warm start) and the next
				// replay computes none.
				s.cacheLive(key, state)
			}
			return res, err
		},
		func(ctx context.Context) (*dpe.MineResult, sizer, error) {
			base := key
			base.log = baseLogID
			var prev *dpe.MineState
			if v, ok := s.sh.cache.peek(base); ok {
				prev = v.(*dpe.MineState)
			}
			return s.provider.MineIncremental(ctx, pl, prev, spec)
		})
	if err != nil {
		return "", 0, nil, nil, err
	}
	switch inc := res.Incremental; {
	case res.Matrix != nil:
		rows = res.Matrix[offset:]
	case spec.Algorithm == dpe.MineApriori:
	case res.Rows != nil && inc.OldN <= offset:
		rows = res.Rows[offset-inc.OldN:]
	default:
		if rows, err = s.provider.AppendRowsPrepared(ctx, offset, pl); err != nil {
			return "", 0, nil, nil, err
		}
	}
	return combinedID, offset, rows, res, nil
}

// Stats snapshots the session. Observing a session is deliberately not
// a use: a monitoring poller hitting GET /v1/sessions/{id} must not
// reset the idle clock, or the TTL janitor could never reap a session
// that is merely being watched.
func (s *session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionStats{
		Session:         s.id,
		Measure:         s.measure,
		Logs:            len(s.logs),
		PreparedHits:    s.hits[artPrepared],
		PreparedMisses:  s.misses[artPrepared],
		MineStateHits:   s.hits[artMining],
		MineStateMisses: s.misses[artMining],
		CreatedAt:       s.created,
	}
}
