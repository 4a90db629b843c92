// Package dpe is the public API of the reproduction of "Distance-Based
// Data Mining Over Encrypted Data" (Tex, Schäler, Böhm — ICDE 2018).
//
// The library models the paper's two roles explicitly. The data *owner*
// holds the master secret: it encrypts an SQL query log (and, when
// needed, database contents and attribute domains) such that one of four
// query-distance measures is *preserved exactly*. The service *provider*
// holds only the encrypted artifacts — the "shared information" column
// of Table I — and runs distance-based mining (clustering, outlier
// detection, kNN) on ciphertext, obtaining bit-identical results
// (Definition 1 of the paper).
//
// The typical flow:
//
//	schema := dpe.NewSchema()
//	schema.MustAddTable("photoobj", []dpe.ColumnInfo{...})
//	owner, _ := dpe.NewOwner([]byte("master secret"), schema, dpe.Config{})
//	encLog, _ := owner.EncryptLog(queries, dpe.MeasureToken)
//
//	// provider side: a session over the shared ciphertext artifacts
//	provider, _ := dpe.NewProvider(dpe.MeasureToken,
//		dpe.WithParallelism(runtime.NumCPU()))
//	m, _ := provider.DistanceMatrix(ctx, encLog)
//	clusters, _ := dpe.KMedoids(m, 4)
//
// Measures that need shared artifacts take them as provider options:
// MeasureResult needs the encrypted catalog (WithCatalog, plus the
// owner's ResultAggregator), MeasureAccessArea the encrypted domains
// (WithDomains). The distance engine underneath is a context-cancellable
// worker pool, so n×n matrix builds scale with cores; the parallel
// result is entry-wise identical to the sequential one.
//
// Package layering: this facade re-exports the pieces of internal/...
// (crypto classes, SQL engine, CryptDB-style rewriter, distance
// measures, mining algorithms, KIT-DPE core) needed to use the system;
// the internal packages carry the full implementation and their own
// documentation.
package dpe

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/accessarea"
	"repro/internal/core"
	"repro/internal/crypto/hom"
	"repro/internal/db"
	"repro/internal/distance"
	"repro/internal/encdb"
	"repro/internal/mining"
	"repro/internal/sqlparse"
	"repro/internal/value"
	"repro/internal/workload"
)

// Measure selects one of the paper's four SQL query-distance measures
// (Table I).
type Measure int

// The four measures.
const (
	// MeasureToken is token-based query-string distance (Definition 3).
	MeasureToken Measure = iota
	// MeasureStructure is query-structure distance (SnipSuggest
	// features).
	MeasureStructure
	// MeasureResult is query-result distance (Jaccard over result
	// tuples); requires sharing encrypted DB content.
	MeasureResult
	// MeasureAccessArea is query-access-area distance (Definition 5);
	// requires sharing encrypted attribute domains.
	MeasureAccessArea
)

// String returns the measure's canonical name — the same text
// ParseMeasure accepts and the wire protocol carries.
func (m Measure) String() string {
	switch m {
	case MeasureToken:
		return "token"
	case MeasureStructure:
		return "structure"
	case MeasureResult:
		return "result"
	case MeasureAccessArea:
		return "access-area"
	default:
		return fmt.Sprintf("Measure(%d)", int(m))
	}
}

// ParseMeasure is the inverse of Measure.String. It is case-insensitive
// and also accepts the legacy spelling "accessarea".
func ParseMeasure(name string) (Measure, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "token":
		return MeasureToken, nil
	case "structure":
		return MeasureStructure, nil
	case "result":
		return MeasureResult, nil
	case "access-area", "accessarea":
		return MeasureAccessArea, nil
	default:
		return 0, fmt.Errorf("dpe: unknown measure %q (want token|structure|result|access-area)", name)
	}
}

// MarshalText implements encoding.TextMarshaler, so a Measure appears in
// JSON (and any other text format) as its canonical name, e.g. "token".
// It rejects values outside the four measures.
func (m Measure) MarshalText() ([]byte, error) {
	if _, err := m.mode(); err != nil {
		return nil, err
	}
	return []byte(m.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler by delegating to
// ParseMeasure.
func (m *Measure) UnmarshalText(text []byte) error {
	parsed, err := ParseMeasure(string(text))
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// mode maps a Measure to its appropriate encryption mode (the Table I
// class assignment validated by experiment E1).
func (m Measure) mode() (encdb.Mode, error) {
	switch m {
	case MeasureToken:
		return encdb.ModeToken, nil
	case MeasureStructure:
		return encdb.ModeStructure, nil
	case MeasureResult:
		return encdb.ModeResult, nil
	case MeasureAccessArea:
		return encdb.ModeAccessArea, nil
	default:
		return 0, fmt.Errorf("dpe: unknown measure %d", int(m))
	}
}

// Re-exported building blocks. These are aliases, so values flow freely
// between the facade and code that (within this module) uses the
// internal packages directly.
type (
	// Schema is the plaintext schema shared between owner and rewriter.
	Schema = encdb.Schema
	// ColumnInfo describes one plaintext column.
	ColumnInfo = encdb.ColumnInfo
	// Catalog is an in-memory relational database.
	Catalog = db.Catalog
	// Row is one tuple.
	Row = db.Row
	// Result is a query result relation.
	Result = db.Result
	// Value is a dynamically-typed SQL value.
	Value = value.Value
	// Domain is an attribute's inclusive value range.
	Domain = accessarea.Domain
	// Matrix is a symmetric pairwise distance matrix.
	Matrix = distance.Matrix
	// Statement is a parsed SQL query.
	Statement = sqlparse.SelectStmt
	// PreservationReport is the outcome of a Definition 1 check.
	PreservationReport = core.PreservationReport
	// KMedoidsResult holds a k-medoids clustering.
	KMedoidsResult = mining.KMedoidsResult
	// FrequentItemset pairs a frequent itemset with its support count.
	FrequentItemset = mining.FrequentItemset
	// Workload is a generated synthetic benchmark workload.
	Workload = workload.Workload
	// WorkloadConfig controls workload generation.
	WorkloadConfig = workload.Config
)

// Column kinds for Schema construction.
const (
	KindInt    = encdb.KindInt
	KindFloat  = encdb.KindFloat
	KindString = encdb.KindString
)

// NewSchema returns an empty schema.
func NewSchema() *Schema { return encdb.NewSchema() }

// NewCatalog returns an empty relational catalog.
func NewCatalog() *Catalog { return db.NewCatalog() }

// SchemaFromCatalog derives a schema from an existing catalog.
func SchemaFromCatalog(cat *Catalog) (*Schema, error) { return encdb.SchemaFromCatalog(cat) }

// Parse parses one SELECT statement of the supported SQL subset.
func Parse(query string) (*Statement, error) { return sqlparse.Parse(query) }

// Config tunes an Owner.
type Config struct {
	// PaillierBits sizes the HOM (Paillier) keys; 0 means 1024. NewOwner
	// rejects a size below 64. The bits only size the key pair, which is
	// derived from the master secret on the owner's first result-measure
	// use (see NewOwner).
	PaillierBits int
}

// Owner is the data-owner side of a deployment: it holds the master
// secret and performs all encryption and decryption. The service
// provider never holds an Owner — it works on the encrypted artifacts
// with the package-level Provider* functions.
type Owner struct {
	d      *encdb.Deployment
	schema *Schema
}

// NewOwner creates a deployment from a master secret and the plaintext
// schema. All keys derive deterministically from the secret, each when
// first needed. The Paillier key pair serves only the result measure's
// SUM/AVG aggregates, so it is derived on the first EncryptCatalog,
// ResultAggregator, ResultAggregatorKey or RunEncrypted call that needs
// it: an owner that only encrypts logs and domains never generates it.
// An Owner is safe for concurrent use once DeclareJoins has returned.
func NewOwner(master []byte, schema *Schema, cfg Config) (*Owner, error) {
	d, err := encdb.NewDeployment(master, encdb.Config{PaillierBits: cfg.PaillierBits})
	if err != nil {
		return nil, err
	}
	return &Owner{d: d, schema: schema}, nil
}

// DeclareJoins must be called before encryption when the workload joins
// columns: it unifies the joined columns' keys (JOIN / JOIN-OPE usage
// modes).
func (o *Owner) DeclareJoins(queries []string) error {
	stmts, err := parseAll(queries)
	if err != nil {
		return err
	}
	return o.d.DeclareJoins(o.schema, stmts)
}

// EncryptLog encrypts a query log under the appropriate DPE-scheme for
// the measure (the Table I assignment). The result is a ciphertext log:
// parseable SQL whose identifiers and constants are encrypted.
func (o *Owner) EncryptLog(queries []string, m Measure) ([]string, error) {
	mode, err := m.mode()
	if err != nil {
		return nil, err
	}
	out := make([]string, len(queries))
	for i, q := range queries {
		enc, err := o.d.EncryptQueryString(q, o.schema, mode)
		if err != nil {
			return nil, fmt.Errorf("dpe: query %d: %w", i, err)
		}
		out[i] = enc
	}
	return out, nil
}

// EncryptCatalog encrypts database contents (the DB-Content shared
// information needed for MeasureResult).
func (o *Owner) EncryptCatalog(cat *Catalog) (*Catalog, error) {
	return o.d.EncryptCatalog(cat, o.schema)
}

// EncryptDomains encrypts attribute domains (the Domains shared
// information needed for MeasureAccessArea). Keys of the result are
// encrypted attribute names.
func (o *Owner) EncryptDomains(domains map[string]Domain) (map[string]Domain, error) {
	return o.d.EncryptDomains(o.schema, domains)
}

// RunEncrypted executes one plaintext query through the full encrypted
// pipeline (rewrite, execute over the encrypted catalog, decrypt) —
// result equivalence in action.
func (o *Owner) RunEncrypted(query string, encCat *Catalog) (*Result, error) {
	return o.d.RunEncrypted(query, o.schema, encCat)
}

// ResultAggregator returns the aggregate evaluator the provider must
// plug into result-distance computation over an encrypted catalog
// (Paillier SUM/AVG). It contains only public-key material.
func (o *Owner) ResultAggregator() db.Aggregator {
	return o.d.Aggregator()
}

// AggregatorKey is the serializable public-key material behind
// ResultAggregator (the Paillier public key). It is the form of the
// aggregate evaluator that travels over a wire: a remote provider turns
// it back into an Aggregator with AggregatorFromKey. It holds no secret.
type AggregatorKey = hom.PublicKey

// ResultAggregatorKey returns the owner's aggregate-evaluation public
// key for shipping to a remote provider.
func (o *Owner) ResultAggregatorKey() *AggregatorKey {
	return o.d.AggregatorKey()
}

// AggregatorFromKey reconstructs the encrypted aggregate evaluator from
// a (possibly wire-received) public key; it is the provider-side inverse
// of Owner.ResultAggregatorKey and yields the same evaluator as
// Owner.ResultAggregator.
func AggregatorFromKey(pk *AggregatorKey) Aggregator {
	return encdb.AggregatorFor(pk)
}

func parseAll(queries []string) ([]*Statement, error) {
	out := make([]*Statement, len(queries))
	for i, q := range queries {
		s, err := sqlparse.Parse(q)
		if err != nil {
			return nil, fmt.Errorf("dpe: query %d: %w", i, err)
		}
		out[i] = s
	}
	return out, nil
}

// --- provider side: a session over the shared encrypted artifacts
// (works on plaintext and on ciphertext logs identically — that is the
// point of DPE) ---

// Aggregator evaluates aggregates during query execution; the provider
// receives the owner's ResultAggregator to run Paillier SUM/AVG over an
// encrypted catalog. It contains only public-key material.
type Aggregator = db.Aggregator

// providerConfig collects the shared artifacts and tuning of a Provider.
type providerConfig struct {
	catalog     *Catalog
	agg         Aggregator
	domains     map[string]Domain
	accessAreaX float64
	parallelism int
	observe     StageObserver
}

// StageObserver receives the wall-clock duration of one named pipeline
// stage as it completes: "prepare" (per-query work), "matrix" (pairwise
// fan-out), "append_extend"/"append_rows" (the incremental path),
// "rerank" (a Neighbors row plus its top-k selection), "mine", and
// "mine_delta" (warm incremental mining after an append). Composite
// calls nest — a "mine" observation covers the "matrix" build inside
// it — so stage totals are per-stage costs, not additive request time.
// The ctx is the request context the stage ran under, letting an
// observer attribute the span to a request trace. Observers must be
// safe for concurrent use and fast: they run on the request path.
type StageObserver func(ctx context.Context, stage string, d time.Duration)

// WithStageObserver wires stage timing into a provider — how the
// service layer turns every session's pipeline stages into latency
// histograms and slow-request traces. nil (the default) disables
// timing entirely; no clock is read.
func WithStageObserver(fn StageObserver) ProviderOption {
	return func(c *providerConfig) { c.observe = fn }
}

// ProviderOption configures a Provider at construction.
type ProviderOption func(*providerConfig)

// WithParallelism bounds the worker pool of the distance engine (matrix
// fan-out and per-query preparation such as executing a result-distance
// log). n <= 1 means sequential. The default is sequential; production
// deployments pass runtime.NumCPU(). Parallel and sequential builds are
// entry-wise identical.
func WithParallelism(n int) ProviderOption {
	return func(c *providerConfig) { c.parallelism = n }
}

// WithCatalog shares (encrypted) database contents with the provider —
// the DB-Content shared information MeasureResult requires. For an
// encrypted catalog pass the owner's ResultAggregator; for a plaintext
// catalog pass nil.
func WithCatalog(cat *Catalog, agg Aggregator) ProviderOption {
	return func(c *providerConfig) { c.catalog, c.agg = cat, agg }
}

// WithDomains shares (encrypted) attribute domains with the provider —
// the Domains shared information MeasureAccessArea requires.
func WithDomains(domains map[string]Domain) ProviderOption {
	return func(c *providerConfig) { c.domains = domains }
}

// WithAccessAreaX sets Definition 5's partial-overlap value x ∈ (0,1);
// unset means the paper default 0.5.
func WithAccessAreaX(x float64) ProviderOption {
	return func(c *providerConfig) { c.accessAreaX = x }
}

// Provider is the service-provider side of a deployment: a session
// constructed once from a measure plus the shared encrypted artifacts of
// Table I (encrypted catalog, encrypted domains, aggregate evaluator).
// It never holds key material. A Provider is immutable after
// construction and safe for concurrent use; the same session serves any
// number of logs — by symmetry it works on plaintext logs with plaintext
// artifacts too, which is how preservation is verified.
type Provider struct {
	measure     Measure
	metric      distance.Metric
	parallelism int
	observe     StageObserver
}

// stage starts timing one named pipeline stage and returns the
// completion hook to defer. With no observer configured it is free —
// no clock read, no allocation beyond the shared no-op closure.
func (p *Provider) stage(ctx context.Context, name string) func() {
	if p.observe == nil {
		return noopStage
	}
	start := time.Now()
	return func() { p.observe(ctx, name, time.Since(start)) }
}

var noopStage = func() {}

// NewProvider creates a provider session for a measure. Measures that
// need shared information beyond the log itself require the matching
// option: MeasureResult needs WithCatalog, MeasureAccessArea needs
// WithDomains.
func NewProvider(m Measure, opts ...ProviderOption) (*Provider, error) {
	if _, err := m.mode(); err != nil {
		return nil, err
	}
	var cfg providerConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	metric, err := distance.New(m.String(), distance.Artifacts{
		Catalog:     cfg.catalog,
		Exec:        db.Options{Aggregate: cfg.agg},
		Domains:     cfg.domains,
		AccessAreaX: cfg.accessAreaX,
		Parallelism: cfg.parallelism,
	})
	if err != nil {
		return nil, err
	}
	return &Provider{
		measure:     m,
		metric:      metric,
		parallelism: cfg.parallelism,
		observe:     cfg.observe,
	}, nil
}

// Measure returns the session's distance measure.
func (p *Provider) Measure() Measure { return p.measure }

// PreparedLog is a query log after the session metric's per-query work
// (tokenizing, parsing, feature extraction, query execution) has run.
// It is immutable and safe for concurrent use, so a service can prepare
// a log once, cache the result, and serve any number of matrix, row, and
// mining requests from it. A PreparedLog is only valid with the Provider
// that produced it.
type PreparedLog struct {
	prep distance.Prepared
}

// Len is the number of queries in the prepared log.
func (pl *PreparedLog) Len() int { return pl.prep.Len() }

// SizeBytes estimates the memory the prepared state retains (for cache
// byte budgets). 0 means the metric cannot estimate it.
func (pl *PreparedLog) SizeBytes() int64 {
	if s, ok := pl.prep.(distance.Sizer); ok {
		return s.SizeBytes()
	}
	return 0
}

// MarshalPreparedLog serializes a prepared log's state for persistence
// (the service's prepared-state snapshots). The encoding is
// deterministic and exact: UnmarshalPreparedLog returns a state whose
// distances are entry-wise identical. The snapshot is only meaningful
// to a Provider constructed with the same measure and artifacts.
func (p *Provider) MarshalPreparedLog(pl *PreparedLog) ([]byte, error) {
	return p.metric.MarshalPrepared(pl.prep)
}

// UnmarshalPreparedLog is the inverse of MarshalPreparedLog: it
// restores a prepared log from a snapshot without re-running any
// per-query work (no tokenizing, parsing, or query execution).
func (p *Provider) UnmarshalPreparedLog(data []byte) (*PreparedLog, error) {
	prep, err := p.metric.UnmarshalPrepared(data)
	if err != nil {
		return nil, err
	}
	return &PreparedLog{prep: prep}, nil
}

// Prepare runs the metric's per-query work for a log once, honoring ctx
// cancellation. The heavy lifting of DistanceMatrix, Distances, and Mine
// is split in two halves — preparation and pairwise fan-out — and this
// is the first half, exposed so callers (e.g. a network service) can
// amortize it across calls.
func (p *Provider) Prepare(ctx context.Context, log []string) (*PreparedLog, error) {
	defer p.stage(ctx, "prepare")()
	prep, err := p.metric.Prepare(ctx, log)
	if err != nil {
		return nil, err
	}
	return &PreparedLog{prep: prep}, nil
}

// DistanceMatrix computes the pairwise distance matrix of a query log.
// The per-query preparation (tokenizing, parsing, executing) runs once
// per query, then the upper triangle fans out over the configured worker
// pool. Cancelling ctx aborts the build promptly with the context's
// error.
func (p *Provider) DistanceMatrix(ctx context.Context, log []string) (Matrix, error) {
	pl, err := p.Prepare(ctx, log)
	if err != nil {
		return nil, err
	}
	return p.DistanceMatrixPrepared(ctx, pl)
}

// DistanceMatrixPrepared is DistanceMatrix over an already-prepared log:
// only the pairwise fan-out runs, into a fresh matrix
// (DistanceMatrixPreparedInto over distance.NewMatrix).
func (p *Provider) DistanceMatrixPrepared(ctx context.Context, pl *PreparedLog) (Matrix, error) {
	m := distance.NewMatrix(pl.Len())
	if err := p.DistanceMatrixPreparedInto(ctx, pl, m); err != nil {
		return nil, err
	}
	return m, nil
}

// DistanceMatrixPreparedInto fills the caller's matrix m, which must be
// pl.Len()×pl.Len(), with the distance matrix of an already-prepared
// log. Every entry is overwritten and the diagonal zeroed, so m may be
// reused storage that still holds another log's values; the result is
// bit-identical to DistanceMatrixPrepared's. No build worker touches m
// once this returns, on error and on cancellation too; after an error
// m holds a partial build.
func (p *Provider) DistanceMatrixPreparedInto(ctx context.Context, pl *PreparedLog, m Matrix) error {
	if n := pl.Len(); len(m) != n {
		return fmt.Errorf("dpe: matrix has %d rows, want %d for the log", len(m), n)
	}
	defer p.stage(ctx, "matrix")()
	return distance.BuildMatrixInto(ctx, m, p.parallelism, pl.prep.Distance)
}

// Distances computes the distances from query q to every query of the
// log (the kNN access pattern without materializing the full matrix).
// Entry q is 0.
func (p *Provider) Distances(ctx context.Context, log []string, q int) ([]float64, error) {
	if q < 0 || q >= len(log) {
		return nil, fmt.Errorf("dpe: query index %d outside log of %d queries", q, len(log))
	}
	pl, err := p.Prepare(ctx, log)
	if err != nil {
		return nil, err
	}
	return p.DistancesPrepared(ctx, pl, q)
}

// DistancesPrepared is Distances over an already-prepared log.
func (p *Provider) DistancesPrepared(ctx context.Context, pl *PreparedLog, q int) ([]float64, error) {
	n := pl.prep.Len()
	if q < 0 || q >= n {
		return nil, fmt.Errorf("dpe: query index %d outside log of %d queries", q, n)
	}
	out := make([]float64, n)
	if err := distance.BuildRow(ctx, n, p.parallelism, q, pl.prep.Distance, out); err != nil {
		return nil, err
	}
	return out, nil
}

// VerifyPreservation is VerifyPreservation(plain, enc, 0): the
// plaintext and ciphertext distance matrices must agree entry-wise
// within 1e-12.
func (p *Provider) VerifyPreservation(plain, enc Matrix) (*PreservationReport, error) {
	return VerifyPreservation(plain, enc, 0)
}

// MiningAlgorithm selects what Provider.Mine runs over the distance
// matrix.
type MiningAlgorithm int

// The mining algorithms of experiment E3.
const (
	// MineKMedoids clusters with Park–Jun k-medoids; spec.K clusters.
	MineKMedoids MiningAlgorithm = iota
	// MineDBSCAN clusters density-based; spec.Eps, spec.MinPts.
	MineDBSCAN
	// MineCompleteLink clusters agglomeratively; spec.K clusters.
	MineCompleteLink
	// MineOutliers finds Knorr–Ng DB(p, D) outliers; spec.P, spec.D.
	MineOutliers
	// MineKNN returns the spec.K nearest neighbors of spec.Query.
	MineKNN
	// MineApriori mines frequent feature itemsets: each query is one
	// transaction whose items are the prepared state's elements, and
	// Apriori finds combinations with support >= spec.MinSupport up to
	// spec.MaxLen items. An item is a token (token), a structural
	// feature (structure), or one result tuple (result): the tuple's
	// key, each column's value key followed by a NUL byte. An item that
	// holds a NUL byte, as every result tuple and a token or feature
	// with a NUL in a literal do, is written in its Go-quoted
	// (strconv.Quote) form. It needs no distance matrix at all, so Mine
	// skips the pairwise build entirely.
	// Requires a set-based measure (token, structure, result).
	MineApriori
)

// String returns the algorithm's canonical name — the same text
// ParseMiningAlgorithm accepts and MineSpec marshals.
func (a MiningAlgorithm) String() string {
	switch a {
	case MineKMedoids:
		return "k-medoids"
	case MineDBSCAN:
		return "dbscan"
	case MineCompleteLink:
		return "complete-link"
	case MineOutliers:
		return "outliers"
	case MineKNN:
		return "knn"
	case MineApriori:
		return "apriori"
	default:
		return fmt.Sprintf("MiningAlgorithm(%d)", int(a))
	}
}

// ParseMiningAlgorithm is the inverse of MiningAlgorithm.String. It is
// case-insensitive and also accepts the squashed spellings "kmedoids"
// and "completelink".
func ParseMiningAlgorithm(name string) (MiningAlgorithm, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "k-medoids", "kmedoids":
		return MineKMedoids, nil
	case "dbscan":
		return MineDBSCAN, nil
	case "complete-link", "completelink":
		return MineCompleteLink, nil
	case "outliers":
		return MineOutliers, nil
	case "knn":
		return MineKNN, nil
	case "apriori":
		return MineApriori, nil
	default:
		return 0, fmt.Errorf("dpe: unknown mining algorithm %q (want k-medoids|dbscan|complete-link|outliers|knn|apriori)", name)
	}
}

// MarshalText implements encoding.TextMarshaler, so an algorithm appears
// in JSON as its canonical name, e.g. "k-medoids". It rejects values
// outside the five algorithms.
func (a MiningAlgorithm) MarshalText() ([]byte, error) {
	switch a {
	case MineKMedoids, MineDBSCAN, MineCompleteLink, MineOutliers, MineKNN, MineApriori:
		return []byte(a.String()), nil
	default:
		return nil, fmt.Errorf("dpe: unknown mining algorithm %d", int(a))
	}
}

// UnmarshalText implements encoding.TextUnmarshaler by delegating to
// ParseMiningAlgorithm.
func (a *MiningAlgorithm) UnmarshalText(text []byte) error {
	parsed, err := ParseMiningAlgorithm(string(text))
	if err != nil {
		return err
	}
	*a = parsed
	return nil
}

// MineSpec selects a mining algorithm and its parameters.
type MineSpec struct {
	Algorithm MiningAlgorithm
	// K is the cluster count (k-medoids, complete-link) or neighbor
	// count (kNN).
	K int
	// Eps and MinPts parameterize DBSCAN.
	Eps    float64
	MinPts int
	// P and D parameterize Knorr–Ng DB(p, D) outlier detection.
	P, D float64
	// Query is the query index kNN searches around.
	Query int
	// MinSupport and MaxLen parameterize Apriori: the absolute
	// transaction-count threshold and the largest itemset size mined.
	MinSupport int
	MaxLen     int
}

// Validate checks the spec's parameters against a log of n queries
// without doing any work: K must be positive (and at most n for the
// K-cluster algorithms), DBSCAN needs Eps > 0 and MinPts > 0, outlier
// detection needs P ∈ (0,1) and D > 0, and kNN's Query must index the
// log. A NaN in Eps, P or D fails whatever the algorithm: such a spec
// never equals itself, and MineIncremental reuses a state only under an
// equal spec. Provider.Mine calls it before building the distance
// matrix, so a bad spec fails fast instead of after the expensive part.
func (s MineSpec) Validate(n int) error {
	switch s.Algorithm {
	case MineKMedoids, MineCompleteLink:
		if s.K <= 0 {
			return fmt.Errorf("dpe: %s needs K > 0, got %d", s.Algorithm, s.K)
		}
		if s.K > n {
			return fmt.Errorf("dpe: %s needs K <= %d queries, got %d", s.Algorithm, n, s.K)
		}
	case MineDBSCAN:
		if !(s.Eps > 0) {
			return fmt.Errorf("dpe: dbscan needs Eps > 0, got %v", s.Eps)
		}
		if s.MinPts <= 0 {
			return fmt.Errorf("dpe: dbscan needs MinPts > 0, got %d", s.MinPts)
		}
	case MineOutliers:
		if !(s.P > 0 && s.P < 1) {
			return fmt.Errorf("dpe: outliers needs P in (0,1), got %v", s.P)
		}
		if !(s.D > 0) {
			return fmt.Errorf("dpe: outliers needs D > 0, got %v", s.D)
		}
	case MineKNN:
		if s.K <= 0 {
			return fmt.Errorf("dpe: knn needs K > 0, got %d", s.K)
		}
		if s.K > n-1 {
			return fmt.Errorf("dpe: knn needs K <= %d other queries, got %d", n-1, s.K)
		}
		if s.Query < 0 || s.Query >= n {
			return fmt.Errorf("dpe: knn query index %d outside log of %d queries", s.Query, n)
		}
	case MineApriori:
		if s.MinSupport <= 0 {
			return fmt.Errorf("dpe: apriori needs MinSupport > 0, got %d", s.MinSupport)
		}
		if s.MaxLen <= 0 {
			return fmt.Errorf("dpe: apriori needs MaxLen > 0, got %d", s.MaxLen)
		}
	default:
		return fmt.Errorf("dpe: unknown mining algorithm %d", int(s.Algorithm))
	}
	if s.hasNaN() {
		return fmt.Errorf("dpe: %s spec has a NaN parameter (Eps %v, P %v, D %v)", s.Algorithm, s.Eps, s.P, s.D)
	}
	return nil
}

// hasNaN reports whether Eps, P or D is NaN, the one way a spec can
// differ from itself.
func (s MineSpec) hasNaN() bool {
	return math.IsNaN(s.Eps) || math.IsNaN(s.P) || math.IsNaN(s.D)
}

// MineResult holds the output of Provider.Mine. Matrix is set for
// every algorithm but apriori (which never builds it) and, from
// Provider.MineIncremental, a warm DBSCAN run, which computes only the
// appended rows (Rows); exactly one algorithm-specific field is
// non-zero, matching the spec. The JSON tags are dpeserver's /v1 wire
// form, where Matrix is always present (null for apriori) and the
// other fields only when set; Rows never goes on the wire.
type MineResult struct {
	Matrix Matrix `json:"matrix"`
	// Rows are the full-width matrix rows Incremental.OldN..N−1 a warm
	// MineIncremental run computed for the appended queries; nil for a
	// cold run, apriori, a run that appended nothing, and a run that
	// built the whole matrix. For warm DBSCAN they are the only rows
	// the run holds: its Matrix is nil.
	Rows Matrix `json:"-"`
	// Clusters is the k-medoids result (MineKMedoids).
	Clusters *KMedoidsResult `json:"clusters,omitempty"`
	// Labels are per-query cluster labels (MineDBSCAN — Noise marks
	// noise — and MineCompleteLink).
	Labels []int `json:"labels,omitempty"`
	// Outliers flags per-query outlier status (MineOutliers).
	Outliers []bool `json:"outliers,omitempty"`
	// Neighbors are the nearest-neighbor indices (MineKNN).
	Neighbors []int `json:"neighbors,omitempty"`
	// Itemsets are the frequent feature itemsets (MineApriori), in
	// deterministic order (by size, then lexicographic).
	Itemsets []FrequentItemset `json:"itemsets,omitempty"`
	// Incremental reports how a MineIncremental call arrived at the
	// result; nil for plain Mine calls.
	Incremental *IncrementalStats `json:"incremental,omitempty"`
}

// Mine builds the distance matrix of the log and runs one mining
// algorithm over it — the provider's whole job in one call, entirely on
// ciphertext. The spec is validated against the log *before* the matrix
// build, so parameter mistakes fail fast.
func (p *Provider) Mine(ctx context.Context, log []string, spec MineSpec) (*MineResult, error) {
	if err := spec.Validate(len(log)); err != nil {
		return nil, err
	}
	pl, err := p.Prepare(ctx, log)
	if err != nil {
		return nil, err
	}
	return p.MinePrepared(ctx, pl, spec)
}

// MinePrepared is Mine over an already-prepared log. It is the cold
// bootstrap MineIncremental runs without a previous state, with the
// state and the incremental stats dropped, so the two agree by
// construction.
func (p *Provider) MinePrepared(ctx context.Context, pl *PreparedLog, spec MineSpec) (*MineResult, error) {
	if err := spec.Validate(pl.Len()); err != nil {
		return nil, err
	}
	res, _, err := p.mineBootstrap(ctx, pl, spec)
	if err != nil {
		return nil, err
	}
	res.Incremental = nil
	return res, nil
}

// ProviderAPI is the provider-shaped mining surface: what a data owner
// (or any client) needs from a service provider, independent of whether
// the provider runs in-process (*Provider) or across the network
// (internal/service.Session via dpeserver). Code written against this
// interface runs against either interchangeably. The Definition 1 check
// is not part of it: the owner runs VerifyPreservation on matrices it
// holds.
type ProviderAPI interface {
	// Measure returns the session's distance measure.
	Measure() Measure
	// DistanceMatrix computes the pairwise distance matrix of a log.
	DistanceMatrix(ctx context.Context, log []string) (Matrix, error)
	// Append extends the matrix already built for log with newQueries,
	// computing only the new entries (the incremental append path).
	// The result may share old's storage, so treat both as read-only:
	// a remote session grows the matrix it returned last in place,
	// and only that one, until it is closed.
	Append(ctx context.Context, old Matrix, log []string, newQueries []string) (Matrix, error)
	// Distances computes one matrix row (the kNN access pattern).
	Distances(ctx context.Context, log []string, q int) ([]float64, error)
	// Mine builds the matrix and runs one mining algorithm over it.
	Mine(ctx context.Context, log []string, spec MineSpec) (*MineResult, error)
	// Neighbors returns the k nearest neighbors of query q, ranked by
	// the exact metric from one matrix row — the matrix triangle is
	// never materialized.
	Neighbors(ctx context.Context, log []string, q, k int) (*NeighborsResult, error)
}

var _ ProviderAPI = (*Provider)(nil)

// VerifyPreservation checks Definition 1 empirically: the plaintext and
// ciphertext distance matrices must agree entry-wise (within tol; 0
// means 1e-12). It is the data owner's check, run where the plaintext
// matrix lives; no provider, in-process or remote, needs to see it.
func VerifyPreservation(plain, enc Matrix, tol float64) (*PreservationReport, error) {
	n := len(plain)
	if len(enc) != n {
		return nil, fmt.Errorf("dpe: matrix sizes differ: %d vs %d", n, len(enc))
	}
	for i := range plain {
		if len(plain[i]) != n {
			return nil, fmt.Errorf("dpe: plaintext matrix row %d has length %d, want %d", i, len(plain[i]), n)
		}
		if len(enc[i]) != n {
			return nil, fmt.Errorf("dpe: encrypted matrix row %d has length %d, want %d", i, len(enc[i]), n)
		}
	}
	return core.VerifyDPE(n,
		func(i, j int) (float64, error) { return plain[i][j], nil },
		func(i, j int) (float64, error) { return enc[i][j], nil },
		tol)
}

// --- mining re-exports (distance-matrix based, deterministic) ---

// KMedoids clusters with the Park–Jun k-medoids algorithm.
func KMedoids(m Matrix, k int) (*KMedoidsResult, error) { return mining.KMedoids(m, k) }

// DBSCAN clusters density-based; label -1 (dpe.Noise) marks noise.
func DBSCAN(m Matrix, eps float64, minPts int) ([]int, error) { return mining.DBSCAN(m, eps, minPts) }

// Noise is DBSCAN's noise label.
const Noise = mining.Noise

// CompleteLink clusters agglomeratively with the complete-link
// criterion, cutting at k clusters.
func CompleteLink(m Matrix, k int) ([]int, error) { return mining.CompleteLink(m, k) }

// Outliers finds Knorr–Ng DB(p, D) distance-based outliers.
func Outliers(m Matrix, p, d float64) ([]bool, error) { return mining.Outliers(m, p, d) }

// KNN returns the k nearest neighbors of item q.
func KNN(m Matrix, q, k int) ([]int, error) { return mining.KNN(m, q, k) }

// GenerateWorkload creates the deterministic SkyServer-like synthetic
// workload used by the experiments and examples.
func GenerateWorkload(cfg WorkloadConfig) (*Workload, error) { return workload.Generate(cfg) }
