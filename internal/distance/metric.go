package distance

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/accessarea"
	"repro/internal/db"
	"repro/internal/sqlfeature"
	"repro/internal/sqlparse"
)

// Artifacts bundles the provider-side shared information of Table I: the
// encrypted log is passed to Prepare, everything else a measure may need
// is here. Log-only measures ignore all fields.
type Artifacts struct {
	// Catalog is the (encrypted) database content required by the
	// result-distance measure.
	Catalog *db.Catalog
	// Exec carries execution options for the catalog — for encrypted
	// catalogs the owner's aggregate evaluator.
	Exec db.Options
	// Domains are the (encrypted) attribute domains required by the
	// access-area measure.
	Domains map[string]accessarea.Domain
	// AccessAreaX is Definition 5's partial-overlap value; 0 means
	// DefaultOverlapX.
	AccessAreaX float64
	// Parallelism bounds concurrent per-query preparation work (query
	// execution for the result measure). <= 1 means sequential.
	Parallelism int
}

// Prepared is a query log after a metric's per-query work (tokenizing,
// parsing, feature extraction, execution) has run once. Distance is pure
// over that state: symmetric, and safe for concurrent use, so matrix
// builds can fan out freely.
type Prepared interface {
	// Len is the number of queries in the prepared log.
	Len() int
	// Distance returns the distance of queries i and j.
	Distance(i, j int) (float64, error)
}

// Sizer is optionally implemented by Prepared states that can estimate
// the memory they retain. Caches use it to budget prepared state by
// bytes; the estimate must scale with the real footprint (for the
// result measure that is the materialized tuple sets, which dwarf the
// log text).
type Sizer interface {
	// SizeBytes estimates the retained memory of the prepared state.
	SizeBytes() int64
}

// Metric is one query-distance measure (a row of Table I). The four
// measures are a closed set that New builds; each works identically on
// plaintext and ciphertext logs, which is the DPE property.
type Metric interface {
	// Name is the measure's name, e.g. "token".
	Name() string
	// Prepare runs the per-query work for a log. It honors ctx
	// cancellation between queries.
	Prepare(ctx context.Context, queries []string) (Prepared, error)
	// Extend runs the per-query work for only the new queries and
	// returns a prepared state over old ∘ new, identical to Prepare over
	// the concatenated log. It is what makes matrix appends O(n·k)
	// instead of O((n+k)²). prev must come from the same measure's
	// Prepare, Extend or UnmarshalPrepared; it is not modified (the
	// result may share its per-query state).
	Extend(ctx context.Context, prev Prepared, newQueries []string) (Prepared, error)
	// MarshalPrepared serializes a prepared state of this measure: the
	// codec behind the service's persistent prepared-state snapshots.
	// The encoding is deterministic (equal states marshal to equal
	// bytes) and exact: UnmarshalPrepared returns a state whose
	// Distance is entry-wise identical, so a recovered cache serves the
	// matrices the pre-restart one did.
	MarshalPrepared(p Prepared) ([]byte, error)
	// UnmarshalPrepared is the inverse of MarshalPrepared. It reads
	// only the payload tag this measure writes; a snapshot in another
	// measure's tag or a retired one is an error, and the log is
	// prepared again.
	UnmarshalPrepared(data []byte) (Prepared, error)
}

// New builds the named measure from the shared artifacts, validating
// that the measure's required shared information is present and, for
// access-area, that every domain is an interval: endpoints value.Compare
// can order, min not above max.
func New(name string, a Artifacts) (Metric, error) {
	switch name {
	case "token":
		return &setMetric[string]{name: name, sets: tokenSets, codec: stringCodec}, nil
	case "structure":
		return &setMetric[sqlfeature.Feature]{name: name, sets: featureSets, codec: featureCodec}, nil
	case "result":
		if a.Catalog == nil {
			return nil, fmt.Errorf("distance: result metric requires the (encrypted) catalog")
		}
		return &setMetric[string]{name: name, sets: resultSets(a.Catalog, a.Exec, a.Parallelism), codec: stringCodec}, nil
	case "access-area":
		x := a.AccessAreaX
		if x == 0 {
			x = DefaultOverlapX
		}
		if x <= 0 || x >= 1 {
			return nil, fmt.Errorf("distance: overlap value x=%v outside (0,1)", x)
		}
		if a.Domains == nil {
			return nil, fmt.Errorf("distance: access-area metric requires the (encrypted) domains")
		}
		for _, attr := range slices.Sorted(maps.Keys(a.Domains)) {
			dom := a.Domains[attr]
			if c, ok := dom.Min.Compare(dom.Max); !ok || c > 0 {
				return nil, fmt.Errorf("distance: access-area domain of %q is not an interval: min %v, max %v", attr, dom.Min, dom.Max)
			}
		}
		return &accessAreaMetric{domains: a.Domains, x: x}, nil
	}
	return nil, fmt.Errorf("distance: unknown metric %q (have %v)", name, Names())
}

// Names lists the measures New builds, sorted.
func Names() []string {
	return []string{"access-area", "result", "structure", "token"}
}

// keySize estimates one set element's footprint: strings carry their
// text (tuple keys grow with catalog rows), fixed-size struct keys a
// constant plus any string payload.
func keySize(k any) int64 {
	switch v := k.(type) {
	case string:
		return int64(len(v)) + 16
	case sqlfeature.Feature:
		return int64(len(v.Item)) + 24
	default:
		return 32
	}
}

// --- set measures: token, structure, result ---

// setMetric is a measure whose characteristic is one element set per
// query, compared by Jaccard distance. Its instances differ only in how
// a query becomes an element set (sets) and in how an element is
// encoded in snapshots (codec, snapshot.go).
type setMetric[K comparable] struct {
	name string
	// sets passes each query's element set to add, in log order, sorted
	// and de-duplicated: sorted order keeps dictionary growth
	// deterministic, so Prepare and Prepare-then-Extend agree.
	sets  func(ctx context.Context, queries []string, add func([]K)) error
	codec *setCodec[K]
}

func (m *setMetric[K]) Name() string { return m.name }

func (m *setMetric[K]) Prepare(ctx context.Context, queries []string) (Prepared, error) {
	return m.grow(ctx, newInternedPrepared[K](len(queries)), queries)
}

// Extend works on a growable copy of prev that shares its bitsets and
// clones its dictionary, so appending interns only the new queries'
// elements.
func (m *setMetric[K]) Extend(ctx context.Context, prev Prepared, newQueries []string) (Prepared, error) {
	old, ok := prev.(*internedPrepared[K])
	if !ok {
		return nil, fmt.Errorf("distance: %s: prepared state %T is not this metric's", m.name, prev)
	}
	out := &internedPrepared[K]{}
	out.extendFrom(old, len(newQueries))
	return m.grow(ctx, out, newQueries)
}

func (m *setMetric[K]) grow(ctx context.Context, p *internedPrepared[K], queries []string) (Prepared, error) {
	if err := m.sets(ctx, queries, p.addSet); err != nil {
		return nil, err
	}
	return p, nil
}

// tokenSets yields Definition 3's token sets.
func tokenSets(ctx context.Context, queries []string, add func([]string)) error {
	for i, q := range queries {
		if err := ctx.Err(); err != nil {
			return err
		}
		set, err := sqlfeature.Tokens(q)
		if err != nil {
			return fmt.Errorf("distance: query %d: %w", i, err)
		}
		add(sortedStrings(set))
	}
	return nil
}

// featureSets yields the SnipSuggest feature sets.
func featureSets(ctx context.Context, queries []string, add func([]sqlfeature.Feature)) error {
	stmts, err := parseLog(ctx, queries)
	if err != nil {
		return err
	}
	for _, s := range stmts {
		add(sortedFeatures(sqlfeature.Features(s)))
	}
	return nil
}

// resultSets yields Definition 4's result tuple sets over one catalog.
// Each statement executes once, up to parallelism at a time, into its
// own slot. Execution is deterministic, so the tuple sets match what one
// Prepare over the combined log would produce.
func resultSets(cat *db.Catalog, opts db.Options, parallelism int) func(context.Context, []string, func([]string)) error {
	return func(ctx context.Context, queries []string, add func([]string)) error {
		stmts, err := parseLog(ctx, queries)
		if err != nil {
			return err
		}
		sets := make([][]string, len(stmts))
		err = parallelFor(ctx, len(stmts), parallelism, func(_ context.Context, i int) error {
			res, err := db.ExecuteOpts(cat, stmts[i], opts)
			if err != nil {
				return fmt.Errorf("distance: result of query %d: %w", i, err)
			}
			sets[i] = tupleKeys(res.Rows)
			return nil
		})
		if err != nil {
			return err
		}
		for _, set := range sets {
			add(set)
		}
		return nil
	}
}

// tupleKeys renders each result tuple to a canonical key and returns
// the keys sorted and de-duplicated: per Definition 4 the *set* of
// result tuples is the characteristic.
func tupleKeys(rows []db.Row) []string {
	keys := make([]string, len(rows))
	for i, row := range rows {
		var sb strings.Builder
		for _, v := range row {
			sb.WriteString(v.Key())
			sb.WriteByte(0)
		}
		keys[i] = sb.String()
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// --- access-area (Definition 5) ---

type accessAreaMetric struct {
	domains map[string]accessarea.Domain
	x       float64
}

func (*accessAreaMetric) Name() string { return "access-area" }

// aaQuery is one query's precomputed access areas: the interned ids of
// its accessed attributes in ascending order, with the extracted areas
// in a parallel slice. Sorted ids let Distance merge two queries'
// attribute lists linearly instead of probing maps.
type aaQuery struct {
	ids   []uint32
	areas []accessarea.Area
}

type aaPrepared struct {
	attrs   *dict[string]
	queries []aaQuery
	x       float64
}

// addQuery extracts one statement's access areas, interning attribute
// names in sorted order (deterministic dictionary growth), and appends
// the id-sorted query.
func (p *aaPrepared) addQuery(s *sqlparse.SelectStmt, domains map[string]accessarea.Domain) error {
	names := sortedStrings(accessarea.AccessedAttributes(s))
	q := aaQuery{
		ids:   make([]uint32, 0, len(names)),
		areas: make([]accessarea.Area, 0, len(names)),
	}
	for _, a := range names {
		dom, ok := domains[a]
		if !ok {
			return fmt.Errorf("distance: no domain for accessed attribute %q", a)
		}
		area, _, err := accessarea.Extract(s, a, dom)
		if err != nil {
			return err
		}
		q.ids = append(q.ids, p.attrs.intern(a))
		q.areas = append(q.areas, area)
	}
	// Interning happened in name order; re-sort by id (ids assigned by
	// earlier queries may interleave) keeping the areas parallel.
	sort.Sort(&aaByID{q})
	p.queries = append(p.queries, q)
	return nil
}

// aaByID sorts an aaQuery's (id, area) pairs by id.
type aaByID struct{ q aaQuery }

func (s *aaByID) Len() int           { return len(s.q.ids) }
func (s *aaByID) Less(i, j int) bool { return s.q.ids[i] < s.q.ids[j] }
func (s *aaByID) Swap(i, j int) {
	s.q.ids[i], s.q.ids[j] = s.q.ids[j], s.q.ids[i]
	s.q.areas[i], s.q.areas[j] = s.q.areas[j], s.q.areas[i]
}

func (m *accessAreaMetric) Prepare(ctx context.Context, queries []string) (Prepared, error) {
	return m.grow(ctx, &aaPrepared{x: m.x, attrs: newDict[string]()}, queries)
}

// Extend shares prev's per-query areas and clones its dictionary.
func (m *accessAreaMetric) Extend(ctx context.Context, prev Prepared, newQueries []string) (Prepared, error) {
	old, ok := prev.(*aaPrepared)
	if !ok {
		return nil, fmt.Errorf("distance: access-area: prepared state %T is not this metric's", prev)
	}
	return m.grow(ctx, &aaPrepared{x: old.x, attrs: old.attrs.clone(), queries: slices.Clip(old.queries)}, newQueries)
}

func (m *accessAreaMetric) grow(ctx context.Context, p *aaPrepared, queries []string) (Prepared, error) {
	stmts, err := parseLog(ctx, queries)
	if err != nil {
		return nil, err
	}
	p.queries = slices.Grow(p.queries, len(stmts))
	for _, s := range stmts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := p.addQuery(s, m.domains); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *aaPrepared) Len() int { return len(p.queries) }

// SizeBytes implements Sizer: attribute names are held once in the
// dictionary; per query only ids and the extracted areas remain.
func (p *aaPrepared) SizeBytes() int64 {
	total := int64(64)
	for _, a := range p.attrs.elems {
		total += int64(len(a)) + 48
	}
	for _, q := range p.queries {
		total += 48 + int64(len(q.ids))*4
		for _, area := range q.areas {
			total += 48 + int64(len(area.Intervals()))*96
		}
	}
	return total
}

// Distance is Definition 5's d_AE over the precomputed areas: the mean
// δ over all attributes accessed by either query,
//
//	δ_A = 0   if access_A(Q1) = access_A(Q2)
//	    = x   if the areas overlap
//	    = 1   otherwise,
//
// computed by merging the two id-sorted attribute lists. An attribute
// accessed by only one query compares its area against the empty area.
// Two queries accessing no attributes at all have distance 0.
func (p *aaPrepared) Distance(i, j int) (float64, error) {
	q1, q2 := &p.queries[i], &p.queries[j]
	n := 0
	var sum float64
	delta := func(a1, a2 accessarea.Area) {
		n++
		switch {
		case a1.Equal(a2):
			// δ = 0
		case a1.Overlaps(a2):
			sum += p.x
		default:
			sum += 1
		}
	}
	empty := accessarea.Empty()
	ii, jj := 0, 0
	for ii < len(q1.ids) && jj < len(q2.ids) {
		switch {
		case q1.ids[ii] == q2.ids[jj]:
			delta(q1.areas[ii], q2.areas[jj])
			ii++
			jj++
		case q1.ids[ii] < q2.ids[jj]:
			delta(q1.areas[ii], empty)
			ii++
		default:
			delta(empty, q2.areas[jj])
			jj++
		}
	}
	for ; ii < len(q1.ids); ii++ {
		delta(q1.areas[ii], empty)
	}
	for ; jj < len(q2.ids); jj++ {
		delta(empty, q2.areas[jj])
	}
	if n == 0 {
		return 0, nil
	}
	return sum / float64(n), nil
}

// parseLog parses every query of a log, honoring ctx between queries.
func parseLog(ctx context.Context, queries []string) ([]*sqlparse.SelectStmt, error) {
	stmts := make([]*sqlparse.SelectStmt, len(queries))
	for i, q := range queries {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s, err := sqlparse.Parse(q)
		if err != nil {
			return nil, fmt.Errorf("distance: query %d: %w", i, err)
		}
		stmts[i] = s
	}
	return stmts, nil
}
