package distance

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/accessarea"
	"repro/internal/db"
	"repro/internal/sqlfeature"
	"repro/internal/sqlparse"
	"repro/internal/value"
	"repro/internal/workload"
)

func set(items ...string) map[string]bool {
	m := make(map[string]bool)
	for _, s := range items {
		m[s] = true
	}
	return m
}

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b map[string]bool
		want float64
	}{
		{set("a", "b"), set("a", "b"), 0},
		{set("a"), set("b"), 1},
		{set("a", "b", "c"), set("b", "c", "d"), 0.5},
		{set(), set(), 0},
		{set("a"), set(), 1},
	}
	for _, c := range cases {
		if got := Jaccard(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Jaccard(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestJaccardMetricProperties(t *testing.T) {
	f := func(a, b []uint8) bool {
		sa, sb := make(map[uint8]bool), make(map[uint8]bool)
		for _, x := range a {
			sa[x%16] = true
		}
		for _, x := range b {
			sb[x%16] = true
		}
		d1 := Jaccard(sa, sb)
		d2 := Jaccard(sb, sa)
		// Symmetry, range, identity.
		if d1 != d2 || d1 < 0 || d1 > 1 {
			return false
		}
		return Jaccard(sa, sa) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// measurePair prepares two queries under the named measure and returns
// their distance: the per-pair cases below run through the state the
// provider serves.
func measurePair(name string, arts Artifacts, q1, q2 string) (float64, error) {
	m, err := New(name, arts)
	if err != nil {
		return 0, err
	}
	p, err := m.Prepare(context.Background(), []string{q1, q2})
	if err != nil {
		return 0, err
	}
	return p.Distance(0, 1)
}

func TestTokenDistance(t *testing.T) {
	tok := func(q1, q2 string) (float64, error) { return measurePair("token", Artifacts{}, q1, q2) }
	// Identical queries: distance 0.
	d, err := tok("SELECT a FROM r", "SELECT a FROM r")
	if err != nil || d != 0 {
		t.Fatalf("identical: %v, %v", d, err)
	}
	// Paper-style example: one token differs.
	d1, _ := tok("SELECT a FROM r WHERE b > 5", "SELECT a FROM r WHERE b > 7")
	if d1 <= 0 || d1 >= 1 {
		t.Fatalf("near-identical distance = %v", d1)
	}
	d2, _ := tok("SELECT a FROM r WHERE b > 5", "SELECT zz FROM qq WHERE yy < 3")
	if d2 <= d1 {
		t.Fatalf("more different queries must be farther: %v <= %v", d2, d1)
	}
	if _, err := tok("bad @", "SELECT a FROM r"); err == nil {
		t.Fatal("invalid query must error")
	}
}

func TestStructureDistance(t *testing.T) {
	structure := func(q1, q2 string) float64 {
		t.Helper()
		d, err := measurePair("structure", Artifacts{}, q1, q2)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if d := structure("SELECT a FROM r WHERE b > 5", "SELECT a FROM r WHERE b > 999999"); d != 0 {
		t.Fatalf("constants must not affect structure distance: %v", d)
	}
	if d := structure("SELECT a FROM r WHERE b > 5", "SELECT a FROM r WHERE c < 5"); d <= 0 {
		t.Fatalf("different predicates must differ: %v", d)
	}
}

func resultFixture(t *testing.T) *db.Catalog {
	t.Helper()
	cat := db.NewCatalog()
	tbl := cat.MustCreate("r", []db.Column{{Name: "a", Type: db.TypeInt}, {Name: "b", Type: db.TypeInt}})
	for i := int64(0); i < 10; i++ {
		tbl.MustInsert(db.Row{value.Int(i), value.Int(i * 10)})
	}
	return cat
}

func TestResultDistance(t *testing.T) {
	arts := Artifacts{Catalog: resultFixture(t)}
	res := func(q1, q2 string) (float64, error) { return measurePair("result", arts, q1, q2) }

	// Same result set: distance 0 even for different query text.
	d, err := res("SELECT a FROM r WHERE a < 5", "SELECT a FROM r WHERE a <= 4")
	if err != nil || d != 0 {
		t.Fatalf("equal results: %v, %v", d, err)
	}
	// Disjoint results: distance 1.
	d, _ = res("SELECT a FROM r WHERE a < 3", "SELECT a FROM r WHERE a > 7")
	if d != 1 {
		t.Fatalf("disjoint results: %v", d)
	}
	// Overlap: 0..5 vs 3..9 → |∩|=3 (3,4,5), |∪|=10.
	d, _ = res("SELECT a FROM r WHERE a <= 5", "SELECT a FROM r WHERE a >= 3")
	if math.Abs(d-0.7) > 1e-12 {
		t.Fatalf("overlap distance = %v, want 0.7", d)
	}
}

// TestResultDistanceCaches pins that a prepared result state holds the
// tuple sets it executed: a later catalog insert changes a fresh
// Prepare, not the state already served.
func TestResultDistanceCaches(t *testing.T) {
	cat := resultFixture(t)
	m, err := New("result", Artifacts{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"SELECT a FROM r", "SELECT a FROM r WHERE a < 5"}
	before, err := m.Prepare(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := cat.Table("r")
	tbl.MustInsert(db.Row{value.Int(99), value.Int(990)})
	if d, err := before.Distance(0, 1); err != nil || d != 0.5 {
		t.Fatalf("prepared state after insert: %v, %v; want the 5-of-10 distance 0.5", d, err)
	}
	after, err := m.Prepare(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := after.Distance(0, 1); math.Abs(d-(1-5.0/11)) > 1e-12 {
		t.Fatalf("fresh Prepare after insert: %v, want 1 - 5/11", d)
	}
}

func TestResultDistanceError(t *testing.T) {
	_, err := measurePair("result", Artifacts{Catalog: resultFixture(t)}, "SELECT nosuch FROM r", "SELECT a FROM r")
	if err == nil {
		t.Fatal("bad query must error")
	}
}

var testDomains = map[string]accessarea.Domain{
	"x": {Min: value.Int(0), Max: value.Int(100)},
	"y": {Min: value.Int(0), Max: value.Int(100)},
}

func aaDist(t *testing.T, q1, q2 string) float64 {
	t.Helper()
	d, err := measurePair("access-area", Artifacts{Domains: testDomains}, q1, q2)
	if err != nil {
		t.Fatalf("access-area(%q,%q): %v", q1, q2, err)
	}
	return d
}

func TestAccessAreaDistanceDefinition5(t *testing.T) {
	// Equal areas → 0.
	if d := aaDist(t, "SELECT a FROM r WHERE x BETWEEN 1 AND 5", "SELECT b FROM r WHERE x >= 1 AND x <= 5"); d != 0 {
		t.Fatalf("equal areas: %v", d)
	}
	// Overlapping areas → x (0.5 default).
	if d := aaDist(t, "SELECT a FROM r WHERE x < 50", "SELECT a FROM r WHERE x > 20"); d != 0.5 {
		t.Fatalf("overlap: %v", d)
	}
	// Disjoint areas → 1.
	if d := aaDist(t, "SELECT a FROM r WHERE x < 20", "SELECT a FROM r WHERE x > 50"); d != 1 {
		t.Fatalf("disjoint: %v", d)
	}
	// Two attributes: x equal (0), y disjoint (1) → mean 0.5.
	if d := aaDist(t, "SELECT a FROM r WHERE x = 5 AND y < 10", "SELECT a FROM r WHERE x = 5 AND y > 90"); d != 0.5 {
		t.Fatalf("two attrs: %v", d)
	}
	// Attribute accessed by one query only → its δ = 1.
	if d := aaDist(t, "SELECT a FROM r WHERE x = 5", "SELECT a FROM r WHERE x = 5 AND y = 2"); d != 0.5 {
		t.Fatalf("one-sided attr: %v", d)
	}
	// No accessed attributes at all → 0.
	if d := aaDist(t, "SELECT a FROM r", "SELECT b FROM r"); d != 0 {
		t.Fatalf("no predicates: %v", d)
	}
}

func TestAccessAreaCustomX(t *testing.T) {
	d, err := measurePair("access-area", Artifacts{Domains: testDomains, AccessAreaX: 0.25},
		"SELECT a FROM r WHERE x < 50", "SELECT a FROM r WHERE x > 20")
	if err != nil || d != 0.25 {
		t.Fatalf("custom x: %v, %v", d, err)
	}
	if _, err := measurePair("access-area", Artifacts{Domains: testDomains, AccessAreaX: 1.5},
		"SELECT a FROM r WHERE x = 1", "SELECT a FROM r WHERE x = 1"); err == nil {
		t.Fatal("x outside (0,1) must error")
	}
}

func TestAccessAreaMissingDomain(t *testing.T) {
	_, err := measurePair("access-area", Artifacts{Domains: testDomains},
		"SELECT a FROM r WHERE unknown_attr = 1", "SELECT a FROM r")
	if err == nil {
		t.Fatal("missing domain must error")
	}
}

func TestBuildMatrix(t *testing.T) {
	m, err := BuildMatrix(context.Background(), 4, 1, func(i, j int) (float64, error) {
		return float64(j - i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m[0][3] != 3 || m[3][0] != 3 || m[1][1] != 0 {
		t.Fatalf("matrix = %v", m)
	}
}

func TestBuildMatrixParallelMatchesSequential(t *testing.T) {
	f := func(i, j int) (float64, error) {
		return float64(i*31+j) / 7, nil
	}
	const n = 37
	seq, err := BuildMatrix(context.Background(), n, 1, f)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16, 64} {
		par, err := BuildMatrix(context.Background(), n, workers, f)
		if err != nil {
			t.Fatalf("parallelism %d: %v", workers, err)
		}
		d, err := MaxAbsDiff(seq, par)
		if err != nil || d != 0 {
			t.Fatalf("parallelism %d: max diff %v, %v", workers, d, err)
		}
	}
}

// TestBuildMatrixIntoDirtyStorage builds into storage that holds
// another matrix: NaN everywhere, and then the values of a build of
// another function over a larger n, re-cut n wide as the server's
// spare matrices are. Each result must equal BuildMatrix's bit for bit,
// the diagonal included, so no earlier entry survives a build.
func TestBuildMatrixIntoDirtyStorage(t *testing.T) {
	ctx := context.Background()
	f := func(i, j int) (float64, error) { return float64(i*31+j) / 7, nil }
	g := func(i, j int) (float64, error) { return float64(i + j + 1), nil }
	const big, n = 53, 37
	want, err := BuildMatrix(ctx, n, 1, f)
	if err != nil {
		t.Fatal(err)
	}
	cut := func(backing []float64, width int) Matrix {
		m := make(Matrix, width)
		for i := range m {
			m[i] = backing[i*width : (i+1)*width : (i+1)*width]
		}
		return m
	}
	for _, workers := range []int{1, 4} {
		backing := make([]float64, big*big)
		for i := range backing {
			backing[i] = math.NaN()
		}
		for _, dirt := range []string{"NaN", "a larger build"} {
			if dirt != "NaN" {
				if err := BuildMatrixInto(ctx, cut(backing, big), workers, g); err != nil {
					t.Fatal(err)
				}
			}
			got := cut(backing, n)
			if err := BuildMatrixInto(ctx, got, workers, f); err != nil {
				t.Fatalf("parallelism %d over %s: %v", workers, dirt, err)
			}
			for i := range want {
				for j := range want[i] {
					if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
						t.Fatalf("parallelism %d over %s: entry (%d,%d) = %v, want %v", workers, dirt, i, j, got[i][j], want[i][j])
					}
				}
			}
		}
	}
	ragged := Matrix{make([]float64, 2), make([]float64, 1)}
	if err := BuildMatrixInto(ctx, ragged, 1, f); err == nil {
		t.Error("BuildMatrixInto accepted a ragged matrix")
	}
}

func TestBuildMatrixErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := BuildMatrix(context.Background(), 20, workers, func(i, j int) (float64, error) {
			if i == 7 && j == 11 {
				return 0, boom
			}
			return 0, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("parallelism %d: err = %v, want %v", workers, err, boom)
		}
	}
}

func TestBuildMatrixCancelMidBuild(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		started := make(chan struct{}, 1)
		f := func(i, j int) (float64, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			time.Sleep(time.Millisecond)
			return 0, nil
		}
		go func() {
			<-started
			cancel()
		}()
		start := time.Now()
		_, err := BuildMatrix(ctx, 100, workers, f) // 4950 pairs ≈ 5s if run to completion
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: err = %v, want context.Canceled", workers, err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("parallelism %d: cancellation took %v", workers, elapsed)
		}
	}
}

func TestBuildMatrixPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := BuildMatrix(ctx, 4, 4, func(i, j int) (float64, error) { return 0, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestMetricRegistry(t *testing.T) {
	names := Names()
	want := []string{"access-area", "result", "structure", "token"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	if _, err := New("nosuch", Artifacts{}); err == nil {
		t.Fatal("unknown metric must error")
	}
	if _, err := New("result", Artifacts{}); err == nil {
		t.Fatal("result without catalog must error")
	}
	if _, err := New("access-area", Artifacts{}); err == nil {
		t.Fatal("access-area without domains must error")
	}
	if _, err := New("access-area", Artifacts{Domains: testDomains, AccessAreaX: 1.5}); err == nil {
		t.Fatal("x outside (0,1) must error")
	}
	// A domain must be an interval, whichever path built the map.
	for name, dom := range map[string]accessarea.Domain{
		"min above max":       {Min: value.Int(50), Max: value.Int(5)},
		"int min, string max": {Min: value.Int(0), Max: value.Str("z")},
		"NULL endpoints":      {Min: value.Null(), Max: value.Null()},
	} {
		domains := map[string]accessarea.Domain{"x": testDomains["x"], "bad": dom}
		if _, err := New("access-area", Artifacts{Domains: domains}); err == nil || !strings.Contains(err.Error(), `"bad"`) {
			t.Errorf("%s: New = %v, want an error naming attribute \"bad\"", name, err)
		}
	}
}

// The per-pair reference: each measure straight from its definition,
// re-deriving both queries' characteristics on every call, with no
// interning, bitsets or state shared between calls.
// TestMetricsMatchDirectFunctions holds the served states to it.

// refJaccard is the Jaccard distance of two queries' characteristic
// sets: token sets (Definition 3), feature sets (structure) or result
// tuple sets (Definition 4).
func refJaccard[K comparable](set func(q string) (map[K]bool, error)) func(q1, q2 string) (float64, error) {
	return func(q1, q2 string) (float64, error) {
		s1, err := set(q1)
		if err != nil {
			return 0, err
		}
		s2, err := set(q2)
		if err != nil {
			return 0, err
		}
		return Jaccard(s1, s2), nil
	}
}

func refFeatures(q string) (map[sqlfeature.Feature]bool, error) {
	s, err := sqlparse.Parse(q)
	if err != nil {
		return nil, err
	}
	return sqlfeature.Features(s), nil
}

func refTuples(cat *db.Catalog) func(q string) (map[string]bool, error) {
	return func(q string) (map[string]bool, error) {
		s, err := sqlparse.Parse(q)
		if err != nil {
			return nil, err
		}
		res, err := db.Execute(cat, s)
		if err != nil {
			return nil, err
		}
		set := make(map[string]bool, len(res.Rows))
		for _, row := range res.Rows {
			var sb strings.Builder
			for _, v := range row {
				sb.WriteString(v.Key())
				sb.WriteByte(0)
			}
			set[sb.String()] = true
		}
		return set, nil
	}
}

// refAccessArea is Definition 5 with the default x: the mean δ over
// all attributes accessed by either query, 0 when neither accesses one.
func refAccessArea(domains map[string]accessarea.Domain) func(q1, q2 string) (float64, error) {
	return func(q1, q2 string) (float64, error) {
		s1, err := sqlparse.Parse(q1)
		if err != nil {
			return 0, err
		}
		s2, err := sqlparse.Parse(q2)
		if err != nil {
			return 0, err
		}
		attrs := accessarea.AccessedAttributes(s1)
		for a := range accessarea.AccessedAttributes(s2) {
			attrs[a] = true
		}
		if len(attrs) == 0 {
			return 0, nil
		}
		var sum float64
		for a := range attrs {
			dom, ok := domains[a]
			if !ok {
				return 0, fmt.Errorf("no domain for accessed attribute %q", a)
			}
			a1, _, err := accessarea.Extract(s1, a, dom)
			if err != nil {
				return 0, err
			}
			a2, _, err := accessarea.Extract(s2, a, dom)
			if err != nil {
				return 0, err
			}
			switch {
			case a1.Equal(a2):
			case a1.Overlaps(a2):
				sum += DefaultOverlapX
			default:
				sum++
			}
		}
		return sum / float64(len(attrs)), nil
	}
}

// TestMetricsMatchDirectFunctions holds every measure's served state to
// the per-pair reference: on five hand-written queries, and on
// generated workload logs (token, structure and access-area over a log
// with aggregates, joins and LIKE; result over the executable subset).
func TestMetricsMatchDirectFunctions(t *testing.T) {
	hand := []string{
		"SELECT a FROM r WHERE a < 5",
		"SELECT a FROM r WHERE a <= 4",
		"SELECT b FROM r WHERE a > 7 AND b < 50",
		"SELECT a, b FROM r WHERE a = 3 OR b = 90",
		"SELECT a FROM r",
	}
	domains := map[string]accessarea.Domain{
		"a": {Min: value.Int(0), Max: value.Int(100)},
		"b": {Min: value.Int(0), Max: value.Int(1000)},
	}
	cat := resultFixture(t)
	logW, err := workload.Generate(workload.Config{Seed: "distance-reference", Queries: 60, Rows: 60,
		IncludeAggregates: true, IncludeJoins: true, IncludeLike: true})
	if err != nil {
		t.Fatal(err)
	}
	execW, err := workload.Generate(workload.Config{Seed: "distance-reference", Queries: 30, Rows: 60,
		IncludeAggregates: true, IncludeJoins: true})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		log, name string
		queries   []string
		arts      Artifacts
		ref       func(q1, q2 string) (float64, error)
	}{
		{"hand", "token", hand, Artifacts{}, refJaccard(sqlfeature.Tokens)},
		{"hand", "structure", hand, Artifacts{}, refJaccard(refFeatures)},
		{"hand", "result", hand, Artifacts{Catalog: cat, Parallelism: 4}, refJaccard(refTuples(cat))},
		{"hand", "access-area", hand, Artifacts{Domains: domains}, refAccessArea(domains)},
		{"workload", "token", logW.Queries, Artifacts{}, refJaccard(sqlfeature.Tokens)},
		{"workload", "structure", logW.Queries, Artifacts{}, refJaccard(refFeatures)},
		{"workload", "access-area", logW.Queries, Artifacts{Domains: logW.Domains}, refAccessArea(logW.Domains)},
		{"workload", "result", execW.Queries, Artifacts{Catalog: execW.Catalog, Parallelism: 4}, refJaccard(refTuples(execW.Catalog))},
	}
	for _, c := range cases {
		t.Run(c.log+"/"+c.name, func(t *testing.T) {
			m, err := New(c.name, c.arts)
			if err != nil {
				t.Fatal(err)
			}
			if m.Name() != c.name {
				t.Fatalf("Name() = %q, want %q", m.Name(), c.name)
			}
			prep, err := m.Prepare(context.Background(), c.queries)
			if err != nil {
				t.Fatal(err)
			}
			if prep.Len() != len(c.queries) {
				t.Fatalf("Len() = %d, want %d", prep.Len(), len(c.queries))
			}
			got, err := BuildMatrix(context.Background(), prep.Len(), 4, prep.Distance)
			if err != nil {
				t.Fatal(err)
			}
			want, err := BuildMatrix(context.Background(), len(c.queries), 1, func(i, j int) (float64, error) {
				return c.ref(c.queries[i], c.queries[j])
			})
			if err != nil {
				t.Fatal(err)
			}
			if d, err := MaxAbsDiff(got, want); err != nil || d > 1e-12 {
				t.Fatalf("served state differs from the per-pair reference by %v (%v)", d, err)
			}
		})
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := Matrix{{0, 1}, {1, 0}}
	b := Matrix{{0, 1.25}, {1.25, 0}}
	d, err := MaxAbsDiff(a, b)
	if err != nil || math.Abs(d-0.25) > 1e-12 {
		t.Fatalf("diff = %v, %v", d, err)
	}
	if _, err := MaxAbsDiff(a, Matrix{{0}}); err == nil {
		t.Fatal("size mismatch must error")
	}
}
