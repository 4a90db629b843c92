package workload

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/sqlparse"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Seed: "s1", Queries: 20, Rows: 50, IncludeAggregates: true, IncludeJoins: true}
	w1 := MustGenerate(cfg)
	w2 := MustGenerate(cfg)
	if !reflect.DeepEqual(w1.Queries, w2.Queries) {
		t.Fatal("same seed must generate identical logs")
	}
	w3 := MustGenerate(Config{Seed: "s2", Queries: 20, Rows: 50, IncludeAggregates: true, IncludeJoins: true})
	if reflect.DeepEqual(w1.Queries, w3.Queries) {
		t.Fatal("different seeds should diverge")
	}
}

func TestGeneratedQueriesParseAndPrint(t *testing.T) {
	w := MustGenerate(Config{Queries: 40, IncludeAggregates: true, IncludeJoins: true, IncludeLike: true})
	if len(w.Queries) != 40 || len(w.Stmts) != 40 {
		t.Fatalf("sizes: %d, %d", len(w.Queries), len(w.Stmts))
	}
	for i, q := range w.Queries {
		s, err := sqlparse.Parse(q)
		if err != nil {
			t.Fatalf("query %d does not parse: %v\n%s", i, err, q)
		}
		if s.SQL() != q {
			t.Fatalf("query %d is not canonical: %q vs %q", i, s.SQL(), q)
		}
	}
}

func TestGeneratedQueriesExecute(t *testing.T) {
	w := MustGenerate(Config{Queries: 40, Rows: 80, IncludeAggregates: true, IncludeJoins: true, IncludeLike: true})
	for i, stmt := range w.Stmts {
		if _, err := db.Execute(w.Catalog, stmt); err != nil {
			t.Fatalf("query %d fails to execute: %v\n%s", i, err, w.Queries[i])
		}
	}
}

func TestDataRespectDomains(t *testing.T) {
	w := MustGenerate(Config{Rows: 100})
	photo, err := w.Catalog.Table("photoobj")
	if err != nil {
		t.Fatal(err)
	}
	raIdx := photo.ColumnIndex("ra")
	magIdx := photo.ColumnIndex("mag_r")
	for _, row := range photo.Rows {
		if ra := row[raIdx].AsFloat(); ra < 0 || ra > raMax {
			t.Fatalf("ra out of domain: %v", ra)
		}
		if mag := row[magIdx].AsFloat(); mag < magMin || mag > magMax {
			t.Fatalf("mag_r out of domain: %v", mag)
		}
	}
	spec, _ := w.Catalog.Table("specobj")
	if len(spec.Rows) != 50 {
		t.Fatalf("specobj rows = %d, want 50", len(spec.Rows))
	}
}

func TestDomainsCoverPredicateAttributes(t *testing.T) {
	w := MustGenerate(Config{Queries: 60, IncludeAggregates: true, IncludeJoins: true})
	for i, stmt := range w.Stmts {
		var cols []string
		collect := func(e sqlparse.Expr) bool {
			if c, ok := e.(*sqlparse.ColumnRef); ok {
				cols = append(cols, c.Name)
			}
			return true
		}
		sqlparse.Walk(stmt.Where, collect)
		for _, j := range stmt.Joins {
			sqlparse.Walk(j.On, collect)
		}
		for _, c := range cols {
			if _, ok := w.Domains[c]; !ok {
				t.Fatalf("query %d predicate attribute %q has no domain", i, c)
			}
		}
	}
}

func TestLogHasRepeatedConstants(t *testing.T) {
	// The Zipf skew must produce repetitions — the regime where
	// frequency attacks and non-trivial clusterings exist.
	w := MustGenerate(Config{Queries: 80})
	counts := make(map[string]int)
	for _, q := range w.Queries {
		counts[q]++
	}
	repeated := 0
	for _, c := range counts {
		if c > 1 {
			repeated++
		}
	}
	if repeated == 0 {
		t.Fatal("expected some repeated queries in a skewed log")
	}
}

func TestConstantStream(t *testing.T) {
	w := MustGenerate(Config{Queries: 80})
	stream := w.ConstantStream("class")
	if len(stream) == 0 {
		t.Fatal("class constants expected in the log")
	}
	for _, v := range stream {
		if !strings.HasPrefix(v, "'") {
			t.Fatalf("class constants should be strings: %q", v)
		}
	}
	if len(w.ConstantStream("nosuchattr")) != 0 {
		t.Fatal("unknown attribute must yield no constants")
	}
}

func TestResultModeSubsetAvoidsLike(t *testing.T) {
	w := MustGenerate(Config{Queries: 50, IncludeAggregates: true, IncludeJoins: true})
	for i, q := range w.Queries {
		if strings.Contains(q, "LIKE") {
			t.Fatalf("query %d contains LIKE although IncludeLike=false: %s", i, q)
		}
	}
}

// ConstantStream extracts every constant of the given attribute from the
// log together with its value, for attack experiments: the attacker
// observes the (encrypted) constants of one column.
func (w *Workload) ConstantStream(attr string) []string {
	var out []string
	for _, stmt := range w.Stmts {
		collect := func(e sqlparse.Expr) bool {
			b, ok := e.(*sqlparse.BinaryExpr)
			if !ok {
				return true
			}
			col, okc := b.Left.(*sqlparse.ColumnRef)
			lit, okl := b.Right.(*sqlparse.Literal)
			if okc && okl && col.Name == attr {
				out = append(out, lit.Value.String())
			}
			return true
		}
		sqlparse.Walk(stmt.Where, collect)
		for _, j := range stmt.Joins {
			sqlparse.Walk(j.On, collect)
		}
	}
	return out
}
