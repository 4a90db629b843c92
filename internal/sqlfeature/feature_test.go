package sqlfeature

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/sqlparse"
)

func TestTokensBasic(t *testing.T) {
	set, err := Tokens("SELECT A1 FROM R WHERE A2 > 5")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SELECT", "A1", "FROM", "R", "WHERE", "A2", ">", "5"} {
		if !set[want] {
			t.Errorf("token %q missing from %v", want, set)
		}
	}
	if len(set) != 8 {
		t.Fatalf("token count = %d, want 8", len(set))
	}
}

func TestTokensIsASet(t *testing.T) {
	set, err := Tokens("SELECT a, a, a FROM r WHERE a = a")
	if err != nil {
		t.Fatal(err)
	}
	if !set["a"] {
		t.Fatal("a missing")
	}
	// a appears once despite five occurrences.
	count := 0
	for tok := range set {
		if tok == "a" {
			count++
		}
	}
	if count != 1 {
		t.Fatal("token set must deduplicate")
	}
}

func TestTokensCanonicalStrings(t *testing.T) {
	s1, err := Tokens("SELECT a FROM r WHERE s = 'x''y'")
	if err != nil {
		t.Fatal(err)
	}
	if !s1["'x''y'"] {
		t.Fatalf("canonical string token missing: %v", s1)
	}
}

func TestTokensInvalidQuery(t *testing.T) {
	if _, err := Tokens("SELECT @ FROM r"); err == nil {
		t.Fatal("invalid query must error")
	}
}

func TestTokenListSorted(t *testing.T) {
	l, err := TokenList("SELECT b, a FROM r")
	if err != nil {
		t.Fatal(err)
	}
	if !sortedStrings(l) {
		t.Fatalf("not sorted: %v", l)
	}
}

func sortedStrings(ss []string) bool {
	for i := 1; i < len(ss); i++ {
		if ss[i-1] > ss[i] {
			return false
		}
	}
	return true
}

func TestFeaturesPaperExample5(t *testing.T) {
	// The paper's Example 5: features(SELECT A1 FROM R WHERE A2 > 5) =
	// {(SELECT, A1), (FROM, R), (WHERE, A2 >)}.
	stmt := sqlparse.MustParse("SELECT A1 FROM R WHERE A2 > 5")
	got := Features(stmt)
	want := map[Feature]bool{
		{ClauseSelect, "A1"}:  true,
		{ClauseFrom, "R"}:     true,
		{ClauseWhere, "A2 >"}: true,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("features = %v, want %v", got, want)
	}
}

func TestFeaturesExcludeConstants(t *testing.T) {
	// Two queries differing only in constants must have equal features —
	// the property that lets constants be PROB-encrypted for structural
	// equivalence (Table I).
	f1 := Features(sqlparse.MustParse("SELECT a FROM r WHERE b > 5 AND c = 'x'"))
	f2 := Features(sqlparse.MustParse("SELECT a FROM r WHERE b > 999 AND c = 'zzz'"))
	if !reflect.DeepEqual(f1, f2) {
		t.Fatalf("features must not depend on constants:\n%v\n%v", f1, f2)
	}
}

func TestFeaturesOperatorSensitive(t *testing.T) {
	f1 := Features(sqlparse.MustParse("SELECT a FROM r WHERE b > 5"))
	f2 := Features(sqlparse.MustParse("SELECT a FROM r WHERE b < 5"))
	if reflect.DeepEqual(f1, f2) {
		t.Fatal("features must distinguish operators")
	}
}

func TestFeaturesFlippedComparison(t *testing.T) {
	// 5 < b is the same structural feature as b > 5.
	f1 := Features(sqlparse.MustParse("SELECT a FROM r WHERE 5 < b"))
	f2 := Features(sqlparse.MustParse("SELECT a FROM r WHERE b > 5"))
	if !reflect.DeepEqual(f1, f2) {
		t.Fatalf("flipped comparisons must agree:\n%v\n%v", f1, f2)
	}
}

func TestFeaturesAllClauses(t *testing.T) {
	stmt := sqlparse.MustParse(
		"SELECT a, COUNT(*) FROM r JOIN s ON r.id = s.rid WHERE b IN (1,2) AND c BETWEEN 3 AND 4 AND d LIKE 'x%' AND e IS NULL GROUP BY a HAVING COUNT(*) > 2 ORDER BY a DESC")
	got := Features(stmt)
	for _, f := range []Feature{
		{ClauseSelect, "a"},
		{ClauseSelect, "COUNT(*)"},
		{ClauseFrom, "r"},
		{ClauseFrom, "s"},
		{ClauseWhere, "r.id ="},
		{ClauseWhere, "s.rid ="},
		{ClauseWhere, "b IN"},
		{ClauseWhere, "c BETWEEN"},
		{ClauseWhere, "d LIKE"},
		{ClauseWhere, "e IS NULL"},
		{ClauseGroupBy, "a"},
		{ClauseHaving, "COUNT(*) >"},
		{ClauseOrderBy, "a"},
	} {
		if !got[f] {
			t.Errorf("missing feature %v in %v", f, got)
		}
	}
}

func TestFeaturesStar(t *testing.T) {
	got := Features(sqlparse.MustParse("SELECT * FROM r"))
	if !got[Feature{ClauseSelect, "*"}] {
		t.Fatalf("star feature missing: %v", got)
	}
}

func TestFeaturesColumnColumnComparison(t *testing.T) {
	got := Features(sqlparse.MustParse("SELECT a FROM r WHERE x < y"))
	if !got[Feature{ClauseWhere, "x <"}] || !got[Feature{ClauseWhere, "y >"}] {
		t.Fatalf("column-column features wrong: %v", got)
	}
}

func TestFeatureString(t *testing.T) {
	f := Feature{ClauseWhere, "A2 >"}
	if f.String() != "(WHERE, A2 >)" {
		t.Fatalf("String = %q", f.String())
	}
}

func TestFeatureListSortedAndRendered(t *testing.T) {
	l := FeatureList(sqlparse.MustParse("SELECT b, a FROM r"))
	if len(l) != 3 || !sortedStrings(l) {
		t.Fatalf("list = %v", l)
	}
}

// TokenList returns the sorted token set, for display and debugging.
func TokenList(query string) ([]string, error) {
	set, err := Tokens(query)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out, nil
}

// FeatureList returns the sorted rendered feature set.
func FeatureList(stmt *sqlparse.SelectStmt) []string {
	set := Features(stmt)
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f.String())
	}
	sort.Strings(out)
	return out
}
