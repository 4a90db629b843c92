package encdb

// Property-style preservation tests: for workload-shaped random queries,
// the three log-only measures must be exactly preserved under their
// appropriate modes, and result mode must reproduce plaintext execution
// on a corpus of edge-case queries.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/accessarea"
	"repro/internal/crypto/prf"
	"repro/internal/db"
	"repro/internal/distance"
	"repro/internal/sqlparse"
	"repro/internal/value"
)

// randomQueries builds deterministic pseudo-random queries over the
// fixture schema, exercising every predicate form the rewriter supports.
func randomQueries(seed string, n int) []string {
	d := prf.NewDRBG([]byte(seed), []byte("queries"))
	names := []string{"'ana'", "'bob'", "'cid'", "'zzz'"}
	var out []string
	for i := 0; i < n; i++ {
		age := d.Int64Range(20, 50)
		switch d.Uint64n(8) {
		case 0:
			out = append(out, fmt.Sprintf("SELECT id FROM users WHERE age = %d", age))
		case 1:
			out = append(out, fmt.Sprintf("SELECT id, name FROM users WHERE age > %d", age))
		case 2:
			out = append(out, fmt.Sprintf("SELECT id FROM users WHERE age BETWEEN %d AND %d", age, age+10))
		case 3:
			out = append(out, fmt.Sprintf("SELECT name FROM users WHERE name IN (%s, %s)",
				names[d.Uint64n(4)], names[d.Uint64n(4)]))
		case 4:
			out = append(out, fmt.Sprintf("SELECT id FROM users WHERE age < %d OR age > %d", age, age+5))
		case 5:
			out = append(out, fmt.Sprintf("SELECT id FROM users WHERE NOT age = %d", age))
		case 6:
			out = append(out, fmt.Sprintf("SELECT id FROM users WHERE score >= %d.5 AND age IS NOT NULL", d.Int64Range(1, 8)))
		default:
			out = append(out, fmt.Sprintf("SELECT COUNT(*) FROM users WHERE age <> %d", age))
		}
	}
	return out
}

// assertPreserved encrypts a log under mode and checks Definition 1 on
// the served metric: every pair of the encrypted log has exactly its
// plaintext distance.
func assertPreserved(t *testing.T, d *Deployment, schema *Schema, measure string, mode Mode, queries []string, plainArts, encArts distance.Artifacts) {
	t.Helper()
	enc := make([]string, len(queries))
	for i, q := range queries {
		e, err := d.EncryptQueryString(q, schema, mode)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		enc[i] = e
	}
	prepare := func(arts distance.Artifacts, log []string) distance.Prepared {
		t.Helper()
		m, err := distance.New(measure, arts)
		if err != nil {
			t.Fatal(err)
		}
		p, err := m.Prepare(context.Background(), log)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	plain, encPrep := prepare(plainArts, queries), prepare(encArts, enc)
	for i := range queries {
		for j := i + 1; j < len(queries); j++ {
			dp, err := plain.Distance(i, j)
			if err != nil {
				t.Fatal(err)
			}
			de, err := encPrep.Distance(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if dp != de {
				t.Fatalf("%s distance changed for pair:\n%s\n%s\nplain=%v enc=%v", measure, queries[i], queries[j], dp, de)
			}
		}
	}
}

// negatedSum is a pair whose encrypted forms were once one query: the
// printer wrote -(a + b) as -a + b.
var negatedSum = []string{"SELECT -(age + score) FROM users", "SELECT -age + score FROM users"}

func TestTokenPreservationRandomQueries(t *testing.T) {
	_, schema := fixture(t)
	assertPreserved(t, deployment(t), schema, "token", ModeToken, append(randomQueries("token-prop", 30), negatedSum...), distance.Artifacts{}, distance.Artifacts{})
}

func TestStructurePreservationRandomQueries(t *testing.T) {
	_, schema := fixture(t)
	assertPreserved(t, deployment(t), schema, "structure", ModeStructure, append(randomQueries("struct-prop", 30), negatedSum...), distance.Artifacts{}, distance.Artifacts{})
}

func TestAccessAreaPreservationRandomQueries(t *testing.T) {
	d := deployment(t)
	_, schema := fixture(t)
	domains := map[string]accessarea.Domain{
		"age":   {Min: value.Int(0), Max: value.Int(120)},
		"score": {Min: value.Float(0), Max: value.Float(10)},
		"name":  {Min: value.Str(""), Max: value.Str("~~~~")},
		"id":    {Min: value.Int(0), Max: value.Int(1000)},
	}
	encDomains, err := d.EncryptDomains(schema, domains)
	if err != nil {
		t.Fatal(err)
	}
	assertPreserved(t, d, schema, "access-area", ModeAccessArea, randomQueries("aa-prop", 30),
		distance.Artifacts{Domains: domains}, distance.Artifacts{Domains: encDomains})
}

func TestResultModeEdgeCaseCorpus(t *testing.T) {
	for _, q := range []string{
		// Empty result sets.
		"SELECT id FROM users WHERE age > 1000",
		"SELECT name FROM users WHERE name = 'nobody'",
		// Negative and float constants.
		"SELECT id FROM users WHERE age > -1",
		"SELECT id FROM users WHERE score > 3.25 AND score < 9",
		// Equality on float column with int literal (widening).
		"SELECT name FROM users WHERE score = 4",
		// NOT and nested boolean structure.
		"SELECT id FROM users WHERE NOT (age < 30 OR age > 40)",
		// DISTINCT + GROUP BY interplay.
		"SELECT DISTINCT age FROM users WHERE age IS NOT NULL",
		"SELECT age, COUNT(*), MIN(id), MAX(id) FROM users GROUP BY age ORDER BY age",
		// HAVING on COUNT and MIN/MAX.
		"SELECT age, COUNT(*) FROM users GROUP BY age HAVING COUNT(*) >= 2",
		"SELECT age, MAX(id) FROM users GROUP BY age HAVING MAX(id) > 3",
		// LIMIT with numeric ORDER BY.
		"SELECT id FROM users WHERE age IS NOT NULL ORDER BY age LIMIT 2",
		// IN with repeated and missing values.
		"SELECT id FROM users WHERE age IN (28, 28, 99)",
		// Aggregates over empty groups.
		"SELECT COUNT(age), SUM(age), AVG(age) FROM users WHERE id > 999",
		// Join plus aggregation.
		"SELECT users.age, SUM(orders.amount) FROM users JOIN orders ON users.id = orders.user_id GROUP BY users.age ORDER BY users.age",
	} {
		plainVsEncrypted(t, q)
	}
}

// TestResultDETOnlyAblationBreaksRanges pins the E1 ablation at the unit
// level: the DET-only deployment executes but returns wrong rows for
// range predicates.
func TestResultDETOnlyAblationBreaksRanges(t *testing.T) {
	d := deployment(t)
	cat, schema := fixture(t)
	encCat, err := d.EncryptCatalog(cat, schema)
	if err != nil {
		t.Fatal(err)
	}
	q := "SELECT id FROM users WHERE age > 28"
	plainRes, err := db.Execute(cat, sqlparse.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	encStmt, err := d.EncryptQuery(sqlparse.MustParse(q), schema, ModeResultDETOnly)
	if err != nil {
		t.Fatal(err)
	}
	encRes, err := d.ExecuteEncrypted(encCat, encStmt)
	if err != nil {
		t.Fatal(err)
	}
	// Equality-only onions make range comparisons garbage: row counts
	// will (with overwhelming probability) differ.
	if len(encRes.Rows) == len(plainRes.Rows) {
		// Not impossible, but with this fixture the DET byte order of
		// the four distinct ages almost surely differs from numeric
		// order; flag it so a key change that hides the ablation is
		// noticed.
		t.Logf("warning: DET-only ablation accidentally matched row count %d", len(encRes.Rows))
	}
	// The *correct* mode agrees exactly.
	goodStmt, err := d.EncryptQuery(sqlparse.MustParse(q), schema, ModeResult)
	if err != nil {
		t.Fatal(err)
	}
	goodRes, err := d.ExecuteEncrypted(encCat, goodStmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(goodRes.Rows) != len(plainRes.Rows) {
		t.Fatalf("result mode row count %d != plaintext %d", len(goodRes.Rows), len(plainRes.Rows))
	}
}
