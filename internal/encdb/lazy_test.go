package encdb

import (
	"fmt"
	"testing"

	"repro/internal/accessarea"
	"repro/internal/sqlparse"
	"repro/internal/value"
)

// lazyQueries join, filter by range and equality, and aggregate, so
// every mode's rewriter runs its DET, OPE and PROB paths.
var lazyQueries = []string{
	"SELECT name FROM users WHERE age > 28 AND age < 40",
	"SELECT SUM(amount) FROM orders WHERE user_id = 1",
	"SELECT u.name, o.amount FROM users AS u JOIN orders AS o ON u.id = o.user_id WHERE o.amount >= 20",
	"SELECT AVG(age), COUNT(*) FROM users WHERE score < 8.0 GROUP BY name",
}

func declaredDeployment(t *testing.T, schema *Schema) *Deployment {
	t.Helper()
	d := deployment(t)
	stmts := make([]*sqlparse.SelectStmt, len(lazyQueries))
	for i, q := range lazyQueries {
		stmts[i] = sqlparse.MustParse(q)
	}
	if err := d.DeclareJoins(schema, stmts); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestHomPairDerivedOnFirstUse checks that log and domain encryption
// never derive the Paillier pair, and that each entry point that needs
// it derives it once: the pair it derives is the one every later
// entry point uses.
func TestHomPairDerivedOnFirstUse(t *testing.T) {
	cat, schema := fixture(t)

	d := declaredDeployment(t, schema)
	for _, mode := range []Mode{ModeToken, ModeStructure, ModeResult, ModeAccessArea} {
		for _, q := range lazyQueries {
			if _, err := d.EncryptQueryString(q, schema, mode); err != nil {
				t.Fatalf("%s %q: %v", mode, q, err)
			}
		}
	}
	domains := map[string]accessarea.Domain{
		"age":  {Min: value.Int(0), Max: value.Int(120)},
		"name": {Min: value.Str("a"), Max: value.Str("z")},
	}
	if _, err := d.EncryptDomains(schema, domains); err != nil {
		t.Fatal(err)
	}
	if d.paillier != nil || d.homEnc != nil {
		t.Fatal("EncryptQueryString or EncryptDomains derived the Paillier pair")
	}

	// DecryptResult needs an encrypted result, which needs the pair:
	// build it on another deployment under the same master.
	sumQuery := sqlparse.MustParse("SELECT SUM(amount) FROM orders WHERE user_id = 1")
	other := declaredDeployment(t, schema)
	encCat, err := other.EncryptCatalog(cat, schema)
	if err != nil {
		t.Fatal(err)
	}
	encStmt, err := other.EncryptQuery(sumQuery, schema, ModeResult)
	if err != nil {
		t.Fatal(err)
	}
	encRes, err := other.ExecuteEncrypted(encCat, encStmt)
	if err != nil {
		t.Fatal(err)
	}

	entries := []struct {
		name string
		use  func(d *Deployment) error
	}{
		{"EncryptCatalog", func(d *Deployment) error {
			_, err := d.EncryptCatalog(cat, schema)
			return err
		}},
		{"Aggregator", func(d *Deployment) error { d.Aggregator(); return nil }},
		{"AggregatorKey", func(d *Deployment) error { d.AggregatorKey(); return nil }},
		{"DecryptResult", func(d *Deployment) error {
			res, err := d.DecryptResult(sumQuery, schema, encRes)
			if err == nil && fmt.Sprint(res.Rows) != "[[100]]" {
				err = fmt.Errorf("SUM decrypted to %v, want [[100]]", res.Rows)
			}
			return err
		}},
	}
	for _, first := range entries {
		d := declaredDeployment(t, schema)
		if err := first.use(d); err != nil {
			t.Fatalf("%s: %v", first.name, err)
		}
		sk := d.paillier
		if sk == nil || d.homEnc == nil {
			t.Fatalf("%s did not derive the Paillier pair", first.name)
		}
		for _, then := range entries {
			if err := then.use(d); err != nil {
				t.Fatalf("%s after %s: %v", then.name, first.name, err)
			}
			if d.paillier != sk {
				t.Fatalf("%s after %s derived the pair again", then.name, first.name)
			}
		}
	}
}

// TestNameMemoCap checks the memo stops growing at its cap and that a
// name past the cap still encrypts to the same identifier.
func TestNameMemoCap(t *testing.T) {
	d := deployment(t)
	fresh := deployment(t)
	for i := 0; i < maxMemoNames+10; i++ {
		d.EncryptAttrName(fmt.Sprintf("alias_%d", i))
	}
	if n := len(d.attrNames.enc); n != maxMemoNames {
		t.Fatalf("memo holds %d names, want the cap %d", n, maxMemoNames)
	}
	for _, name := range []string{"alias_0", fmt.Sprintf("alias_%d", maxMemoNames+5)} {
		if got, want := d.EncryptAttrName(name), fresh.EncryptAttrName(name); got != want {
			t.Errorf("EncryptAttrName(%q) = %q, want %q", name, got, want)
		}
	}
}
