package encdb

import (
	"encoding/binary"
	"fmt"
	"math/big"

	"repro/internal/crypto/hom"
	"repro/internal/db"
	"repro/internal/sqlparse"
	"repro/internal/value"
)

// avgPairTag marks the encoded (count, Paillier-sum) pair an encrypted
// AVG aggregate produces; the decryptor divides after decryption.
const avgPairTag = 'A'

// Aggregator returns the db.Aggregator used when executing rewritten
// queries over an encrypted catalog: SUM multiplies Paillier ciphertexts,
// AVG produces a (count, Paillier-sum) pair, COUNT/MIN/MAX fall through
// to plaintext semantics (MIN/MAX compare OPE ciphertext bytes, which
// equals plaintext order).
func (d *Deployment) Aggregator() db.Aggregator {
	return AggregatorFor(&d.Paillier().PublicKey)
}

// AggregatorKey returns the public-key material behind Aggregator — the
// only piece of it that must travel to a remote service provider; the
// provider reconstructs the evaluator with AggregatorFor.
func (d *Deployment) AggregatorKey() *hom.PublicKey {
	return &d.Paillier().PublicKey
}

// AggregatorFor builds the encrypted aggregate evaluator from a Paillier
// public key alone. A service provider that received the key over the
// wire (it contains no secret) gets exactly the evaluator the owner's
// Deployment.Aggregator would hand it in-process.
func AggregatorFor(pk *hom.PublicKey) db.Aggregator {
	return func(name string, star bool, args []value.Value, rowCount int) (value.Value, error) {
		switch name {
		case "SUM", "AVG":
			var cts []*big.Int
			for _, v := range args {
				if v.IsNull() {
					continue
				}
				if v.Kind() != value.KindBytes {
					return value.Value{}, fmt.Errorf("encdb: %s over non-ciphertext %s", name, v.Kind())
				}
				cts = append(cts, v.AsBigInt())
			}
			if len(cts) == 0 {
				return value.Null(), nil
			}
			sum := pk.Sum(cts...)
			if name == "SUM" {
				return value.BigInt(sum), nil
			}
			// AVG: pair of non-NULL count and homomorphic sum.
			ctBytes := sum.Bytes()
			out := make([]byte, 9+len(ctBytes))
			out[0] = avgPairTag
			binary.BigEndian.PutUint64(out[1:9], uint64(len(cts)))
			copy(out[9:], ctBytes)
			return value.Bytes(out), nil
		default:
			return db.DefaultAggregate(name, star, args, rowCount)
		}
	}
}

// ExecuteEncrypted runs an already-rewritten query over the encrypted
// catalog. The service provider performs exactly this call: it sees only
// ciphertext in, ciphertext out.
func (d *Deployment) ExecuteEncrypted(encCat *db.Catalog, encStmt *sqlparse.SelectStmt) (*db.Result, error) {
	return db.ExecuteOpts(encCat, encStmt, db.Options{Aggregate: d.Aggregator()})
}

// DecryptResult maps an encrypted result relation back to plaintext. The
// data owner supplies the original plaintext query (it knows what it
// asked) so each output column's decryption routine can be derived.
func (d *Deployment) DecryptResult(plain *sqlparse.SelectStmt, schema *Schema, encRes *db.Result) (*db.Result, error) {
	r := &rewriter{d: d, schema: schema, mode: ModeResult}
	if err := r.prepare(plain); err != nil {
		return nil, err
	}
	decoders, names, err := d.buildDecoders(r, plain)
	if err != nil {
		return nil, err
	}
	if len(decoders) != len(encRes.Columns) {
		return nil, fmt.Errorf("encdb: result has %d columns, expected %d", len(encRes.Columns), len(decoders))
	}
	out := &db.Result{Columns: names}
	for _, row := range encRes.Rows {
		var plainRow db.Row
		for i, dec := range decoders {
			v, err := dec(row[i])
			if err != nil {
				return nil, fmt.Errorf("encdb: column %d: %w", i, err)
			}
			plainRow = append(plainRow, v)
		}
		out.Rows = append(out.Rows, plainRow)
	}
	return out, nil
}

type colDecoder func(value.Value) (value.Value, error)

func (d *Deployment) buildDecoders(r *rewriter, plain *sqlparse.SelectStmt) ([]colDecoder, []string, error) {
	var decoders []colDecoder
	var names []string
	for _, item := range plain.Select {
		if item.Star {
			// Mirror the rewriter's star expansion: every logical column
			// of every in-scope table, DET onion.
			for _, tr := range r.scoped {
				cols, err := r.schema.Columns(tr.Name)
				if err != nil {
					return nil, nil, err
				}
				for _, c := range cols {
					decoders = append(decoders, d.detDecoder(c))
					names = append(names, c.Name)
				}
			}
			continue
		}
		name := item.Alias
		switch n := item.Expr.(type) {
		case *sqlparse.ColumnRef:
			info, err := r.resolve(n)
			if err != nil {
				return nil, nil, err
			}
			decoders = append(decoders, d.detDecoder(info))
			if name == "" {
				name = n.Name
			}
		case *sqlparse.FuncCall:
			dec, err := d.aggDecoder(r, n)
			if err != nil {
				return nil, nil, err
			}
			decoders = append(decoders, dec)
			if name == "" {
				if n.Star {
					name = n.Name + "(*)"
				} else if c, ok := n.Arg.(*sqlparse.ColumnRef); ok {
					name = n.Name + "(" + c.Name + ")"
				} else {
					name = n.Name
				}
			}
		default:
			return nil, nil, fmt.Errorf("encdb: cannot decrypt select expression %T", item.Expr)
		}
		names = append(names, name)
	}
	return decoders, names, nil
}

func (d *Deployment) detDecoder(info ColumnInfo) colDecoder {
	return func(v value.Value) (value.Value, error) {
		return d.decryptDET(info.Table, info.Name, v)
	}
}

func (d *Deployment) aggDecoder(r *rewriter, f *sqlparse.FuncCall) (colDecoder, error) {
	if f.Name == "COUNT" {
		// Counts are plaintext integers.
		return func(v value.Value) (value.Value, error) { return v, nil }, nil
	}
	col, ok := f.Arg.(*sqlparse.ColumnRef)
	if !ok {
		return nil, fmt.Errorf("encdb: aggregate %s over a non-column expression", f.Name)
	}
	info, err := r.resolve(col)
	if err != nil {
		return nil, err
	}
	switch f.Name {
	case "SUM":
		sk := d.Paillier()
		return func(v value.Value) (value.Value, error) {
			if v.IsNull() {
				return v, nil
			}
			m, err := sk.DecryptInt64(v.AsBigInt())
			if err != nil {
				return value.Value{}, err
			}
			return value.Int(m), nil
		}, nil
	case "AVG":
		sk := d.Paillier()
		return func(v value.Value) (value.Value, error) {
			if v.IsNull() {
				return v, nil
			}
			b := v.AsBytes()
			if len(b) < 9 || b[0] != avgPairTag {
				return value.Value{}, fmt.Errorf("encdb: malformed AVG pair")
			}
			count := binary.BigEndian.Uint64(b[1:9])
			if count == 0 {
				return value.Null(), nil
			}
			sum, err := sk.DecryptInt64(new(big.Int).SetBytes(b[9:]))
			if err != nil {
				return value.Value{}, err
			}
			return value.Float(float64(sum) / float64(count)), nil
		}, nil
	case "MIN", "MAX":
		return func(v value.Value) (value.Value, error) {
			return d.decryptOPE(info.Table, info.Name, info.Kind, v)
		}, nil
	default:
		return nil, fmt.Errorf("encdb: unknown aggregate %q", f.Name)
	}
}

// RunEncrypted is the full pipeline for one query: rewrite, execute over
// the encrypted catalog, decrypt the result. Convenient for examples and
// round-trip tests.
func (d *Deployment) RunEncrypted(plainQuery string, schema *Schema, encCat *db.Catalog) (*db.Result, error) {
	stmt, err := sqlparse.Parse(plainQuery)
	if err != nil {
		return nil, err
	}
	encStmt, err := d.EncryptQuery(stmt, schema, ModeResult)
	if err != nil {
		return nil, err
	}
	encRes, err := d.ExecuteEncrypted(encCat, encStmt)
	if err != nil {
		return nil, err
	}
	return d.DecryptResult(stmt, schema, encRes)
}
