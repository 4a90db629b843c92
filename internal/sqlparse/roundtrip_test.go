package sqlparse

// Property test: randomly generated ASTs survive print → parse → print
// as a fixed point. This is the invariant the encrypted log depends on —
// the shared artifact is the printed string, and the provider re-parses
// it.

import (
	"reflect"
	"testing"

	"repro/internal/crypto/prf"
	"repro/internal/value"
)

// astGen builds random statements from a deterministic stream.
type astGen struct {
	d *prf.DRBG
}

func (g *astGen) ident() string {
	names := []string{"a", "b", "c", "ra", "mag_r", "objid", "t1"}
	return names[g.d.Uint64n(uint64(len(names)))]
}

func (g *astGen) literal() Expr {
	switch g.d.Uint64n(4) {
	case 0:
		return &Literal{Value: value.Int(g.d.Int64Range(-1000, 1000))}
	case 1:
		return &Literal{Value: value.Float(float64(g.d.Int64Range(-100, 100)) + 0.5)}
	case 2:
		return &Literal{Value: value.Str("s" + g.ident())}
	default:
		return &Literal{Value: value.Bytes([]byte{byte(g.d.Uint64()), byte(g.d.Uint64())})}
	}
}

func (g *astGen) column() *ColumnRef {
	c := &ColumnRef{Name: g.ident()}
	if g.d.Uint64n(4) == 0 {
		c.Table = "q" + g.ident()
	}
	return c
}

// predicate generates a boolean expression of bounded depth.
func (g *astGen) predicate(depth int) Expr {
	if depth <= 0 {
		return g.atom(1)
	}
	switch g.d.Uint64n(5) {
	case 0:
		return &BinaryExpr{Op: "AND", Left: g.predicate(depth - 1), Right: g.predicate(depth - 1)}
	case 1:
		return &BinaryExpr{Op: "OR", Left: g.predicate(depth - 1), Right: g.predicate(depth - 1)}
	case 2:
		return &UnaryExpr{Op: "NOT", Expr: g.predicate(depth - 1)}
	default:
		return g.atom(1)
	}
}

// atom generates a comparison or an IN, BETWEEN, LIKE or IS NULL
// predicate; while depth lasts, its operands may be predicates too.
func (g *astGen) atom(depth int) Expr {
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	switch g.d.Uint64n(6) {
	case 0:
		in := &InExpr{Expr: g.operand(depth), Not: g.d.Uint64n(2) == 0}
		for i := uint64(0); i <= g.d.Uint64n(3); i++ {
			in.List = append(in.List, g.bound(depth))
		}
		return in
	case 1:
		return &BetweenExpr{Expr: g.operand(depth), Not: g.d.Uint64n(2) == 0, Lo: g.bound(depth), Hi: g.bound(depth)}
	case 2:
		return &LikeExpr{Expr: g.operand(depth), Not: g.d.Uint64n(2) == 0, Pattern: &Literal{Value: value.Str("p%_x")}}
	case 3:
		return &IsNullExpr{Expr: g.operand(depth), Not: g.d.Uint64n(2) == 0}
	default:
		return &BinaryExpr{Op: ops[g.d.Uint64n(uint64(len(ops)))], Left: g.operand(depth), Right: g.bound(depth)}
	}
}

// operand generates the left side of a predicate: mostly a column,
// sometimes arithmetic, and while depth lasts sometimes a predicate.
func (g *astGen) operand(depth int) Expr {
	switch g.d.Uint64n(6) {
	case 0:
		return g.arith(2)
	case 1:
		if depth > 0 {
			return g.atom(depth - 1)
		}
	}
	return g.column()
}

// bound generates a right side: mostly a literal, otherwise an operand.
func (g *astGen) bound(depth int) Expr {
	if g.d.Uint64n(3) == 0 {
		return g.operand(depth)
	}
	return g.literal()
}

// arith generates arithmetic over columns and literals with unary minus
// over anything but a literal, which the parser folds into the literal.
func (g *astGen) arith(depth int) Expr {
	if depth <= 0 {
		return g.column()
	}
	ops := []string{"+", "-", "*", "/", "%"}
	switch g.d.Uint64n(4) {
	case 0:
		return &UnaryExpr{Op: "-", Expr: g.arith(depth - 1)}
	case 1:
		return &BinaryExpr{Op: ops[g.d.Uint64n(uint64(len(ops)))], Left: g.arith(depth - 1), Right: g.literal()}
	case 2:
		return &BinaryExpr{Op: ops[g.d.Uint64n(uint64(len(ops)))], Left: g.arith(depth - 1), Right: g.arith(depth - 1)}
	default:
		return g.column()
	}
}

func (g *astGen) stmt() *SelectStmt {
	s := &SelectStmt{Distinct: g.d.Uint64n(4) == 0}
	if g.d.Uint64n(6) == 0 {
		s.Select = append(s.Select, SelectItem{Star: true})
	} else {
		for i := uint64(0); i <= g.d.Uint64n(3); i++ {
			item := SelectItem{Expr: g.column()}
			switch g.d.Uint64n(4) {
			case 0:
				aggs := []string{"COUNT", "SUM", "AVG", "MIN", "MAX"}
				item.Expr = &FuncCall{Name: aggs[g.d.Uint64n(5)], Arg: g.column()}
			case 1:
				item.Expr = g.arith(2)
			}
			if g.d.Uint64n(4) == 0 {
				item.Alias = "al" + g.ident()
			}
			s.Select = append(s.Select, item)
		}
	}
	s.From = append(s.From, TableRef{Name: "tbl" + g.ident()})
	if g.d.Uint64n(3) == 0 {
		s.From[0].Alias = "x" + g.ident()
	}
	if g.d.Uint64n(3) == 0 {
		kind := JoinInner
		if g.d.Uint64n(2) == 0 {
			kind = JoinLeft
		}
		s.Joins = append(s.Joins, JoinClause{
			Kind:  kind,
			Table: TableRef{Name: "jt" + g.ident()},
			On:    &BinaryExpr{Op: "=", Left: g.column(), Right: g.column()},
		})
	}
	if g.d.Uint64n(2) == 0 {
		s.Where = g.predicate(2)
	}
	if g.d.Uint64n(3) == 0 {
		s.GroupBy = append(s.GroupBy, g.column())
		if g.d.Uint64n(2) == 0 {
			s.Having = &BinaryExpr{Op: ">", Left: &FuncCall{Name: "COUNT", Star: true}, Right: &Literal{Value: value.Int(2)}}
		}
	}
	if g.d.Uint64n(3) == 0 {
		s.OrderBy = append(s.OrderBy, OrderItem{Column: g.column(), Desc: g.d.Uint64n(2) == 0})
	}
	if g.d.Uint64n(4) == 0 {
		n := g.d.Int64Range(0, 100)
		s.Limit = &n
	}
	return s
}

func TestRandomASTPrintParseFixedPoint(t *testing.T) {
	g := &astGen{d: prf.NewDRBG([]byte("ast-roundtrip"), []byte("gen"))}
	for i := 0; i < 500; i++ {
		s1 := g.stmt()
		sql1 := s1.SQL()
		s2, err := Parse(sql1)
		if err != nil {
			t.Fatalf("iteration %d: generated SQL does not parse: %v\n%s", i, err, sql1)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("iteration %d: the generated AST differs from its re-parse:\n%s\n%s", i, sql1, s2.SQL())
		}
		sql2 := s2.SQL()
		if sql1 != sql2 {
			t.Fatalf("iteration %d: print not a fixed point:\n%s\n%s", i, sql1, sql2)
		}
		s3, err := Parse(sql2)
		if err != nil {
			t.Fatalf("iteration %d: second parse failed: %v", i, err)
		}
		if !reflect.DeepEqual(s2, s3) {
			t.Fatalf("iteration %d: ASTs differ between parses of the same string", i)
		}
	}
}

func TestRandomASTCloneEquality(t *testing.T) {
	g := &astGen{d: prf.NewDRBG([]byte("ast-clone"), []byte("gen"))}
	for i := 0; i < 300; i++ {
		s := g.stmt()
		c := s.Clone()
		if !reflect.DeepEqual(s, c) {
			t.Fatalf("iteration %d: clone differs from original", i)
		}
		if s.SQL() != c.SQL() {
			t.Fatalf("iteration %d: clone renders differently", i)
		}
	}
}

// FuzzParsePrint checks the printer against the parser on any input the
// parser accepts: the printed form re-parses to an equal AST.
func FuzzParsePrint(f *testing.F) {
	for _, q := range []string{
		"SELECT -(a + b) FROM t",
		"SELECT -a + b FROM t",
		"SELECT a FROM t WHERE (a = 1) IS NOT NULL",
		"SELECT a FROM t WHERE (a = b) = (c = d)",
		"SELECT a FROM t WHERE a BETWEEN (b = 1) AND 2",
		"SELECT a FROM t WHERE (a < b) IN (1)",
		"SELECT a, COUNT(*) FROM r AS x JOIN s ON x.id = s.rid WHERE NOT (a = 1 OR b LIKE 'p%') GROUP BY a HAVING COUNT(*) > 2 ORDER BY a DESC LIMIT 5",
		"SELECT DISTINCT a * -2.5 FROM r WHERE x - (y - 3) % 2 <> X'0aff' AND c NOT IN ('x', -1)",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		s1, err := Parse(q)
		if err != nil {
			return
		}
		printed := s1.SQL()
		s2, err := Parse(printed)
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", q, printed, err)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("%q prints as %q, which parses to a different AST (%q)", q, printed, s2.SQL())
		}
	})
}
