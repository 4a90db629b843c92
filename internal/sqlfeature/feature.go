// Package sqlfeature extracts the per-query characteristics that the
// paper's equivalence notions preserve (Definition 2):
//
//   - Tokens: the token set of the query string, the characteristic
//     c = tokens of token equivalence (Definition 3);
//   - Features: the SnipSuggest-style feature set [15], the
//     characteristic c = features of structural equivalence — tuples like
//     (SELECT, A1), (FROM, R), (WHERE, A2 >) that describe the query's
//     structure *without* its constants.
//
// That features exclude constants is load-bearing: it is why Table I can
// assign the PROB class to constants under query-structure distance.
package sqlfeature

import (
	"fmt"
	"strings"

	"repro/internal/sqlparse"
)

// Tokens returns the query string's token multiset collapsed to a set of
// normalized token spellings: keywords upper-case, identifiers verbatim,
// literals in canonical form, operators as symbols.
func Tokens(query string) (map[string]bool, error) {
	toks, err := sqlparse.Tokenize(query)
	if err != nil {
		return nil, err
	}
	toks = foldNegativeNumbers(toks)
	set := make(map[string]bool, len(toks))
	for _, t := range toks {
		switch t.Kind {
		case sqlparse.TokString:
			// Canonical literal spelling, so tokenizing a printed query
			// matches tokenizing its original.
			set["'"+strings.ReplaceAll(t.Text, "'", "''")+"'"] = true
		case sqlparse.TokBlob:
			set[fmt.Sprintf("X'%x'", t.Text)] = true
		default:
			set[t.Text] = true
		}
	}
	return set, nil
}

// foldNegativeNumbers merges a unary minus with the following numeric
// literal into one token ("-45"), matching the parser's constant folding.
// Without this, a plaintext log tokenizes "-45" as two tokens while the
// encrypted log carries one ciphertext blob for the whole constant,
// breaking token-distance preservation. A minus is unary when it is the
// first token or follows an operator other than ")" or a keyword.
func foldNegativeNumbers(toks []sqlparse.Token) []sqlparse.Token {
	var out []sqlparse.Token
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		if t.Kind == sqlparse.TokOp && t.Text == "-" && i+1 < len(toks) &&
			(toks[i+1].Kind == sqlparse.TokInt || toks[i+1].Kind == sqlparse.TokFloat) {
			unary := len(out) == 0
			if !unary {
				prev := out[len(out)-1]
				switch prev.Kind {
				case sqlparse.TokOp:
					unary = prev.Text != ")"
				case sqlparse.TokKeyword:
					unary = true
				}
			}
			if unary {
				next := toks[i+1]
				out = append(out, sqlparse.Token{Kind: next.Kind, Text: "-" + next.Text, Pos: t.Pos})
				i++
				continue
			}
		}
		out = append(out, t)
	}
	return out
}

// Clause names the query clause a feature belongs to.
type Clause string

// Feature clauses.
const (
	ClauseSelect  Clause = "SELECT"
	ClauseFrom    Clause = "FROM"
	ClauseWhere   Clause = "WHERE"
	ClauseGroupBy Clause = "GROUPBY"
	ClauseHaving  Clause = "HAVING"
	ClauseOrderBy Clause = "ORDERBY"
)

// Feature is one structural feature of a query: a (clause, item) tuple in
// the style of SnipSuggest [15]. Example 5 of the paper:
// features(SELECT A1 FROM R WHERE A2 > 5) =
// {(SELECT, A1), (FROM, R), (WHERE, A2 >)}.
type Feature struct {
	Clause Clause
	Item   string
}

// String renders the feature as "(CLAUSE, item)".
func (f Feature) String() string { return fmt.Sprintf("(%s, %s)", f.Clause, f.Item) }

// Features extracts the feature set of a parsed query.
func Features(stmt *sqlparse.SelectStmt) map[Feature]bool {
	set := make(map[Feature]bool)

	for _, item := range stmt.Select {
		if item.Star {
			set[Feature{ClauseSelect, "*"}] = true
			continue
		}
		set[Feature{ClauseSelect, exprItem(item.Expr)}] = true
	}
	for _, tr := range stmt.Tables() {
		set[Feature{ClauseFrom, tr.Name}] = true
	}
	for _, j := range stmt.Joins {
		// Join conditions are structural predicates; SnipSuggest files
		// them with the WHERE features.
		predicateFeatures(j.On, ClauseWhere, set)
	}
	if stmt.Where != nil {
		predicateFeatures(stmt.Where, ClauseWhere, set)
	}
	for _, g := range stmt.GroupBy {
		set[Feature{ClauseGroupBy, colItem(g)}] = true
	}
	if stmt.Having != nil {
		predicateFeatures(stmt.Having, ClauseHaving, set)
	}
	for _, o := range stmt.OrderBy {
		set[Feature{ClauseOrderBy, colItem(o.Column)}] = true
	}
	return set
}

// predicateFeatures walks a boolean expression and emits one feature per
// atomic predicate, keyed by the column and the operator shape — never by
// the constant.
func predicateFeatures(e sqlparse.Expr, clause Clause, set map[Feature]bool) {
	switch n := e.(type) {
	case nil:
	case *sqlparse.BinaryExpr:
		switch n.Op {
		case "AND", "OR":
			predicateFeatures(n.Left, clause, set)
			predicateFeatures(n.Right, clause, set)
		case "=", "<>", "<", "<=", ">", ">=":
			// Emit a feature for each column operand. A column-constant
			// comparison yields one feature; a column-column comparison
			// (join predicate) yields one per side.
			lc, lok := columnOperand(n.Left)
			rc, rok := columnOperand(n.Right)
			if lok {
				set[Feature{clause, lc + " " + n.Op}] = true
			}
			if rok {
				set[Feature{clause, rc + " " + flipOp(n.Op)}] = true
			}
			if !lok && !rok {
				set[Feature{clause, "expr " + n.Op}] = true
			}
		default:
			predicateFeatures(n.Left, clause, set)
			predicateFeatures(n.Right, clause, set)
		}
	case *sqlparse.UnaryExpr:
		predicateFeatures(n.Expr, clause, set)
	case *sqlparse.InExpr:
		if c, ok := columnOperand(n.Expr); ok {
			set[Feature{clause, c + " IN"}] = true
		}
	case *sqlparse.BetweenExpr:
		if c, ok := columnOperand(n.Expr); ok {
			set[Feature{clause, c + " BETWEEN"}] = true
		}
	case *sqlparse.LikeExpr:
		if c, ok := columnOperand(n.Expr); ok {
			set[Feature{clause, c + " LIKE"}] = true
		}
	case *sqlparse.IsNullExpr:
		if c, ok := columnOperand(n.Expr); ok {
			set[Feature{clause, c + " IS NULL"}] = true
		}
	case *sqlparse.FuncCall:
		set[Feature{clause, exprItem(n)}] = true
	}
}

// columnOperand extracts the column name from an operand that is a bare
// column or an aggregate over a column.
func columnOperand(e sqlparse.Expr) (string, bool) {
	switch n := e.(type) {
	case *sqlparse.ColumnRef:
		return colItem(n), true
	case *sqlparse.FuncCall:
		return exprItem(n), true
	default:
		return "", false
	}
}

// flipOp mirrors a comparison operator for the right-hand operand:
// c < A is the feature (A >).
func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default:
		return op // = and <> are symmetric
	}
}

func colItem(c *sqlparse.ColumnRef) string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

func exprItem(e sqlparse.Expr) string {
	switch n := e.(type) {
	case *sqlparse.ColumnRef:
		return colItem(n)
	case *sqlparse.FuncCall:
		if n.Star {
			return n.Name + "(*)"
		}
		return n.Name + "(" + exprItem(n.Arg) + ")"
	case *sqlparse.BinaryExpr:
		return exprItem(n.Left) + " " + n.Op + " " + exprItem(n.Right)
	case *sqlparse.Literal:
		// Constants are deliberately erased from structural features.
		return "?"
	default:
		return "expr"
	}
}
