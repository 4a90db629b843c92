package sqlparse

import (
	"strconv"
	"strings"
)

// SQL renders the statement in canonical form: upper-case keywords,
// single spaces, parenthesized nested boolean expressions, normalized
// literals. The output re-parses to an equal AST.
func (s *SelectStmt) SQL() string {
	var sb strings.Builder
	s.writeSQL(&sb)
	return sb.String()
}

func (s *SelectStmt) writeSQL(sb *strings.Builder) {
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, item := range s.Select {
		if i > 0 {
			sb.WriteString(", ")
		}
		if item.Star {
			sb.WriteString("*")
			continue
		}
		item.Expr.writeSQL(sb)
		if item.Alias != "" {
			sb.WriteString(" AS ")
			sb.WriteString(item.Alias)
		}
	}
	sb.WriteString(" FROM ")
	for i, tr := range s.From {
		if i > 0 {
			sb.WriteString(", ")
		}
		writeTableRef(sb, tr)
	}
	for _, j := range s.Joins {
		sb.WriteString(" ")
		sb.WriteString(j.Kind.String())
		sb.WriteString(" ")
		writeTableRef(sb, j.Table)
		sb.WriteString(" ON ")
		j.On.writeSQL(sb)
	}
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		s.Where.writeSQL(sb)
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			g.writeSQL(sb)
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING ")
		s.Having.writeSQL(sb)
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			o.Column.writeSQL(sb)
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if s.Limit != nil {
		sb.WriteString(" LIMIT ")
		sb.WriteString(strconv.FormatInt(*s.Limit, 10))
	}
}

func writeTableRef(sb *strings.Builder, tr TableRef) {
	sb.WriteString(tr.Name)
	if tr.Alias != "" {
		sb.WriteString(" AS ")
		sb.WriteString(tr.Alias)
	}
}

func (c *ColumnRef) writeSQL(sb *strings.Builder) {
	if c.Table != "" {
		sb.WriteString(c.Table)
		sb.WriteString(".")
	}
	sb.WriteString(c.Name)
}

func (l *Literal) writeSQL(sb *strings.Builder) {
	sb.WriteString(l.Value.String())
}

// precedence assigns binding strength for parenthesization decisions.
func precedence(op string) int {
	switch op {
	case "OR":
		return 1
	case "AND":
		return 2
	case "=", "<>", "<", "<=", ">", ">=":
		return 3
	case "+", "-":
		return 4
	case "*", "/", "%":
		return 5
	default:
		return 6
	}
}

func (b *BinaryExpr) writeSQL(sb *strings.Builder) {
	prec, rightAssoc := precedence(b.Op), true
	if prec == precedence("=") {
		// Comparisons do not chain: the parser reads one comparison
		// between two additive operands.
		prec, rightAssoc = precedence("+"), false
	}
	writeOperand(sb, b.Left, prec, false)
	sb.WriteString(" ")
	sb.WriteString(b.Op)
	sb.WriteString(" ")
	writeOperand(sb, b.Right, prec, rightAssoc)
}

// writeOperand parenthesizes child when its top-level operator binds
// looser than the parent, or equally on the right side (left-assoc).
func writeOperand(sb *strings.Builder, child Expr, parentPrec int, isRight bool) {
	var childPrec = 6
	switch n := child.(type) {
	case *BinaryExpr:
		childPrec = precedence(n.Op)
	case *UnaryExpr:
		if n.Op == "NOT" {
			childPrec = 2 // binds like AND operand
		}
	case *InExpr, *BetweenExpr, *LikeExpr, *IsNullExpr:
		childPrec = 3
	}
	need := childPrec < parentPrec || (childPrec == parentPrec && isRight && childPrec < 6)
	if need {
		sb.WriteString("(")
		child.writeSQL(sb)
		sb.WriteString(")")
		return
	}
	child.writeSQL(sb)
}

// writeAdditive writes an operand the parser reads at additive
// precedence: an operand or bound of IN, BETWEEN, LIKE and IS NULL.
func writeAdditive(sb *strings.Builder, e Expr) {
	writeOperand(sb, e, precedence("+"), false)
}

func (u *UnaryExpr) writeSQL(sb *strings.Builder) {
	if u.Op == "NOT" {
		sb.WriteString("NOT ")
		// NOT binds tighter than AND/OR; parenthesize any binary child
		// that is looser than a comparison.
		if b, ok := u.Expr.(*BinaryExpr); ok && precedence(b.Op) <= 2 {
			sb.WriteString("(")
			u.Expr.writeSQL(sb)
			sb.WriteString(")")
			return
		}
		u.Expr.writeSQL(sb)
		return
	}
	// Unary minus binds tightest: parenthesize any operand but a
	// primary or another unary minus.
	sb.WriteString("-")
	writeOperand(sb, u.Expr, 6, false)
}

func (f *FuncCall) writeSQL(sb *strings.Builder) {
	sb.WriteString(f.Name)
	sb.WriteString("(")
	if f.Star {
		sb.WriteString("*")
	} else {
		f.Arg.writeSQL(sb)
	}
	sb.WriteString(")")
}

func (i *InExpr) writeSQL(sb *strings.Builder) {
	writeAdditive(sb, i.Expr)
	if i.Not {
		sb.WriteString(" NOT")
	}
	sb.WriteString(" IN (")
	for n, item := range i.List {
		if n > 0 {
			sb.WriteString(", ")
		}
		writeAdditive(sb, item)
	}
	sb.WriteString(")")
}

func (b *BetweenExpr) writeSQL(sb *strings.Builder) {
	writeAdditive(sb, b.Expr)
	if b.Not {
		sb.WriteString(" NOT")
	}
	sb.WriteString(" BETWEEN ")
	writeAdditive(sb, b.Lo)
	sb.WriteString(" AND ")
	writeAdditive(sb, b.Hi)
}

func (l *LikeExpr) writeSQL(sb *strings.Builder) {
	writeAdditive(sb, l.Expr)
	if l.Not {
		sb.WriteString(" NOT")
	}
	sb.WriteString(" LIKE ")
	writeAdditive(sb, l.Pattern)
}

func (i *IsNullExpr) writeSQL(sb *strings.Builder) {
	writeAdditive(sb, i.Expr)
	sb.WriteString(" IS ")
	if i.Not {
		sb.WriteString("NOT ")
	}
	sb.WriteString("NULL")
}
