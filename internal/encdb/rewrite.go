package encdb

import (
	"fmt"

	"repro/internal/sqlparse"
	"repro/internal/value"
)

// unattributedColumn is the pseudo-column owning constants that belong to
// no attribute (e.g. literal-literal comparisons); its keys come from the
// same hierarchy.
const unattributedColumn = "\x00global"

// EncryptQuery rewrites a plaintext query into its encrypted counterpart
// under the given Table I mode. The input is not mutated.
//
// Per mode:
//   - ModeToken: names and every constant DET — equal plaintext tokens
//     map to equal ciphertext tokens (token equivalence).
//   - ModeStructure: names DET, constants PROB — the feature set (which
//     never contains constants) is preserved, and constants get the
//     strongest class (structural equivalence, Table I row 2).
//   - ModeResult: CryptDB-style — names DET; constants take the class of
//     the operation they feed (equality DET, order OPE, aggregation HOM);
//     column references pick the matching onion suffix so the query runs
//     on the encrypted catalog (result equivalence).
//   - ModeAccessArea: names DET; numeric predicate constants OPE so the
//     access-area algebra works on ciphertext; string equality/IN
//     constants DET; everything else (SELECT/HAVING constants, LIKE
//     patterns) PROB — the Section IV-C refinement that beats CryptDB.
func (d *Deployment) EncryptQuery(stmt *sqlparse.SelectStmt, schema *Schema, mode Mode) (*sqlparse.SelectStmt, error) {
	r := &rewriter{d: d, schema: schema, mode: mode}
	return r.rewrite(stmt)
}

// EncryptQueryString parses, rewrites, and prints a query: the form in
// which an encrypted log is shared with the service provider.
func (d *Deployment) EncryptQueryString(query string, schema *Schema, mode Mode) (string, error) {
	stmt, err := sqlparse.Parse(query)
	if err != nil {
		return "", err
	}
	enc, err := d.EncryptQuery(stmt, schema, mode)
	if err != nil {
		return "", err
	}
	return enc.SQL(), nil
}

// DeclareJoins scans queries for column-column predicates and unifies the
// key groups of the joined columns (the JOIN / JOIN-OPE usage modes).
// Must run before any constant or cell is encrypted.
func (d *Deployment) DeclareJoins(schema *Schema, queries []*sqlparse.SelectStmt) error {
	for _, stmt := range queries {
		r := &rewriter{d: d, schema: schema, mode: ModeResult}
		if err := r.prepare(stmt); err != nil {
			return err
		}
		declare := func(e sqlparse.Expr) bool {
			b, ok := e.(*sqlparse.BinaryExpr)
			if !ok || !isComparison(b.Op) {
				return true
			}
			lc, lok := b.Left.(*sqlparse.ColumnRef)
			rc, rok := b.Right.(*sqlparse.ColumnRef)
			if !lok || !rok {
				return true
			}
			li, lerr := r.resolve(lc)
			ri, rerr := r.resolve(rc)
			if lerr != nil || rerr != nil {
				return true
			}
			d.km.JoinGroups().Union(li.Table, li.Name, ri.Table, ri.Name)
			return true
		}
		sqlparse.Walk(stmt.Where, declare)
		for _, j := range stmt.Joins {
			sqlparse.Walk(j.On, declare)
		}
	}
	return nil
}

func isComparison(op string) bool {
	switch op {
	case "=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

type rewriter struct {
	d      *Deployment
	schema *Schema
	mode   Mode

	aliases map[string]string // effective FROM name -> real table
	inScope []string          // real tables, FROM order
	scoped  []sqlparse.TableRef
}

func (r *rewriter) prepare(stmt *sqlparse.SelectStmt) error {
	r.aliases = make(map[string]string)
	for _, tr := range stmt.Tables() {
		if _, ok := r.schema.tables[tr.Name]; !ok {
			return fmt.Errorf("encdb: query references unknown table %q", tr.Name)
		}
		eff := tr.EffectiveName()
		if prev, dup := r.aliases[eff]; dup && prev != tr.Name {
			return fmt.Errorf("encdb: duplicate table name/alias %q", eff)
		}
		r.aliases[eff] = tr.Name
		r.inScope = append(r.inScope, tr.Name)
		r.scoped = append(r.scoped, tr)
	}
	return nil
}

// executable reports whether this mode produces queries meant to run
// over the encrypted catalog (onion suffixes, executable predicates).
func (r *rewriter) executable() bool {
	return r.mode == ModeResult || r.mode == ModeResultDETOnly
}

func (r *rewriter) resolve(c *sqlparse.ColumnRef) (ColumnInfo, error) {
	return r.schema.Resolve(c.Table, c.Name, r.aliases, r.inScope)
}

func (r *rewriter) rewrite(stmt *sqlparse.SelectStmt) (*sqlparse.SelectStmt, error) {
	if err := r.prepare(stmt); err != nil {
		return nil, err
	}
	out := stmt.Clone()

	// Table references.
	for i := range out.From {
		out.From[i] = r.encTableRef(out.From[i])
	}
	for i := range out.Joins {
		out.Joins[i].Table = r.encTableRef(out.Joins[i].Table)
		on, err := r.rewritePredicate(out.Joins[i].On, false)
		if err != nil {
			return nil, err
		}
		out.Joins[i].On = on
	}

	// Select list.
	var selects []sqlparse.SelectItem
	for _, item := range out.Select {
		items, err := r.rewriteSelectItem(item)
		if err != nil {
			return nil, err
		}
		selects = append(selects, items...)
	}
	out.Select = selects

	// WHERE / GROUP BY / HAVING / ORDER BY.
	if out.Where != nil {
		w, err := r.rewritePredicate(out.Where, false)
		if err != nil {
			return nil, err
		}
		out.Where = w
	}
	for i, g := range out.GroupBy {
		col, err := r.encColumn(g, suffixForGroupBy(r.mode))
		if err != nil {
			return nil, err
		}
		out.GroupBy[i] = col
	}
	if out.Having != nil {
		h, err := r.rewritePredicate(out.Having, true)
		if err != nil {
			return nil, err
		}
		out.Having = h
	}
	for i := range out.OrderBy {
		col, err := r.rewriteOrderBy(stmt, out.OrderBy[i].Column)
		if err != nil {
			return nil, err
		}
		out.OrderBy[i] = sqlparse.OrderItem{Column: col, Desc: out.OrderBy[i].Desc}
	}
	return out, nil
}

func suffixForGroupBy(m Mode) string {
	if m == ModeResult || m == ModeResultDETOnly {
		return suffixDET
	}
	return ""
}

func (r *rewriter) encTableRef(tr sqlparse.TableRef) sqlparse.TableRef {
	out := sqlparse.TableRef{Name: r.d.EncryptRelName(tr.Name)}
	if tr.Alias != "" {
		out.Alias = r.d.EncryptRelName(tr.Alias)
	}
	return out
}

// encQualifier maps a reference's table qualifier into ciphertext space.
func (r *rewriter) encQualifier(q string) string {
	if q == "" {
		return ""
	}
	return r.d.EncryptRelName(q)
}

// encColumn renders an encrypted column reference carrying the requested
// onion suffix (empty outside result mode).
func (r *rewriter) encColumn(c *sqlparse.ColumnRef, suffix string) (*sqlparse.ColumnRef, error) {
	if _, err := r.resolve(c); err != nil {
		return nil, err
	}
	return &sqlparse.ColumnRef{
		Table: r.encQualifier(c.Table),
		Name:  r.d.EncryptAttrName(c.Name) + suffix,
	}, nil
}

// encConst encrypts a literal under the owning column's key with the
// given class ("det", "ope", "prob").
func (r *rewriter) encConst(owner ColumnInfo, class string, lit *sqlparse.Literal) (sqlparse.Expr, error) {
	var v value.Value
	var err error
	// Token equivalence needs the token mapping to be a function of the
	// token alone: the same constant under two different attributes must
	// encrypt identically, or plaintext token intersections shrink under
	// encryption. So token mode uses one shared DET key for all
	// constants ({EncA.Const} degenerates to a single EncConst) — an
	// empirical finding of the reproduction, see docs/ARCHITECTURE.md,
	// "Paper experiments".
	if r.mode == ModeToken {
		owner = globalOwner()
	}
	// Widen INT literals against FLOAT columns so ciphertext equality
	// matches SQL's cross-numeric equality (1 = 1.0).
	pt := widen(lit.Value, owner.Kind)
	switch class {
	case "det":
		v, err = r.d.encryptDET(owner.Table, owner.Name, pt)
	case "ope":
		v, err = r.d.encryptOPE(owner.Table, owner.Name, owner.Kind, pt)
	case "prob":
		v, err = r.d.encryptPROB(owner.Table, owner.Name, pt)
	default:
		err = fmt.Errorf("encdb: unknown constant class %q", class)
	}
	if err != nil {
		return nil, err
	}
	return &sqlparse.Literal{Value: v}, nil
}

func globalOwner() ColumnInfo {
	return ColumnInfo{Table: unattributedColumn, Name: unattributedColumn, Kind: KindString}
}

// constClass decides the encryption class for a constant owned by column
// info and used with operator shape opKind ("eq", "ord").
func (r *rewriter) constClass(info ColumnInfo, opKind string) string {
	switch r.mode {
	case ModeToken:
		return "det"
	case ModeStructure:
		return "prob"
	case ModeResult:
		if opKind == "ord" {
			return "ope"
		}
		return "det"
	case ModeResultDETOnly:
		return "det"
	case ModeAccessArea:
		if info.Kind == KindInt || info.Kind == KindFloat {
			return "ope" // areas need order on ciphertext
		}
		return "det" // string points: equality only
	default:
		return "det"
	}
}

// suffixFor returns the onion suffix for a column used under an operator
// shape; empty outside result mode.
func (r *rewriter) suffixFor(opKind string) string {
	if !r.executable() {
		return ""
	}
	if r.mode == ModeResult && opKind == "ord" {
		return suffixOPE
	}
	return suffixDET
}

func opKind(op string) string {
	switch op {
	case "<", "<=", ">", ">=":
		return "ord"
	default:
		return "eq"
	}
}

// rewriteSelectItem may expand SELECT * (result mode) into explicit DET
// columns so result tuples match the plaintext column layout.
func (r *rewriter) rewriteSelectItem(item sqlparse.SelectItem) ([]sqlparse.SelectItem, error) {
	if item.Star {
		if !r.executable() {
			return []sqlparse.SelectItem{item}, nil
		}
		var out []sqlparse.SelectItem
		for _, tr := range r.scoped {
			cols, err := r.schema.Columns(tr.Name)
			if err != nil {
				return nil, err
			}
			qual := ""
			if len(r.scoped) > 1 {
				qual = r.d.EncryptRelName(tr.EffectiveName())
			}
			for _, c := range cols {
				out = append(out, sqlparse.SelectItem{Expr: &sqlparse.ColumnRef{
					Table: qual,
					Name:  r.d.EncryptAttrName(c.Name) + suffixDET,
				}})
			}
		}
		return out, nil
	}
	expr, err := r.rewriteSelectExpr(item.Expr)
	if err != nil {
		return nil, err
	}
	alias := item.Alias
	if alias != "" {
		alias = r.d.EncryptAttrName(alias)
	}
	return []sqlparse.SelectItem{{Expr: expr, Alias: alias}}, nil
}

func (r *rewriter) rewriteSelectExpr(e sqlparse.Expr) (sqlparse.Expr, error) {
	switch n := e.(type) {
	case *sqlparse.ColumnRef:
		suffix := ""
		if r.executable() {
			suffix = suffixDET
		}
		return r.encColumn(n, suffix)
	case *sqlparse.FuncCall:
		return r.rewriteAggregate(n)
	case *sqlparse.Literal:
		return r.encConst(globalOwner(), r.selectConstClass(), n)
	case *sqlparse.BinaryExpr, *sqlparse.UnaryExpr:
		if r.executable() {
			return nil, fmt.Errorf("encdb: arithmetic select expressions are not executable over ciphertext")
		}
		return r.rewriteOpaqueExpr(e)
	default:
		return nil, fmt.Errorf("encdb: unsupported select expression %T", e)
	}
}

// selectConstClass is the class for constants in SELECT/HAVING positions
// that feed no operation over ciphertext.
func (r *rewriter) selectConstClass() string {
	switch r.mode {
	case ModeToken:
		return "det"
	default:
		// PROB is the highest class that still preserves the relevant
		// equivalence for structure/result/access-area modes.
		return "prob"
	}
}

// rewriteOpaqueExpr handles expressions the encrypted engine never
// executes (token/structure/access-area logs): names DET, constants per
// mode, shape preserved.
func (r *rewriter) rewriteOpaqueExpr(e sqlparse.Expr) (sqlparse.Expr, error) {
	switch n := e.(type) {
	case nil:
		return nil, nil
	case *sqlparse.ColumnRef:
		return r.encColumn(n, "")
	case *sqlparse.Literal:
		class := "det"
		switch r.mode {
		case ModeStructure, ModeAccessArea:
			class = "prob"
		}
		return r.encConst(globalOwner(), class, n)
	case *sqlparse.BinaryExpr:
		l, err := r.rewriteOpaqueExpr(n.Left)
		if err != nil {
			return nil, err
		}
		rr, err := r.rewriteOpaqueExpr(n.Right)
		if err != nil {
			return nil, err
		}
		return &sqlparse.BinaryExpr{Op: n.Op, Left: l, Right: rr}, nil
	case *sqlparse.UnaryExpr:
		inner, err := r.rewriteOpaqueExpr(n.Expr)
		if err != nil {
			return nil, err
		}
		return &sqlparse.UnaryExpr{Op: n.Op, Expr: inner}, nil
	case *sqlparse.FuncCall:
		return r.rewriteAggregate(n)
	default:
		return nil, fmt.Errorf("encdb: unsupported expression %T", e)
	}
}

// rewriteAggregate maps an aggregate call onto the onion that can compute
// it.
func (r *rewriter) rewriteAggregate(f *sqlparse.FuncCall) (sqlparse.Expr, error) {
	if f.Star {
		return &sqlparse.FuncCall{Name: f.Name, Star: true}, nil
	}
	col, ok := f.Arg.(*sqlparse.ColumnRef)
	if !ok {
		return nil, fmt.Errorf("encdb: aggregate %s over a non-column expression is unsupported", f.Name)
	}
	info, err := r.resolve(col)
	if err != nil {
		return nil, err
	}
	suffix := ""
	if r.mode == ModeResultDETOnly {
		// Ablation: every aggregate runs over the DET onion — COUNT still
		// works, SUM/AVG/MIN/MAX silently compute over ciphertext bytes
		// and come out wrong, which is the point of the ablation.
		suffix = suffixDET
	} else if r.mode == ModeResult {
		switch f.Name {
		case "COUNT":
			suffix = suffixDET
		case "SUM", "AVG":
			if info.Kind != KindInt {
				return nil, fmt.Errorf("encdb: %s over non-integer column %s.%s is unsupported (HOM is integer-only)", f.Name, info.Table, info.Name)
			}
			suffix = suffixHOM
		case "MIN", "MAX":
			if info.Kind == KindString {
				return nil, fmt.Errorf("encdb: %s over string column %s.%s is unsupported (no string OPE)", f.Name, info.Table, info.Name)
			}
			suffix = suffixOPE
		default:
			return nil, fmt.Errorf("encdb: unknown aggregate %q", f.Name)
		}
	}
	encCol, err := r.encColumn(col, suffix)
	if err != nil {
		return nil, err
	}
	return &sqlparse.FuncCall{Name: f.Name, Arg: encCol}, nil
}

// rewritePredicate rewrites WHERE/ON/HAVING trees.
func (r *rewriter) rewritePredicate(e sqlparse.Expr, inHaving bool) (sqlparse.Expr, error) {
	switch n := e.(type) {
	case nil:
		return nil, nil

	case *sqlparse.BinaryExpr:
		if n.Op == "AND" || n.Op == "OR" {
			l, err := r.rewritePredicate(n.Left, inHaving)
			if err != nil {
				return nil, err
			}
			rr, err := r.rewritePredicate(n.Right, inHaving)
			if err != nil {
				return nil, err
			}
			return &sqlparse.BinaryExpr{Op: n.Op, Left: l, Right: rr}, nil
		}
		if isComparison(n.Op) {
			return r.rewriteComparison(n, inHaving)
		}
		// Arithmetic under a predicate (e.g. x + 1 = 2 handled one level
		// up; a bare arithmetic expression in boolean position).
		if r.executable() {
			return nil, fmt.Errorf("encdb: arithmetic predicate %q not executable over ciphertext", n.Op)
		}
		return r.rewriteOpaqueExpr(n)

	case *sqlparse.UnaryExpr:
		if n.Op == "NOT" {
			inner, err := r.rewritePredicate(n.Expr, inHaving)
			if err != nil {
				return nil, err
			}
			return &sqlparse.UnaryExpr{Op: "NOT", Expr: inner}, nil
		}
		if r.executable() {
			return nil, fmt.Errorf("encdb: unary %q predicate not executable over ciphertext", n.Op)
		}
		return r.rewriteOpaqueExpr(n)

	case *sqlparse.InExpr:
		col, ok := n.Expr.(*sqlparse.ColumnRef)
		if !ok {
			if r.executable() {
				return nil, fmt.Errorf("encdb: IN over a non-column expression is unsupported")
			}
			return r.rewriteOpaqueExpr(n.Expr)
		}
		info, err := r.resolve(col)
		if err != nil {
			return nil, err
		}
		class := r.constClass(info, "eq")
		// Access-area mode needs order on IN points only for numerics;
		// constClass already chose OPE there.
		encCol, err := r.encColumn(col, r.suffixFor("eq"))
		if err != nil {
			return nil, err
		}
		out := &sqlparse.InExpr{Expr: encCol, Not: n.Not}
		for _, item := range n.List {
			lit, ok := item.(*sqlparse.Literal)
			if !ok {
				return nil, fmt.Errorf("encdb: IN list items must be literals")
			}
			enc, err := r.encConst(info, class, lit)
			if err != nil {
				return nil, err
			}
			out.List = append(out.List, enc)
		}
		return out, nil

	case *sqlparse.BetweenExpr:
		col, ok := n.Expr.(*sqlparse.ColumnRef)
		if !ok {
			if r.executable() {
				return nil, fmt.Errorf("encdb: BETWEEN over a non-column expression is unsupported")
			}
			return r.rewriteOpaqueExpr(n)
		}
		info, err := r.resolve(col)
		if err != nil {
			return nil, err
		}
		class := r.constClass(info, "ord")
		encCol, err := r.encColumn(col, r.suffixFor("ord"))
		if err != nil {
			return nil, err
		}
		lo, ok1 := n.Lo.(*sqlparse.Literal)
		hi, ok2 := n.Hi.(*sqlparse.Literal)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("encdb: BETWEEN bounds must be literals")
		}
		encLo, err := r.encConst(info, class, lo)
		if err != nil {
			return nil, err
		}
		encHi, err := r.encConst(info, class, hi)
		if err != nil {
			return nil, err
		}
		return &sqlparse.BetweenExpr{Expr: encCol, Not: n.Not, Lo: encLo, Hi: encHi}, nil

	case *sqlparse.LikeExpr:
		col, ok := n.Expr.(*sqlparse.ColumnRef)
		if !ok {
			return nil, fmt.Errorf("encdb: LIKE over a non-column expression is unsupported")
		}
		if r.executable() {
			return nil, fmt.Errorf("encdb: LIKE is not executable over ciphertext (no column encryption class supports pattern matching)")
		}
		info, err := r.resolve(col)
		if err != nil {
			return nil, err
		}
		encCol, err := r.encColumn(col, "")
		if err != nil {
			return nil, err
		}
		pat, ok := n.Pattern.(*sqlparse.Literal)
		if !ok {
			return nil, fmt.Errorf("encdb: LIKE pattern must be a literal")
		}
		class := "det"
		switch r.mode {
		case ModeStructure, ModeAccessArea:
			// Patterns never influence features or access areas: give
			// them the strongest class.
			class = "prob"
		}
		encPat, err := r.encConst(info, class, pat)
		if err != nil {
			return nil, err
		}
		return &sqlparse.LikeExpr{Expr: encCol, Not: n.Not, Pattern: encPat}, nil

	case *sqlparse.IsNullExpr:
		col, ok := n.Expr.(*sqlparse.ColumnRef)
		if !ok {
			return nil, fmt.Errorf("encdb: IS NULL over a non-column expression is unsupported")
		}
		encCol, err := r.encColumn(col, r.suffixFor("eq"))
		if err != nil {
			return nil, err
		}
		return &sqlparse.IsNullExpr{Expr: encCol, Not: n.Not}, nil

	case *sqlparse.FuncCall:
		return r.rewriteAggregate(n)

	case *sqlparse.ColumnRef:
		return r.encColumn(n, r.suffixFor("eq"))

	case *sqlparse.Literal:
		return r.encConst(globalOwner(), r.selectConstClass(), n)

	default:
		return nil, fmt.Errorf("encdb: unsupported predicate %T", e)
	}
}

// rewriteComparison handles the atomic comparison shapes.
func (r *rewriter) rewriteComparison(n *sqlparse.BinaryExpr, inHaving bool) (sqlparse.Expr, error) {
	kind := opKind(n.Op)

	lCol, lIsCol := n.Left.(*sqlparse.ColumnRef)
	rCol, rIsCol := n.Right.(*sqlparse.ColumnRef)
	lLit, lIsLit := n.Left.(*sqlparse.Literal)
	rLit, rIsLit := n.Right.(*sqlparse.Literal)
	lAgg, lIsAgg := n.Left.(*sqlparse.FuncCall)
	rAgg, rIsAgg := n.Right.(*sqlparse.FuncCall)

	switch {
	case lIsCol && rIsLit:
		return r.encColLit(lCol, rLit, n.Op, kind, false)
	case lIsLit && rIsCol:
		return r.encColLit(rCol, lLit, n.Op, kind, true)

	case lIsCol && rIsCol:
		li, err := r.resolve(lCol)
		if err != nil {
			return nil, err
		}
		ri, err := r.resolve(rCol)
		if err != nil {
			return nil, err
		}
		if r.executable() && !r.d.km.JoinGroups().SameGroup(li.Table, li.Name, ri.Table, ri.Name) {
			return nil, fmt.Errorf("encdb: columns %s.%s and %s.%s are compared but not in a join group (call DeclareJoins first)",
				li.Table, li.Name, ri.Table, ri.Name)
		}
		el, err := r.encColumn(lCol, r.suffixFor(kind))
		if err != nil {
			return nil, err
		}
		er, err := r.encColumn(rCol, r.suffixFor(kind))
		if err != nil {
			return nil, err
		}
		return &sqlparse.BinaryExpr{Op: n.Op, Left: el, Right: er}, nil

	case lIsAgg && rIsLit:
		return r.encAggLit(lAgg, rLit, n.Op, kind, false, inHaving)
	case lIsLit && rIsAgg:
		return r.encAggLit(rAgg, lLit, n.Op, kind, true, inHaving)

	case lIsLit && rIsLit:
		// Constant comparison: harmless; encrypt both sides per mode
		// under the global key (DET keeps it decidable).
		class := "det"
		if r.mode == ModeStructure {
			class = "prob"
		}
		el, err := r.encConst(globalOwner(), class, lLit)
		if err != nil {
			return nil, err
		}
		er, err := r.encConst(globalOwner(), class, rLit)
		if err != nil {
			return nil, err
		}
		if r.mode == ModeResult && kind == "ord" {
			return nil, fmt.Errorf("encdb: ordered literal-literal comparison not executable over ciphertext")
		}
		_ = kind
		return &sqlparse.BinaryExpr{Op: n.Op, Left: el, Right: er}, nil

	default:
		// Arithmetic operand(s).
		if r.executable() {
			return nil, fmt.Errorf("encdb: comparison with computed operands not executable over ciphertext")
		}
		return r.rewriteOpaqueExpr(n)
	}
}

func (r *rewriter) encColLit(col *sqlparse.ColumnRef, lit *sqlparse.Literal, op, kind string, flipped bool) (sqlparse.Expr, error) {
	info, err := r.resolve(col)
	if err != nil {
		return nil, err
	}
	class := r.constClass(info, kind)
	encCol, err := r.encColumn(col, r.suffixFor(kind))
	if err != nil {
		return nil, err
	}
	encLit, err := r.encConst(info, class, lit)
	if err != nil {
		return nil, err
	}
	if flipped {
		return &sqlparse.BinaryExpr{Op: op, Left: encLit, Right: encCol}, nil
	}
	return &sqlparse.BinaryExpr{Op: op, Left: encCol, Right: encLit}, nil
}

// encAggLit rewrites HAVING-style comparisons between an aggregate and a
// constant.
func (r *rewriter) encAggLit(agg *sqlparse.FuncCall, lit *sqlparse.Literal, op, kind string, flipped bool, inHaving bool) (sqlparse.Expr, error) {
	encAgg, err := r.rewriteAggregate(agg)
	if err != nil {
		return nil, err
	}
	var encLit sqlparse.Expr
	if r.mode == ModeResultDETOnly {
		switch agg.Name {
		case "COUNT":
			encLit = &sqlparse.Literal{Value: lit.Value}
		default:
			encLit, err = r.encConst(globalOwner(), "det", lit)
			if err != nil {
				return nil, err
			}
		}
	} else if r.mode == ModeResult {
		switch agg.Name {
		case "COUNT":
			// Counts are plaintext integers even over the encrypted
			// catalog: the constant stays in clear.
			encLit = &sqlparse.Literal{Value: lit.Value}
		case "MIN", "MAX":
			col, ok := agg.Arg.(*sqlparse.ColumnRef)
			if !ok {
				return nil, fmt.Errorf("encdb: %s over non-column", agg.Name)
			}
			info, err := r.resolve(col)
			if err != nil {
				return nil, err
			}
			encLit, err = r.encConst(info, "ope", lit)
			if err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("encdb: HAVING over %s is not executable over ciphertext (HOM supports no comparisons)", agg.Name)
		}
	} else {
		class := "det"
		if r.mode == ModeStructure || r.mode == ModeAccessArea {
			class = "prob"
		}
		encLit, err = r.encConst(globalOwner(), class, lit)
		if err != nil {
			return nil, err
		}
	}
	if flipped {
		return &sqlparse.BinaryExpr{Op: op, Left: encLit, Right: encAgg}, nil
	}
	return &sqlparse.BinaryExpr{Op: op, Left: encAgg, Right: encLit}, nil
}

// rewriteOrderBy maps an ORDER BY target. In result mode a numeric column
// uses its OPE onion so ordered LIMIT semantics survive; a string column
// falls back to DET, which only matters when LIMIT is present (rejected).
func (r *rewriter) rewriteOrderBy(plain *sqlparse.SelectStmt, col *sqlparse.ColumnRef) (*sqlparse.ColumnRef, error) {
	if !r.executable() {
		// Try resolving as a column; if it is a select alias, encrypt
		// like an alias.
		if _, err := r.resolve(col); err == nil {
			return r.encColumn(col, "")
		}
		if col.Table == "" && isSelectAlias(plain, col.Name) {
			return &sqlparse.ColumnRef{Name: r.d.EncryptAttrName(col.Name)}, nil
		}
		return nil, fmt.Errorf("encdb: cannot resolve ORDER BY target %q", col.Name)
	}

	target := col
	// Resolve alias indirection to the underlying column when possible.
	if col.Table == "" {
		if under := aliasTarget(plain, col.Name); under != nil {
			target = under
		}
	}
	info, err := r.resolve(target)
	if err != nil {
		return nil, fmt.Errorf("encdb: ORDER BY target %q: %w", col.Name, err)
	}
	if r.mode == ModeResultDETOnly {
		return r.encColumn(target, suffixDET)
	}
	if info.Kind == KindString {
		if plain.Limit != nil {
			return nil, fmt.Errorf("encdb: ORDER BY string column %s.%s with LIMIT is unsupported (no string OPE)", info.Table, info.Name)
		}
		return r.encColumn(target, suffixDET)
	}
	return r.encColumn(target, suffixOPE)
}

func isSelectAlias(stmt *sqlparse.SelectStmt, name string) bool {
	for _, item := range stmt.Select {
		if item.Alias == name {
			return true
		}
	}
	return false
}

// aliasTarget returns the column behind a select alias, if the aliased
// expression is a bare column.
func aliasTarget(stmt *sqlparse.SelectStmt, name string) *sqlparse.ColumnRef {
	for _, item := range stmt.Select {
		if item.Alias == name {
			if c, ok := item.Expr.(*sqlparse.ColumnRef); ok {
				return c
			}
			return nil
		}
	}
	return nil
}
