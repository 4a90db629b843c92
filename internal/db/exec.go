package db

import (
	"fmt"
	"sort"

	"repro/internal/sqlparse"
	"repro/internal/value"
)

// Result is the output relation of a query.
type Result struct {
	Columns []string
	Rows    []Row
}

// Aggregator computes one aggregate over a group. name is the upper-case
// function name; star marks COUNT(*); args holds the evaluated argument
// for every row of the group (empty for star); rowCount is the group
// size. The encrypted executor substitutes an Aggregator that performs
// Paillier arithmetic for SUM/AVG over ciphertext columns.
type Aggregator func(name string, star bool, args []value.Value, rowCount int) (value.Value, error)

// Options customizes execution.
type Options struct {
	// Aggregate replaces the default plaintext aggregate evaluation.
	// nil means DefaultAggregate.
	Aggregate Aggregator
}

// Execute runs stmt over the catalog with default options.
func Execute(c *Catalog, stmt *sqlparse.SelectStmt) (*Result, error) {
	return ExecuteOpts(c, stmt, Options{})
}

// ExecuteOpts runs stmt over the catalog.
func ExecuteOpts(c *Catalog, stmt *sqlparse.SelectStmt, opts Options) (*Result, error) {
	agg := opts.Aggregate
	if agg == nil {
		agg = DefaultAggregate
	}
	ex := &executor{catalog: c, agg: agg}
	return ex.run(stmt)
}

type executor struct {
	catalog *Catalog
	agg     Aggregator
}

func (ex *executor) run(stmt *sqlparse.SelectStmt) (*Result, error) {
	cols, rows, err := ex.buildFrom(stmt)
	if err != nil {
		return nil, err
	}

	// WHERE.
	if stmt.Where != nil {
		var kept [][]value.Value
		for _, r := range rows {
			e := &env{cols: cols, row: r}
			t, err := evalPredicate(e, stmt.Where)
			if err != nil {
				return nil, err
			}
			if t == triTrue {
				kept = append(kept, r)
			}
		}
		rows = kept
	}

	if needsAggregation(stmt) {
		return ex.runAggregation(stmt, cols, rows)
	}
	return ex.runProjection(stmt, cols, rows)
}

// buildFrom assembles the joined input relation.
func (ex *executor) buildFrom(stmt *sqlparse.SelectStmt) ([]envCol, [][]value.Value, error) {
	if len(stmt.From) == 0 {
		return nil, nil, fmt.Errorf("db: query has no FROM clause")
	}
	cols, rows, err := ex.scan(stmt.From[0])
	if err != nil {
		return nil, nil, err
	}
	// Comma-joined tables: cross product.
	for _, tr := range stmt.From[1:] {
		c2, r2, err := ex.scan(tr)
		if err != nil {
			return nil, nil, err
		}
		cols, rows = crossProduct(cols, rows, c2, r2)
	}
	// Explicit joins.
	for _, j := range stmt.Joins {
		c2, r2, err := ex.scan(j.Table)
		if err != nil {
			return nil, nil, err
		}
		cols, rows, err = ex.join(cols, rows, c2, r2, j)
		if err != nil {
			return nil, nil, err
		}
	}
	return cols, rows, nil
}

func (ex *executor) scan(tr sqlparse.TableRef) ([]envCol, [][]value.Value, error) {
	t, err := ex.catalog.Table(tr.Name)
	if err != nil {
		return nil, nil, err
	}
	eff := tr.EffectiveName()
	cols := make([]envCol, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = envCol{table: eff, name: c.Name}
	}
	rows := make([][]value.Value, len(t.Rows))
	for i, r := range t.Rows {
		rows[i] = r
	}
	return cols, rows, nil
}

func crossProduct(c1 []envCol, r1 [][]value.Value, c2 []envCol, r2 [][]value.Value) ([]envCol, [][]value.Value) {
	cols := append(append([]envCol(nil), c1...), c2...)
	var rows [][]value.Value
	for _, a := range r1 {
		for _, b := range r2 {
			row := make([]value.Value, 0, len(a)+len(b))
			row = append(row, a...)
			row = append(row, b...)
			rows = append(rows, row)
		}
	}
	return cols, rows
}

func (ex *executor) join(c1 []envCol, r1 [][]value.Value, c2 []envCol, r2 [][]value.Value, j sqlparse.JoinClause) ([]envCol, [][]value.Value, error) {
	cols := append(append([]envCol(nil), c1...), c2...)
	var rows [][]value.Value
	for _, a := range r1 {
		matched := false
		for _, b := range r2 {
			row := make([]value.Value, 0, len(a)+len(b))
			row = append(row, a...)
			row = append(row, b...)
			e := &env{cols: cols, row: row}
			t, err := evalPredicate(e, j.On)
			if err != nil {
				return nil, nil, err
			}
			if t == triTrue {
				rows = append(rows, row)
				matched = true
			}
		}
		if j.Kind == sqlparse.JoinLeft && !matched {
			row := make([]value.Value, 0, len(a)+len(c2))
			row = append(row, a...)
			for range c2 {
				row = append(row, value.Null())
			}
			rows = append(rows, row)
		}
	}
	return cols, rows, nil
}

func needsAggregation(stmt *sqlparse.SelectStmt) bool {
	if len(stmt.GroupBy) > 0 || stmt.Having != nil {
		return true
	}
	for _, item := range stmt.Select {
		found := false
		sqlparse.Walk(item.Expr, func(e sqlparse.Expr) bool {
			if _, ok := e.(*sqlparse.FuncCall); ok {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// runProjection handles queries without aggregation.
func (ex *executor) runProjection(stmt *sqlparse.SelectStmt, cols []envCol, rows [][]value.Value) (*Result, error) {
	outCols := outputColumns(stmt, cols)
	type outRow struct {
		vals Row
		keys []value.Value // ORDER BY keys
	}
	var out []outRow
	for _, r := range rows {
		e := &env{cols: cols, row: r}
		vals, err := projectRow(stmt, e)
		if err != nil {
			return nil, err
		}
		keys, err := orderKeys(stmt, e, vals, outCols)
		if err != nil {
			return nil, err
		}
		out = append(out, outRow{vals: vals, keys: keys})
	}
	return finalize(stmt, outCols, func() ([]Row, [][]value.Value) {
		rowsOut := make([]Row, len(out))
		keysOut := make([][]value.Value, len(out))
		for i, o := range out {
			rowsOut[i] = o.vals
			keysOut[i] = o.keys
		}
		return rowsOut, keysOut
	})
}

// runAggregation handles GROUP BY / aggregate queries.
func (ex *executor) runAggregation(stmt *sqlparse.SelectStmt, cols []envCol, rows [][]value.Value) (*Result, error) {
	outCols := outputColumns(stmt, cols)

	// Partition rows into groups.
	type group struct{ rows [][]value.Value }
	var groupKeys []string
	groups := make(map[string]*group)
	for _, r := range rows {
		e := &env{cols: cols, row: r}
		var keyVals []value.Value
		for _, g := range stmt.GroupBy {
			v, err := e.lookup(g)
			if err != nil {
				return nil, err
			}
			keyVals = append(keyVals, v)
		}
		k := aggValueKey(keyVals)
		grp, ok := groups[k]
		if !ok {
			grp = &group{}
			groups[k] = grp
			groupKeys = append(groupKeys, k)
		}
		grp.rows = append(grp.rows, r)
	}
	// A query like SELECT COUNT(*) FROM r with no GROUP BY and no rows
	// still produces one (empty) group.
	if len(stmt.GroupBy) == 0 && len(groupKeys) == 0 {
		groups[""] = &group{}
		groupKeys = append(groupKeys, "")
	}

	var outRows []Row
	var outKeys [][]value.Value
	for _, k := range groupKeys {
		grp := groups[k]
		// Substitute aggregate results into the select expressions, then
		// evaluate over a representative row.
		var repr []value.Value
		if len(grp.rows) > 0 {
			repr = grp.rows[0]
		} else {
			repr = make([]value.Value, len(cols)) // all NULL
		}
		e := &env{cols: cols, row: repr}

		if stmt.Having != nil {
			substituted, err := ex.substituteAggregates(stmt.Having, cols, grp.rows)
			if err != nil {
				return nil, err
			}
			t, err := evalPredicate(e, substituted)
			if err != nil {
				return nil, err
			}
			if t != triTrue {
				continue
			}
		}

		var vals Row
		for _, item := range stmt.Select {
			if item.Star {
				vals = append(vals, repr...)
				continue
			}
			substituted, err := ex.substituteAggregates(item.Expr, cols, grp.rows)
			if err != nil {
				return nil, err
			}
			v, err := evalScalar(e, substituted)
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
		}

		keys, err := orderKeys(stmt, e, vals, outCols)
		if err != nil {
			return nil, err
		}
		outRows = append(outRows, vals)
		outKeys = append(outKeys, keys)
	}

	return finalize(stmt, outCols, func() ([]Row, [][]value.Value) {
		return outRows, outKeys
	})
}

// substituteAggregates replaces every FuncCall in the expression with a
// literal holding its aggregate over the group.
func (ex *executor) substituteAggregates(x sqlparse.Expr, cols []envCol, groupRows [][]value.Value) (sqlparse.Expr, error) {
	var rewrite func(sqlparse.Expr) (sqlparse.Expr, error)
	rewrite = func(e sqlparse.Expr) (sqlparse.Expr, error) {
		switch n := e.(type) {
		case nil:
			return nil, nil
		case *sqlparse.FuncCall:
			var args []value.Value
			if !n.Star {
				for _, r := range groupRows {
					env := &env{cols: cols, row: r}
					v, err := evalScalar(env, n.Arg)
					if err != nil {
						return nil, err
					}
					args = append(args, v)
				}
			}
			v, err := ex.agg(n.Name, n.Star, args, len(groupRows))
			if err != nil {
				return nil, err
			}
			return &sqlparse.Literal{Value: v}, nil
		case *sqlparse.BinaryExpr:
			l, err := rewrite(n.Left)
			if err != nil {
				return nil, err
			}
			r, err := rewrite(n.Right)
			if err != nil {
				return nil, err
			}
			return &sqlparse.BinaryExpr{Op: n.Op, Left: l, Right: r}, nil
		case *sqlparse.UnaryExpr:
			inner, err := rewrite(n.Expr)
			if err != nil {
				return nil, err
			}
			return &sqlparse.UnaryExpr{Op: n.Op, Expr: inner}, nil
		default:
			return sqlparse.CloneExpr(e), nil
		}
	}
	return rewrite(x)
}

// outputColumns derives the result column names.
func outputColumns(stmt *sqlparse.SelectStmt, cols []envCol) []string {
	var out []string
	for _, item := range stmt.Select {
		switch {
		case item.Star:
			for _, c := range cols {
				out = append(out, c.name)
			}
		case item.Alias != "":
			out = append(out, item.Alias)
		default:
			out = append(out, exprName(item.Expr))
		}
	}
	return out
}

func exprName(e sqlparse.Expr) string {
	switch n := e.(type) {
	case *sqlparse.ColumnRef:
		return n.Name
	case *sqlparse.FuncCall:
		if n.Star {
			return n.Name + "(*)"
		}
		return n.Name + "(" + exprName(n.Arg) + ")"
	default:
		return "expr"
	}
}

func projectRow(stmt *sqlparse.SelectStmt, e *env) (Row, error) {
	var vals Row
	for _, item := range stmt.Select {
		if item.Star {
			vals = append(vals, e.row...)
			continue
		}
		v, err := evalScalar(e, item.Expr)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	return vals, nil
}

// orderKeys computes ORDER BY key values for a non-aggregated row:
// aliases resolve to output values, otherwise the input environment.
func orderKeys(stmt *sqlparse.SelectStmt, e *env, outVals Row, outCols []string) ([]value.Value, error) {
	var keys []value.Value
	for _, o := range stmt.OrderBy {
		if o.Column.Table == "" {
			if idx := indexOf(outCols, o.Column.Name); idx >= 0 {
				keys = append(keys, outVals[idx])
				continue
			}
		}
		v, err := e.lookup(o.Column)
		if err != nil {
			return nil, err
		}
		keys = append(keys, v)
	}
	return keys, nil
}

func indexOf(ss []string, s string) int {
	for i, x := range ss {
		if x == s {
			return i
		}
	}
	return -1
}

// finalize applies DISTINCT, ORDER BY (using precomputed keys), and
// LIMIT, and assembles the Result.
func finalize(stmt *sqlparse.SelectStmt, outCols []string, collect func() ([]Row, [][]value.Value)) (*Result, error) {
	rows, keys := collect()

	if stmt.Distinct {
		seen := make(map[string]bool)
		var dr []Row
		var dk [][]value.Value
		for i, r := range rows {
			k := aggValueKey(r)
			if seen[k] {
				continue
			}
			seen[k] = true
			dr = append(dr, r)
			dk = append(dk, keys[i])
		}
		rows, keys = dr, dk
	}

	if len(stmt.OrderBy) > 0 {
		idx := make([]int, len(rows))
		for i := range idx {
			idx[i] = i
		}
		var sortErr error
		sort.SliceStable(idx, func(a, b int) bool {
			ka, kb := keys[idx[a]], keys[idx[b]]
			for i, o := range stmt.OrderBy {
				va, vb := ka[i], kb[i]
				// NULLs sort first.
				if va.IsNull() && vb.IsNull() {
					continue
				}
				if va.IsNull() {
					return !o.Desc
				}
				if vb.IsNull() {
					return o.Desc
				}
				c, ok := va.Compare(vb)
				if !ok {
					sortErr = fmt.Errorf("db: ORDER BY over incomparable kinds %s and %s", va.Kind(), vb.Kind())
					return false
				}
				if c == 0 {
					continue
				}
				if o.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		if sortErr != nil {
			return nil, sortErr
		}
		sorted := make([]Row, len(rows))
		for i, j := range idx {
			sorted[i] = rows[j]
		}
		rows = sorted
	}

	if stmt.Limit != nil && int64(len(rows)) > *stmt.Limit {
		rows = rows[:*stmt.Limit]
	}
	return &Result{Columns: outCols, Rows: rows}, nil
}

// DefaultAggregate implements plaintext aggregate semantics: COUNT(*)
// counts rows, COUNT(x) counts non-NULL arguments, SUM/AVG/MIN/MAX skip
// NULLs and return NULL over an empty (or all-NULL) input.
func DefaultAggregate(name string, star bool, args []value.Value, rowCount int) (value.Value, error) {
	if name == "COUNT" {
		if star {
			return value.Int(int64(rowCount)), nil
		}
		n := int64(0)
		for _, v := range args {
			if !v.IsNull() {
				n++
			}
		}
		return value.Int(n), nil
	}
	var nonNull []value.Value
	for _, v := range args {
		if !v.IsNull() {
			nonNull = append(nonNull, v)
		}
	}
	if len(nonNull) == 0 {
		return value.Null(), nil
	}
	switch name {
	case "SUM", "AVG":
		allInt := true
		var fsum float64
		var isum int64
		for _, v := range nonNull {
			if !v.IsNumeric() {
				return value.Value{}, fmt.Errorf("db: %s over non-numeric %s", name, v.Kind())
			}
			if v.Kind() != value.KindInt {
				allInt = false
			}
			fsum += v.AsFloat()
			if v.Kind() == value.KindInt {
				isum += v.AsInt()
			}
		}
		if name == "AVG" {
			return value.Float(fsum / float64(len(nonNull))), nil
		}
		if allInt {
			return value.Int(isum), nil
		}
		return value.Float(fsum), nil
	case "MIN", "MAX":
		best := nonNull[0]
		for _, v := range nonNull[1:] {
			c, ok := v.Compare(best)
			if !ok {
				return value.Value{}, fmt.Errorf("db: %s over incomparable kinds", name)
			}
			if (name == "MIN" && c < 0) || (name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	default:
		return value.Value{}, fmt.Errorf("db: unknown aggregate %q", name)
	}
}
