package relational

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// The reference interpreter: the engine's first executor, kept unchanged as
// the definition of what a statement returns and reports. It runs a statement
// phase by phase over the AST — access-path planning, filtering,
// aggregation or projection, DISTINCT, ordering, limiting — resolving column
// references per row, and shares with the compiled executor (compile.go) only
// leaf helpers (resolveCol, truthy, compareValues, the hash-key encoders).
// Being a _test.go file it is compiled into tests only: nothing the engine
// ships can reach it.

// refStmt parses sql and returns a function that executes it on db through
// the reference interpreter — the one way tests reach it. DDL has one
// implementation and goes through db.Query. Unlike the DB entry points the
// reference neither logs to the WAL nor calls the OnWrite hooks.
func refStmt(db *DB, sql string) (func(params ...any) (*Result, error), error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	var run func(vals []Value) (*Result, error)
	switch s := st.(type) {
	case *SelectStmt:
		run = func(vals []Value) (*Result, error) { return db.execSelectInterp(s, vals) }
	case *InsertStmt:
		run = func(vals []Value) (*Result, error) { return db.execInsertInterp(s, vals) }
	case *UpdateStmt:
		run = func(vals []Value) (*Result, error) { return db.execUpdateInterp(s, vals) }
	case *DeleteStmt:
		run = func(vals []Value) (*Result, error) { return db.execDeleteInterp(s, vals) }
	default:
		return func(...any) (*Result, error) { return db.Query(sql) }, nil
	}
	return func(params ...any) (*Result, error) {
		vals := make([]Value, len(params))
		for i, p := range params {
			vals[i] = FromGo(p)
		}
		return run(vals)
	}, nil
}

// refRun parses sql and executes it once through the reference interpreter.
func refRun(db *DB, sql string, params ...any) (*Result, error) {
	run, err := refStmt(db, sql)
	if err != nil {
		return nil, err
	}
	return run(params...)
}

// env carries the column environment of the current row during evaluation.
type env struct {
	cols []string
	row  Row
}

func (e *env) resolve(c *ColumnRef) (int, error) {
	return resolveCol(e.cols, c)
}

// eval evaluates a scalar expression in the environment.
func eval(e *env, x Expr, params []Value) (Value, error) {
	switch v := x.(type) {
	case *Literal:
		return v.Val, nil
	case *Param:
		if v.Ordinal-1 >= len(params) || params[v.Ordinal-1].T == missingParamType {
			return Null, fmt.Errorf("relational: missing parameter %d", paramSrc(v))
		}
		return params[v.Ordinal-1], nil
	case *ColumnRef:
		i, err := e.resolve(v)
		if err != nil {
			return Null, err
		}
		return e.row[i], nil
	case *BinaryExpr:
		return evalBinary(e, v, params)
	case *UnaryExpr:
		val, err := eval(e, v.E, params)
		if err != nil {
			return Null, err
		}
		return NewBool(!truthy(val)), nil
	case *InExpr:
		val, err := eval(e, v.E, params)
		if err != nil {
			return Null, err
		}
		hit := false
		for _, item := range v.List {
			iv, err := eval(e, item, params)
			if err != nil {
				return Null, err
			}
			if Equal(val, iv) {
				hit = true
				break
			}
		}
		return NewBool(hit != v.Not), nil
	case *IsNullExpr:
		val, err := eval(e, v.E, params)
		if err != nil {
			return Null, err
		}
		return NewBool(val.IsNull() != v.Not), nil
	case *AggExpr:
		return Null, errors.New("relational: aggregate outside aggregation context")
	default:
		return Null, errors.New("relational: unsupported expression")
	}
}

func evalBinary(e *env, v *BinaryExpr, params []Value) (Value, error) {
	switch v.Op {
	case "AND":
		l, err := eval(e, v.L, params)
		if err != nil {
			return Null, err
		}
		if !truthy(l) {
			return NewBool(false), nil
		}
		r, err := eval(e, v.R, params)
		if err != nil {
			return Null, err
		}
		return NewBool(truthy(r)), nil
	case "OR":
		l, err := eval(e, v.L, params)
		if err != nil {
			return Null, err
		}
		if truthy(l) {
			return NewBool(true), nil
		}
		r, err := eval(e, v.R, params)
		if err != nil {
			return Null, err
		}
		return NewBool(truthy(r)), nil
	}
	l, err := eval(e, v.L, params)
	if err != nil {
		return Null, err
	}
	r, err := eval(e, v.R, params)
	if err != nil {
		return Null, err
	}
	return compareValues(v.Op, l, r)
}

// execSelectInterp runs a SELECT through the interpreted evaluator:
// access-path planning, filtering, aggregation, projection, DISTINCT,
// ordering and limiting, resolving column references per row. It is the
// semantic oracle for the compiled path — differential tests assert both
// agree.
func (db *DB) execSelectInterp(sel *SelectStmt, params []Value) (*Result, error) {
	base, err := db.table(sel.From)
	if err != nil {
		return nil, err
	}

	path := base.planAccess(sel.Where, params)
	planLines := []string{path.desc}

	// Materialize base rows.
	var rows []Row
	if path.all {
		_, snap := base.snapshot()
		rows = snap
	} else {
		base.mu.RLock()
		rows = make([]Row, 0, len(path.ids))
		for _, id := range path.ids {
			if id >= 0 && id < len(base.rows) && base.live[id] {
				rows = append(rows, base.rows[id])
			}
		}
		base.mu.RUnlock()
	}

	cols := tableLayout(base)
	// Pretty names for star expansion.
	pretty := base.schema.Names()

	// Filter.
	if sel.Where != nil {
		e := &env{cols: cols}
		filtered := rows[:0:0]
		for _, r := range rows {
			e.row = r
			v, err := eval(e, sel.Where, params)
			if err != nil {
				return nil, err
			}
			if truthy(v) {
				filtered = append(filtered, r)
			}
		}
		rows = filtered
		planLines = append(planLines, "Filter("+exprDisplay(sel.Where, params)+")")
	}

	// Aggregation?
	aggregated := len(sel.GroupBy) > 0
	for _, it := range sel.Items {
		if !it.Star && hasAggregate(it.Expr) {
			aggregated = true
		}
	}

	var out *Result
	if aggregated {
		out, err = aggregate(sel, rows, cols, pretty, params)
		if err != nil {
			return nil, err
		}
		if len(sel.GroupBy) > 0 {
			planLines = append(planLines, fmt.Sprintf("GroupBy(%d keys)", len(sel.GroupBy)))
		} else {
			planLines = append(planLines, "Aggregate")
		}
	} else {
		out, err = project(sel, rows, cols, pretty, params)
		if err != nil {
			return nil, err
		}
	}

	if sel.Distinct {
		out.Rows = distinctRows(out.Rows)
		planLines = append(planLines, "Distinct")
	}

	if len(sel.OrderBy) > 0 {
		if err := orderResult(sel, out, cols, rows, params, aggregated); err != nil {
			return nil, err
		}
		planLines = append(planLines, fmt.Sprintf("Sort(%d keys)", len(sel.OrderBy)))
	}

	if sel.Offset > 0 {
		if sel.Offset >= len(out.Rows) {
			out.Rows = nil
		} else {
			out.Rows = out.Rows[sel.Offset:]
		}
	}
	if sel.Limit >= 0 && sel.Limit < len(out.Rows) {
		out.Rows = out.Rows[:sel.Limit]
		planLines = append(planLines, fmt.Sprintf("Limit(%d)", sel.Limit))
	}

	// Plan strings are an EXPLAIN artifact: ordinary queries skip the render
	// (the compiled engine does the same, so differential runs stay aligned).
	if sel.Explain {
		out.Plan = strings.Join(planLines, " -> ")
		return &Result{Columns: []string{"plan"}, Rows: []Row{{NewString(out.Plan)}}, Plan: out.Plan}, nil
	}
	return out, nil
}

// project evaluates non-aggregate select items per row.
func project(sel *SelectStmt, rows []Row, cols []string, pretty []string, params []Value) (*Result, error) {
	var names []string
	for _, it := range sel.Items {
		if it.Star {
			names = append(names, pretty...)
			continue
		}
		names = append(names, itemName(it))
	}
	res := &Result{Columns: names}
	e := &env{cols: cols}
	for _, r := range rows {
		e.row = r
		var or Row
		for _, it := range sel.Items {
			if it.Star {
				or = append(or, r...)
				continue
			}
			v, err := eval(e, it.Expr, params)
			if err != nil {
				return nil, err
			}
			or = append(or, v)
		}
		res.Rows = append(res.Rows, or)
	}
	return res, nil
}

// aggregate groups rows by the GROUP BY keys (or a single global group) and
// evaluates aggregate select items per group.
func aggregate(sel *SelectStmt, rows []Row, cols []string, pretty []string, params []Value) (*Result, error) {
	for _, it := range sel.Items {
		if it.Star {
			return nil, fmt.Errorf("relational: SELECT * cannot be combined with aggregates")
		}
	}
	e := &env{cols: cols}
	type group struct {
		rows []Row
	}
	var groups []*group
	byKey := map[string]*group{}
	var scratch []byte
	if len(sel.GroupBy) == 0 {
		g := &group{rows: rows}
		groups = append(groups, g)
	} else {
		for _, r := range rows {
			e.row = r
			scratch = scratch[:0]
			for _, gc := range sel.GroupBy {
				gcCopy := gc
				i, err := e.resolve(&gcCopy)
				if err != nil {
					return nil, err
				}
				scratch = appendValueKey(scratch, r[i])
			}
			g, ok := byKey[string(scratch)]
			if !ok {
				g = &group{}
				byKey[string(scratch)] = g
				groups = append(groups, g)
			}
			g.rows = append(g.rows, r)
		}
	}

	var names []string
	for _, it := range sel.Items {
		names = append(names, itemName(it))
	}
	res := &Result{Columns: names}
	for _, g := range groups {
		if len(sel.GroupBy) == 0 && len(g.rows) == 0 {
			// Global aggregate over empty input still yields one row.
			var or Row
			for _, it := range sel.Items {
				v, err := evalAgg(e, it.Expr, g.rows, params)
				if err != nil {
					return nil, err
				}
				or = append(or, v)
			}
			res.Rows = append(res.Rows, or)
			continue
		}
		var or Row
		for _, it := range sel.Items {
			v, err := evalAgg(e, it.Expr, g.rows, params)
			if err != nil {
				return nil, err
			}
			or = append(or, v)
		}
		res.Rows = append(res.Rows, or)
	}
	return res, nil
}

// evalAgg evaluates an expression that may contain aggregates over the rows
// of one group. Non-aggregate subexpressions are evaluated on the group's
// first row (they should be GROUP BY keys).
func evalAgg(e *env, x Expr, rows []Row, params []Value) (Value, error) {
	switch v := x.(type) {
	case *AggExpr:
		return computeAgg(e, v, rows, params)
	case *BinaryExpr:
		if !hasAggregate(v) {
			return evalOnFirst(e, x, rows, params)
		}
		l, err := evalAgg(e, v.L, rows, params)
		if err != nil {
			return Null, err
		}
		r, err := evalAgg(e, v.R, rows, params)
		if err != nil {
			return Null, err
		}
		return applyBinaryValues(v.Op, l, r)
	case *UnaryExpr:
		inner, err := evalAgg(e, v.E, rows, params)
		if err != nil {
			return Null, err
		}
		return NewBool(!truthy(inner)), nil
	default:
		return evalOnFirst(e, x, rows, params)
	}
}

func evalOnFirst(e *env, x Expr, rows []Row, params []Value) (Value, error) {
	if len(rows) == 0 {
		return Null, nil
	}
	e.row = rows[0]
	return eval(e, x, params)
}

func computeAgg(e *env, a *AggExpr, rows []Row, params []Value) (Value, error) {
	if a.Star {
		return NewInt(int64(len(rows))), nil
	}
	var vals []Value
	for _, r := range rows {
		e.row = r
		v, err := eval(e, a.Arg, params)
		if err != nil {
			return Null, err
		}
		if v.IsNull() {
			continue
		}
		vals = append(vals, v)
	}
	switch a.Fn {
	case "COUNT":
		return NewInt(int64(len(vals))), nil
	case "SUM", "AVG":
		var sum float64
		allInt := true
		for _, v := range vals {
			f, ok := v.numeric()
			if !ok {
				return Null, fmt.Errorf("relational: %s over non-numeric value", a.Fn)
			}
			if v.T != TInt {
				allInt = false
			}
			sum += f
		}
		if len(vals) == 0 {
			return Null, nil
		}
		if a.Fn == "AVG" {
			return NewFloat(sum / float64(len(vals))), nil
		}
		if allInt {
			return NewInt(int64(sum)), nil
		}
		return NewFloat(sum), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return Null, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := Compare(v, best)
			if (a.Fn == "MIN" && c < 0) || (a.Fn == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	default:
		return Null, fmt.Errorf("relational: unknown aggregate %q", a.Fn)
	}
}

// orderResult sorts the projected rows. ORDER BY keys naming an output
// column (or alias) sort on the output; otherwise, for non-aggregated
// queries, the key is evaluated against the underlying input row.
func orderResult(sel *SelectStmt, out *Result, cols []string, inputRows []Row, params []Value, aggregated bool) error {
	type sortKey struct {
		vals []Value
	}
	keys := make([]sortKey, len(out.Rows))

	for ki, ob := range sel.OrderBy {
		// Try output column first (same resolution rule as the compiler).
		if cr, ok := ob.Expr.(*ColumnRef); ok {
			if i := outColumnIndex(out.Columns, cr.Column); i >= 0 {
				for ri := range out.Rows {
					keys[ri].vals = append(keys[ri].vals, out.Rows[ri][i])
				}
				continue
			}
		}
		if aggregated {
			return fmt.Errorf("relational: ORDER BY key %q must be an output column in aggregate queries", exprString(ob.Expr))
		}
		if len(inputRows) != len(out.Rows) {
			return fmt.Errorf("relational: internal: row count mismatch in ORDER BY")
		}
		e := &env{cols: cols}
		for ri := range inputRows {
			e.row = inputRows[ri]
			v, err := eval(e, ob.Expr, params)
			if err != nil {
				return err
			}
			keys[ri].vals = append(keys[ri].vals, v)
		}
		_ = ki
	}

	idx := make([]int, len(out.Rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for ki, ob := range sel.OrderBy {
			c := Compare(keys[idx[a]].vals[ki], keys[idx[b]].vals[ki])
			if c == 0 {
				continue
			}
			if ob.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	sorted := make([]Row, len(out.Rows))
	for i, p := range idx {
		sorted[i] = out.Rows[p]
	}
	out.Rows = sorted
	return nil
}

// snapshot returns live rows and their ids under the table read lock.
func (t *table) snapshot() ([]int, []Row) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ids := make([]int, 0, t.liveCnt)
	rows := make([]Row, 0, t.liveCnt)
	for id, r := range t.rows {
		if t.live[id] {
			ids = append(ids, id)
			rows = append(rows, r)
		}
	}
	return ids, rows
}

// planAccess inspects WHERE conjuncts for a sargable predicate over an
// indexed column of the base table and returns matching row ids. The full
// WHERE is still applied afterwards, so the index is purely an accelerator.
func (t *table) planAccess(where Expr, params []Value) accessPath {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if where == nil || len(t.indexes) == 0 {
		return accessPath{desc: "SeqScan(" + t.name + ")", all: true}
	}
	conjuncts := splitAnd(where)
	type candidate struct {
		rank int // lower is better: 0 equality, 1 IN, 2 range
		desc string
		ids  []int
	}
	var best *candidate
	consider := func(c candidate) {
		if best == nil || c.rank < best.rank || (c.rank == best.rank && len(c.ids) < len(best.ids)) {
			cc := c
			best = &cc
		}
	}
	colFor := func(e Expr) *indexDef {
		cr, ok := e.(*ColumnRef)
		if !ok {
			return nil
		}
		return t.indexes[strings.ToLower(cr.Column)]
	}
	constVal := func(e Expr) (Value, bool) {
		switch x := e.(type) {
		case *Literal:
			return x.Val, true
		case *Param:
			if x.Ordinal-1 < len(params) && params[x.Ordinal-1].T != missingParamType {
				return params[x.Ordinal-1], true
			}
		}
		return Null, false
	}
	// An index serves only a value of its column's own class: a number for an
	// INT or FLOAT column, else the column's type. Any other value leaves the
	// conjunct to the scan, whose Equal and Compare are the predicate's.
	serves := func(ix *indexDef, v Value) bool {
		if v.IsNull() {
			return true
		}
		ct := t.schema.Columns[ix.col].Type
		if ct == TInt || ct == TFloat {
			return v.T == TInt || v.T == TFloat
		}
		return v.T == ct
	}
	for _, cj := range conjuncts {
		switch x := cj.(type) {
		case *BinaryExpr:
			ix := colFor(x.L)
			v, ok := constVal(x.R)
			if ix == nil || !ok || v.IsNull() || !serves(ix, v) {
				// try flipped: literal op column
				ix = colFor(x.R)
				if ix == nil {
					continue
				}
				v2, ok2 := constVal(x.L)
				if !ok2 || v2.IsNull() || !serves(ix, v2) {
					continue
				}
				// flip operator
				op, okf := flippedOp[x.Op]
				if !okf {
					continue
				}
				x = &BinaryExpr{Op: op, L: x.R, R: x.L}
				v = v2
			}
			switch x.Op {
			case "=":
				ids := ix.lookupEqLocked(v)
				// Concatenation instead of fmt.Sprintf: this is the hot
				// equality path and Sprintf's reflection is measurable there.
				consider(candidate{rank: 0, desc: "IndexScan(" + t.name + "." + ix.column + " = " + v.String() + ", " + ix.kind.String() + ")", ids: ids})
			case "<", "<=":
				if ix.kind == OrderedIndex {
					ids := ix.order.lookupRange(Null, v, false, x.Op == "<")
					consider(candidate{rank: 2, desc: fmt.Sprintf("IndexRange(%s.%s %s %s)", t.name, ix.column, x.Op, v), ids: ids})
				}
			case ">", ">=":
				if ix.kind == OrderedIndex {
					ids := ix.order.lookupRange(v, Null, x.Op == ">", false)
					consider(candidate{rank: 2, desc: fmt.Sprintf("IndexRange(%s.%s %s %s)", t.name, ix.column, x.Op, v), ids: ids})
				}
			}
		case *InExpr:
			if x.Not {
				continue
			}
			ix := colFor(x.E)
			if ix == nil {
				continue
			}
			var ids []int
			ok := true
			for _, item := range x.List {
				v, o := constVal(item)
				if !o || !serves(ix, v) {
					ok = false
					break
				}
				ids = append(ids, ix.lookupEqLocked(v)...)
			}
			if ok {
				consider(candidate{rank: 1, desc: fmt.Sprintf("IndexScan(%s.%s IN [%d values], %s)", t.name, ix.column, len(x.List), ix.kind), ids: dedupInts(ids)})
			}
		}
	}
	if best == nil {
		return accessPath{desc: "SeqScan(" + t.name + ")", all: true}
	}
	return accessPath{desc: best.desc, ids: best.ids}
}

// The reference plans by id lists copied out of the index, as the engine once
// did: these lookups have no other caller.

// lookupEqLocked requires t.mu held (read).
func (ix *indexDef) lookupEqLocked(v Value) []int {
	if ix.kind == HashIndex {
		return append([]int(nil), ix.hash[v.Key()]...)
	}
	return ix.order.lookupEq(v)
}

// lookupEq returns rowids whose value equals v. Both ends of the run are
// found by binary search and the ids are copied into one right-sized slice —
// no per-entry Compare calls or append growth along the way.
func (ix *orderedIndex) lookupEq(v Value) []int {
	lo := sort.Search(len(ix.entries), func(i int) bool {
		return Compare(ix.entries[i].v, v) >= 0
	})
	hi := sort.Search(len(ix.entries), func(i int) bool {
		return Compare(ix.entries[i].v, v) > 0
	})
	return ix.copyIDs(lo, hi)
}

// lookupRange returns rowids with lo <= value <= hi; either bound may be
// Null meaning unbounded, and loOpen/hiOpen make the bound exclusive. Both
// bounds are binary-searched, then the id range is copied in one pass.
func (ix *orderedIndex) lookupRange(lo, hi Value, loOpen, hiOpen bool) []int {
	start := 0
	if !lo.IsNull() {
		start = sort.Search(len(ix.entries), func(i int) bool {
			c := Compare(ix.entries[i].v, lo)
			if loOpen {
				return c > 0
			}
			return c >= 0
		})
	}
	end := len(ix.entries)
	if !hi.IsNull() {
		end = sort.Search(len(ix.entries), func(i int) bool {
			c := Compare(ix.entries[i].v, hi)
			if hiOpen {
				return c >= 0
			}
			return c > 0
		})
	}
	return ix.copyIDs(start, end)
}

// copyIDs extracts the ids of entries[start:end) into a right-sized slice,
// or nil for an empty range.
func (ix *orderedIndex) copyIDs(start, end int) []int {
	if start >= end {
		return nil
	}
	out := make([]int, end-start)
	for i := range out {
		out[i] = ix.entries[start+i].id
	}
	return out
}

// execInsertInterp evaluates row expressions (literals and parameters only) and
// appends them, honoring an optional explicit column list.
func (db *DB) execInsertInterp(ins *InsertStmt, params []Value) (*Result, error) {
	t, err := db.table(ins.Table)
	if err != nil {
		return nil, err
	}
	n := 0
	e := &env{}
	for _, exprRow := range ins.Rows {
		row := make(Row, len(t.schema.Columns))
		for i := range row {
			row[i] = Null
		}
		if len(ins.Columns) > 0 {
			if len(exprRow) != len(ins.Columns) {
				return nil, fmt.Errorf("%w: %d values for %d columns", ErrArity, len(exprRow), len(ins.Columns))
			}
			for i, cn := range ins.Columns {
				ci := t.schema.ColIndex(cn)
				if ci < 0 {
					return nil, fmt.Errorf("%w: %s.%s", ErrColumnUnknown, ins.Table, cn)
				}
				v, err := eval(e, exprRow[i], params)
				if err != nil {
					return nil, err
				}
				row[ci] = v
			}
		} else {
			if len(exprRow) != len(t.schema.Columns) {
				return nil, fmt.Errorf("%w: %d values for %d columns", ErrArity, len(exprRow), len(t.schema.Columns))
			}
			for i, ex := range exprRow {
				v, err := eval(e, ex, params)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
		}
		if err := t.insert(row); err != nil {
			return nil, err
		}
		n++
	}
	return affected(n), nil
}

// execUpdateInterp replaces matching rows with updated copies, maintaining
// indexes, evaluating the WHERE predicate and SET expressions through the
// interpreted evaluator. The compiled path (dml.go) mirrors this loop with
// offset-resolved closures; this version is its semantic oracle.
func (db *DB) execUpdateInterp(up *UpdateStmt, params []Value) (*Result, error) {
	t, err := db.table(up.Table)
	if err != nil {
		return nil, err
	}
	// Resolve SET targets first.
	type setTarget struct {
		col  int
		expr Expr
	}
	targets := make([]setTarget, 0, len(up.Set))
	for _, sc := range up.Set {
		ci := t.schema.ColIndex(sc.Column)
		if ci < 0 {
			return nil, fmt.Errorf("%w: %s.%s", ErrColumnUnknown, up.Table, sc.Column)
		}
		targets = append(targets, setTarget{col: ci, expr: sc.Value})
	}
	e := &env{cols: tableLayout(t)}

	t.mu.Lock()
	defer t.mu.Unlock()
	t.dataVer++
	n := 0
	for id := range t.rows {
		if !t.live[id] {
			continue
		}
		e.row = t.rows[id]
		if up.Where != nil {
			v, err := eval(e, up.Where, params)
			if err != nil {
				return nil, err
			}
			if !truthy(v) {
				continue
			}
		}
		// Stored rows are immutable (readers hold them past the lock): install
		// a copy and apply the SET targets to it, each seeing the ones before.
		row := CloneRow(e.row)
		t.rows[id] = row
		e.row = row
		for _, tg := range targets {
			nv, err := eval(e, tg.expr, params)
			if err != nil {
				return nil, err
			}
			cv, err := coerce(nv, t.schema.Columns[tg.col].Type)
			if err != nil {
				return nil, fmt.Errorf("column %q: %w", t.schema.Columns[tg.col].Name, err)
			}
			old := row[tg.col]
			for _, ix := range t.indexes {
				if ix.col == tg.col {
					ix.remove(id, old)
					ix.add(id, cv)
				}
			}
			row[tg.col] = cv
		}
		n++
	}
	return affected(n), nil
}

// execDeleteInterp tombstones matching rows and removes them from indexes,
// evaluating WHERE through the interpreted evaluator.
func (db *DB) execDeleteInterp(del *DeleteStmt, params []Value) (*Result, error) {
	t, err := db.table(del.Table)
	if err != nil {
		return nil, err
	}
	e := &env{cols: tableLayout(t)}

	t.mu.Lock()
	defer t.mu.Unlock()
	t.dataVer++
	n := 0
	for id := range t.rows {
		if !t.live[id] {
			continue
		}
		e.row = t.rows[id]
		if del.Where != nil {
			v, err := eval(e, del.Where, params)
			if err != nil {
				return nil, err
			}
			if !truthy(v) {
				continue
			}
		}
		t.live[id] = false
		t.liveCnt--
		for _, ix := range t.indexes {
			ix.remove(id, t.rows[id][ix.col])
		}
		n++
	}
	return affected(n), nil
}
