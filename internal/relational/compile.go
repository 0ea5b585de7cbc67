package relational

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"blueprint/internal/topk"
)

// This file implements the prepare-time compiler and the executor of
// SELECT/UPDATE/DELETE (INSERT's program is in dml.go). It is the only
// executor the engine ships.
//
// compileStmt does the per-statement work exactly once per (statement,
// schema) pair: each ColumnRef is resolved to a positional offset and the
// expression tree is lowered into a closure of type compiledExpr, so per-row
// evaluation touches no strings and no type switches. Compiled plans are
// cached on *Stmt handles and in the statement cache (see planSlot) and
// invalidated per table by a schema version counter bumped on CREATE/DROP
// TABLE.
//
// What a statement reports is defined by the reference interpreter, which
// lives in interp_test.go and is compiled into tests only: it runs a
// statement phase by phase (filter every row, then project or aggregate, then
// DISTINCT, ORDER BY, OFFSET/LIMIT), resolving column references per row. The
// program fuses those phases but reports the same rows and the same error:
// a reference that does not resolve compiles to a node raising the resolve
// error when evaluation reaches it (none over zero rows), errors of later
// phases wait until the filter has seen every row, and the checks the
// interpreter makes between phases (`SELECT *` with aggregates, an aggregate
// ORDER BY on a non-output key, the DISTINCT/ORDER BY row-count check) are
// nodes of the program's tail. Only what the interpreter reports before it
// reads a row — a missing table, an unknown join column or UPDATE target — is
// an error of the build itself. The differential tests and FuzzSQLDifferential
// (differential_test.go) hold the two together.

// compiledExpr evaluates one scalar expression against a row with all column
// references pre-resolved to positional offsets.
type compiledExpr func(row Row, params []Value) (Value, error)

// compiledAggExpr evaluates an expression that may contain aggregates over
// one group, reading the accumulators folded while its rows were scanned.
type compiledAggExpr func(g *aggGroup, params []Value) (Value, error)

// errStalePlan signals that a compiled plan no longer matches the live
// schema (DDL raced the execution); execCompiled recompiles and retries.
var errStalePlan = errors.New("relational: stale compiled plan")

// tableDep records the schema version of one referenced table at compile
// time. Versions bump on CREATE/DROP TABLE, so a dependency mismatch means
// the table was dropped or recreated and every resolved offset is suspect.
type tableDep struct {
	table string // lowercased storage key
	ver   uint64
}

// compiledStmt is one compilation of a statement against the schema versions
// in deps: the program of its kind, or err — what the build reported (a
// missing table, an unknown join column or UPDATE target), which is the
// statement's error for as long as deps hold.
type compiledStmt struct {
	deps []tableDep
	sel  *selectProgram
	ins  *insertProgram
	upd  *updateProgram
	del  *deleteProgram
	err  error
}

// planSlot holds the current compilation of one statement. A slot is shared
// between a prepared *Stmt handle and the statement-cache entry for the same
// SQL text, so Query/Exec traffic and prepared handles reuse one compiled
// plan. Swaps are atomic: concurrent executors either see the old (still
// version-checked) plan or the new one. mu serialises compiling: executions
// that find the slot empty or stale together compile once.
type planSlot struct {
	p  atomic.Pointer[compiledStmt]
	mu sync.Mutex
}

// depsValid reports whether every table version recorded at compile time is
// still current.
func (db *DB) depsValid(deps []tableDep) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, d := range deps {
		if db.vers[d.table] != d.ver {
			return false
		}
	}
	return true
}

// captureDeps snapshots the schema versions of the given (lowercased) tables.
func (db *DB) captureDeps(tables []string) []tableDep {
	db.mu.RLock()
	defer db.mu.RUnlock()
	deps := make([]tableDep, len(tables))
	for i, t := range tables {
		deps[i] = tableDep{table: t, ver: db.vers[t]}
	}
	return deps
}

// tableVer returns the live table and its current schema version.
func (db *DB) tableVer(name string) (*table, uint64, error) {
	key := strings.ToLower(name)
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[key]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrTableNotFound, name)
	}
	return t, db.vers[key], nil
}

// current returns the slot's compilation if it still matches the schema.
func (db *DB) current(slot *planSlot) *compiledStmt {
	if cs := slot.p.Load(); cs != nil && db.depsValid(cs.deps) {
		return cs
	}
	return nil
}

// planFor returns the slot's current compilation, compiling when it is absent
// or stale. Only that slow path takes the slot's mutex.
func (db *DB) planFor(st Statement, slot *planSlot) *compiledStmt {
	if cs := db.current(slot); cs != nil {
		return cs
	}
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if cs := db.current(slot); cs != nil {
		return cs
	}
	cs := db.compileStmt(st)
	slot.p.Store(cs)
	return cs
}

// compileStmt compiles st against the current schema.
func (db *DB) compileStmt(st Statement) *compiledStmt {
	db.compiles.Add(1)
	cs := &compiledStmt{deps: db.captureDeps(stmtTables(st))}
	switch s := st.(type) {
	case *SelectStmt:
		cs.sel, cs.err = db.buildSelectProgram(s)
	case *InsertStmt:
		cs.ins, cs.err = db.buildInsertProgram(s)
	case *UpdateStmt:
		cs.upd, cs.err = db.buildUpdateProgram(s)
	case *DeleteStmt:
		cs.del, cs.err = db.buildDeleteProgram(s)
	default:
		cs.err = errors.New("relational: unsupported statement")
	}
	return cs
}

// execCompiled runs st's program from the slot. A program that finds the
// schema changed since it was compiled reports errStalePlan, and the loop
// compiles again: the deps were read before the versions the program checks,
// so they are stale too, and every turn means a concurrent DDL completed.
func (db *DB) execCompiled(st Statement, slot *planSlot, params []Value) (*Result, error) {
	for {
		cs := db.planFor(st, slot)
		var res *Result
		err := cs.err
		switch {
		case err != nil:
		case cs.sel != nil:
			res, err = db.runSelectProgram(cs.sel, params)
		case cs.ins != nil:
			res, err = db.runInsertProgram(cs.ins, params)
		case cs.upd != nil:
			res, err = db.runUpdateProgram(cs.upd, params)
		case cs.del != nil:
			res, err = db.runDeleteProgram(cs.del, params)
		}
		if err != errStalePlan {
			return res, err
		}
	}
}

// ---- expression compilation ----

// envCol is one column of a row layout: a base table's columns, then each
// joined table's.
type envCol struct {
	table string // effective table name (alias), lowercased
	name  string // column name, lowercased
}

// resolveCol resolves a column reference against an ordered column layout —
// the single resolution routine shared by the compiler (once per statement)
// and the reference interpreter (per row).
func resolveCol(cols []envCol, c *ColumnRef) (int, error) {
	tbl := strings.ToLower(c.Table)
	col := strings.ToLower(c.Column)
	found := -1
	for i, ec := range cols {
		if ec.name != col {
			continue
		}
		if tbl != "" && ec.table != tbl {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("relational: ambiguous column %q", c.String())
		}
		found = i
	}
	if found < 0 {
		return -1, fmt.Errorf("%w: %s", ErrColumnUnknown, c.String())
	}
	return found, nil
}

// exprCompiler lowers the expressions of one statement over a column layout
// and records what could make them raise when evaluated: the executor may
// skip rows (a LIMIT satisfied, an index's candidates) only in an execution
// where no expression can raise, because the interpreter, which evaluates
// every row, would have reported it.
type exprCompiler struct {
	cols []envCol
	// raises: some node raises whenever evaluation reaches it (a reference
	// that does not resolve, an aggregate outside aggregation context).
	raises bool
	// explicit holds the unified ordinals of the '?' placeholders, each of
	// which raises when the caller left it unbound.
	explicit []int
}

// canRaise reports whether evaluating the statement's expressions under
// these parameters can raise at all.
func (c *exprCompiler) canRaise(params []Value) bool {
	if c.raises {
		return true
	}
	for _, ord := range c.explicit {
		if unbound(params, ord) {
			return true
		}
	}
	return false
}

// unbound reports whether the parameter slot with this unified ordinal has no
// value in this execution.
func unbound(params []Value, ord int) bool {
	return ord-1 >= len(params) || params[ord-1].T == missingParamType
}

// raise lowers a node that cannot be evaluated into one that reports err
// when evaluation reaches it, as the interpreter does: never over zero rows,
// and not behind an AND/OR that short-circuits past it.
func (c *exprCompiler) raise(err error) compiledExpr {
	c.raises = true
	return func(Row, []Value) (Value, error) { return Null, err }
}

// expr lowers a scalar expression into a closure over the layout.
func (c *exprCompiler) expr(x Expr) compiledExpr {
	switch v := x.(type) {
	case *Literal:
		val := v.Val
		return func(Row, []Value) (Value, error) { return val, nil }
	case *Param:
		ord := v.Ordinal
		disp := paramSrc(v)
		if !v.Auto {
			c.explicit = append(c.explicit, ord)
		}
		return func(_ Row, params []Value) (Value, error) {
			if unbound(params, ord) {
				return Null, fmt.Errorf("relational: missing parameter %d", disp)
			}
			return params[ord-1], nil
		}
	case *ColumnRef:
		i, err := resolveCol(c.cols, v)
		if err != nil {
			return c.raise(err)
		}
		return func(row Row, _ []Value) (Value, error) { return row[i], nil }
	case *BinaryExpr:
		return c.binary(v)
	case *UnaryExpr:
		inner := c.expr(v.E)
		return func(row Row, params []Value) (Value, error) {
			val, err := inner(row, params)
			if err != nil {
				return Null, err
			}
			return NewBool(!truthy(val)), nil
		}
	case *InExpr:
		e := c.expr(v.E)
		items := make([]compiledExpr, len(v.List))
		for i, item := range v.List {
			items[i] = c.expr(item)
		}
		not := v.Not
		return func(row Row, params []Value) (Value, error) {
			val, err := e(row, params)
			if err != nil {
				return Null, err
			}
			hit := false
			for _, item := range items {
				iv, err := item(row, params)
				if err != nil {
					return Null, err
				}
				if Equal(val, iv) {
					hit = true
					break
				}
			}
			return NewBool(hit != not), nil
		}
	case *BetweenExpr:
		e, lo, hi := c.expr(v.E), c.expr(v.Lo), c.expr(v.Hi)
		not := v.Not
		return func(row Row, params []Value) (Value, error) {
			val, err := e(row, params)
			if err != nil {
				return Null, err
			}
			loV, err := lo(row, params)
			if err != nil {
				return Null, err
			}
			hiV, err := hi(row, params)
			if err != nil {
				return Null, err
			}
			in := !val.IsNull() && !loV.IsNull() && !hiV.IsNull() &&
				Compare(val, loV) >= 0 && Compare(val, hiV) <= 0
			return NewBool(in != not), nil
		}
	case *IsNullExpr:
		e := c.expr(v.E)
		not := v.Not
		return func(row Row, params []Value) (Value, error) {
			val, err := e(row, params)
			if err != nil {
				return Null, err
			}
			return NewBool(val.IsNull() != not), nil
		}
	case *AggExpr:
		return c.raise(errors.New("relational: aggregate outside aggregation context"))
	default:
		return c.raise(errors.New("relational: unsupported expression"))
	}
}

// conjuncts compiles the conjunct list of a left-deep AND chain in source
// order.
func (c *exprCompiler) conjuncts(v *BinaryExpr) []compiledExpr {
	var out []compiledExpr
	if lb, ok := v.L.(*BinaryExpr); ok && lb.Op == "AND" {
		out = c.conjuncts(lb)
	} else {
		out = append(out, c.expr(v.L))
	}
	return append(out, c.expr(v.R))
}

func (c *exprCompiler) binary(v *BinaryExpr) compiledExpr {
	if v.Op == "AND" {
		// Conjunct chains (the normal WHERE form) flatten into one closure
		// that loops a list, instead of one nested frame per AND node.
		conjuncts := c.conjuncts(v)
		return func(row Row, params []Value) (Value, error) {
			for _, cj := range conjuncts {
				v, err := cj(row, params)
				if err != nil {
					return Null, err
				}
				if !truthy(v) {
					return NewBool(false), nil
				}
			}
			return NewBool(true), nil
		}
	}
	l, r := c.expr(v.L), c.expr(v.R)
	// Comparisons dispatch on the operator once at compile time instead of
	// re-switching on the op string for every row.
	switch v.Op {
	case "OR":
		return func(row Row, params []Value) (Value, error) {
			lv, err := l(row, params)
			if err != nil {
				return Null, err
			}
			if truthy(lv) {
				return NewBool(true), nil
			}
			rv, err := r(row, params)
			if err != nil {
				return Null, err
			}
			return NewBool(truthy(rv)), nil
		}
	case "=":
		return func(row Row, params []Value) (Value, error) {
			lv, err := l(row, params)
			if err != nil {
				return Null, err
			}
			rv, err := r(row, params)
			if err != nil {
				return Null, err
			}
			return NewBool(Equal(lv, rv)), nil
		}
	case "!=":
		return func(row Row, params []Value) (Value, error) {
			lv, err := l(row, params)
			if err != nil {
				return Null, err
			}
			rv, err := r(row, params)
			if err != nil {
				return Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return NewBool(false), nil
			}
			return NewBool(Compare(lv, rv) != 0), nil
		}
	case "<", "<=", ">", ">=":
		var test func(c int) bool
		switch v.Op {
		case "<":
			test = func(c int) bool { return c < 0 }
		case "<=":
			test = func(c int) bool { return c <= 0 }
		case ">":
			test = func(c int) bool { return c > 0 }
		default:
			test = func(c int) bool { return c >= 0 }
		}
		return func(row Row, params []Value) (Value, error) {
			lv, err := l(row, params)
			if err != nil {
				return Null, err
			}
			rv, err := r(row, params)
			if err != nil {
				return Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return NewBool(false), nil
			}
			return NewBool(test(Compare(lv, rv))), nil
		}
	}
	op := v.Op
	return func(row Row, params []Value) (Value, error) {
		lv, err := l(row, params)
		if err != nil {
			return Null, err
		}
		rv, err := r(row, params)
		if err != nil {
			return Null, err
		}
		return compareValues(op, lv, rv)
	}
}

// compareValues applies a non-logical binary operator to two evaluated
// values — the shared tail of the compiled closures and the reference
// interpreter's evalBinary.
func compareValues(op string, l, r Value) (Value, error) {
	switch op {
	case "=":
		return NewBool(Equal(l, r)), nil
	case "!=":
		if l.IsNull() || r.IsNull() {
			return NewBool(false), nil
		}
		return NewBool(Compare(l, r) != 0), nil
	case "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return NewBool(false), nil
		}
		c := Compare(l, r)
		switch op {
		case "<":
			return NewBool(c < 0), nil
		case "<=":
			return NewBool(c <= 0), nil
		case ">":
			return NewBool(c > 0), nil
		default:
			return NewBool(c >= 0), nil
		}
	case "LIKE":
		if l.IsNull() || r.IsNull() {
			return NewBool(false), nil
		}
		return NewBool(likeMatch(l.String(), r.String())), nil
	default:
		return Null, fmt.Errorf("relational: unknown operator %q", op)
	}
}

// applyBinaryValues applies any binary operator to two already-evaluated
// values. Matches the interpreter's aggregate-context behaviour, where both
// sides are computed before combining (no short-circuit).
func applyBinaryValues(op string, l, r Value) (Value, error) {
	switch op {
	case "AND":
		if !truthy(l) {
			return NewBool(false), nil
		}
		return NewBool(truthy(r)), nil
	case "OR":
		if truthy(l) {
			return NewBool(true), nil
		}
		return NewBool(truthy(r)), nil
	}
	return compareValues(op, l, r)
}

// aggFn is the fold an accumulator slot runs.
type aggFn int

const (
	aggCount aggFn = iota
	aggSum
	aggAvg
	aggMin
	aggMax
)

// aggSlot is one aggregate call of the select items or HAVING, lowered at
// compile time: every group of an execution carries one accumulator per
// slot, folded as the group's rows are scanned.
type aggSlot struct {
	fn       aggFn
	name     string // SQL name, for SUM/AVG's error text
	distinct bool
	arg      compiledExpr
}

// accumulator is the running state of one aggregate call over one group.
// The zero value is the state over zero rows.
type accumulator struct {
	n      int     // values folded: non-NULL, first occurrence under DISTINCT
	sum    float64 // SUM/AVG
	nonInt bool    // SUM saw a value that is not an INT
	best   Value   // MIN/MAX
	seen   map[string]struct{}
	// err is the first evaluation error of the argument: the accumulator
	// stopped there. nonNumeric marks a SUM/AVG that met a non-numeric value:
	// the interpreter type-checks only after it has evaluated every row, so
	// the fold keeps evaluating (for an evaluation error, which outranks it)
	// and stops adding.
	err        error
	nonNumeric bool
}

// fold adds one row of the group to acc. scratch is the execution's shared
// DISTINCT key buffer.
func (s *aggSlot) fold(acc *accumulator, row Row, params []Value, scratch *[]byte) {
	if acc.err != nil {
		return
	}
	v, err := s.arg(row, params)
	if err != nil {
		acc.err = err
		return
	}
	if v.IsNull() {
		return
	}
	switch s.fn {
	case aggMin, aggMax:
		// DISTINCT cannot change a min or max; skip the dedup work.
		if acc.n == 0 {
			acc.best = v
		} else if c := Compare(v, acc.best); (s.fn == aggMin && c < 0) || (s.fn == aggMax && c > 0) {
			acc.best = v
		}
		acc.n++
		return
	}
	if s.distinct {
		*scratch = appendValueKey((*scratch)[:0], v)
		if _, dup := acc.seen[string(*scratch)]; dup {
			return
		}
		if acc.seen == nil {
			acc.seen = make(map[string]struct{})
		}
		acc.seen[string(*scratch)] = struct{}{}
	}
	if s.fn == aggCount {
		acc.n++
		return
	}
	if acc.nonNumeric {
		return
	}
	f, ok := v.numeric()
	if !ok {
		acc.nonNumeric = true
		return
	}
	if v.T != TInt {
		acc.nonInt = true
	}
	acc.sum += f
	acc.n++
}

// result is the aggregate's value over the rows folded so far, or the error
// the interpreter would have raised computing it.
func (s *aggSlot) result(acc *accumulator) (Value, error) {
	if acc.err != nil {
		return Null, acc.err
	}
	if acc.nonNumeric {
		return Null, fmt.Errorf("relational: %s over non-numeric value", s.name)
	}
	switch s.fn {
	case aggCount:
		return NewInt(int64(acc.n)), nil
	case aggMin, aggMax:
		return acc.best, nil // Null over no values
	}
	if acc.n == 0 {
		return Null, nil
	}
	if s.fn == aggAvg {
		return NewFloat(acc.sum / float64(acc.n)), nil
	}
	if acc.nonInt {
		return NewFloat(acc.sum), nil
	}
	return NewInt(int64(acc.sum)), nil
}

// aggGroup is one group of an aggregated SELECT while it is scanned: its
// first row (non-aggregate subtrees evaluate on it), its row count (which is
// COUNT(*)) and one accumulator per aggSlot of the program.
type aggGroup struct {
	first Row
	n     int
	accs  []accumulator
}

func (p *selectProgram) newAggGroup() *aggGroup {
	return &aggGroup{accs: make([]accumulator, len(p.aggSlots))}
}

// onFirst lowers a non-aggregate expression for use in aggregation context:
// evaluated on the group's first row, Null over an empty group.
func (c *exprCompiler) onFirst(x Expr) compiledAggExpr {
	f := c.expr(x)
	return func(g *aggGroup, params []Value) (Value, error) {
		if g.n == 0 {
			return Null, nil
		}
		return f(g.first, params)
	}
}

// aggExpr lowers an expression that may contain aggregates, mirroring the
// interpreter's evalAgg: each aggregate call gets an accumulator slot
// (appended to slots) and reads its result, non-aggregate subtrees evaluate
// on the first row.
func (c *exprCompiler) aggExpr(x Expr, slots *[]aggSlot) compiledAggExpr {
	switch v := x.(type) {
	case *AggExpr:
		return c.agg(v, slots)
	case *BinaryExpr:
		if !hasAggregate(v) {
			return c.onFirst(v)
		}
		l, r := c.aggExpr(v.L, slots), c.aggExpr(v.R, slots)
		op := v.Op
		return func(g *aggGroup, params []Value) (Value, error) {
			lv, err := l(g, params)
			if err != nil {
				return Null, err
			}
			rv, err := r(g, params)
			if err != nil {
				return Null, err
			}
			return applyBinaryValues(op, lv, rv)
		}
	case *UnaryExpr:
		inner := c.aggExpr(v.E, slots)
		return func(g *aggGroup, params []Value) (Value, error) {
			val, err := inner(g, params)
			if err != nil {
				return Null, err
			}
			return NewBool(!truthy(val)), nil
		}
	default:
		return c.onFirst(x)
	}
}

// agg lowers one aggregate call: COUNT(*) is the group's row count, anything
// else takes the next accumulator slot and reads its result.
func (c *exprCompiler) agg(a *AggExpr, slots *[]aggSlot) compiledAggExpr {
	if a.Star {
		return func(g *aggGroup, _ []Value) (Value, error) {
			return NewInt(int64(g.n)), nil
		}
	}
	slot := aggSlot{name: a.Fn, distinct: a.Distinct, arg: c.expr(a.Arg)}
	switch a.Fn {
	case "COUNT":
		slot.fn = aggCount
	case "SUM":
		slot.fn = aggSum
	case "AVG":
		slot.fn = aggAvg
	case "MIN":
		slot.fn = aggMin
	case "MAX":
		slot.fn = aggMax
	default:
		return func(*aggGroup, []Value) (Value, error) {
			return Null, fmt.Errorf("relational: unknown aggregate %q", slot.name)
		}
	}
	i := len(*slots)
	*slots = append(*slots, slot)
	return func(g *aggGroup, _ []Value) (Value, error) {
		return slot.result(&g.accs[i])
	}
}

// ---- SELECT compilation ----

type selectProgram struct {
	sel       *SelectStmt
	baseTable string // lowercased storage key
	baseVer   uint64
	baseWidth int // base table column count (row width before joins)
	// exprs compiled every expression of the statement over the joined layout.
	exprs     exprCompiler
	joins     []joinProgram
	where     compiledExpr
	whereDesc string
	// whereAuto marks WHERE trees containing auto-extracted literal params:
	// their Filter(...) plan line depends on the bound values (rendered per
	// execution by filterDesc so a shape-cached plan prints the literals of
	// the text that ran).
	whereAuto bool
	// access holds the precompiled sargable-predicate candidates extracted
	// from the WHERE conjuncts. Index existence and kind are resolved per
	// execution (planAccessCompiled), so a CREATE INDEX is picked up without
	// recompiling and a shape-shared plan chooses its access path from the
	// literals bound to this execution.
	access []accessCand

	columns  []string
	outWidth int

	aggregated bool
	items      []itemProgram // non-aggregated projection
	// starOnly marks an item list that is a lone `*`: the projection of a row
	// is the row itself, so the result aliases stored (or joined) rows.
	starOnly bool
	aggItems []compiledAggExpr
	aggSlots []aggSlot // accumulator slots of aggItems and having, in that order
	groupBy  []int
	having   compiledAggExpr
	aggDesc  string // "GroupBy(n keys)" or "Aggregate"
	// aggErr is what the interpreter reports as it starts aggregating, once
	// the filter has seen every row: `SELECT *` beside aggregates, or — only
	// if a row passed the filter (aggErrLazy) — a GROUP BY key that does not
	// resolve. Items and HAVING are not compiled then.
	aggErr     error
	aggErrLazy bool

	orderBy  []orderProgram
	sortDesc string
	// orderErr is the interpreter's refusal of an aggregate ORDER BY key that
	// is not an output column, raised where it sorts: after every group was
	// computed, even when there is none.
	orderErr error
	// orderOnInput: some ORDER BY key of a non-aggregated SELECT is evaluated
	// on the input row. Under DISTINCT the interpreter then demands as many
	// output rows as input rows, that is, that DISTINCT dropped nothing.
	orderOnInput bool
}

var errOrderRowCount = errors.New("relational: internal: row count mismatch in ORDER BY")

type joinProgram struct {
	table string // lowercased storage key
	ver   uint64
	lIdx  int // offset in the accumulated left layout
	rIdx  int // offset within the joined table's rows
	width int // joined table column count
	left  bool
	desc  string
}

type itemProgram struct {
	star bool
	f    compiledExpr
}

type orderProgram struct {
	outIdx int          // >= 0: sort key is this output column
	f      compiledExpr // else: evaluated against the input row
	desc   bool
}

func itemName(it SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if c, ok := it.Expr.(*ColumnRef); ok {
		return c.Column
	}
	return exprString(it.Expr)
}

func distinctRows(rows []Row) []Row {
	seen := make(map[string]struct{}, len(rows))
	out := rows[:0:0]
	var scratch []byte
	for _, r := range rows {
		scratch = appendRowKey(scratch[:0], r)
		if _, dup := seen[string(scratch)]; dup {
			continue
		}
		seen[string(scratch)] = struct{}{}
		out = append(out, r)
	}
	return out
}

func outColumnIndex(columns []string, name string) int {
	for i, c := range columns {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// buildSelectProgram compiles sel. Its errors are the ones the interpreter
// reports before it reads a row, in its order: the base table, then join by
// join the joined table and the two sides of ON.
func (db *DB) buildSelectProgram(sel *SelectStmt) (*selectProgram, error) {
	base, baseVer, err := db.tableVer(sel.From.Table)
	if err != nil {
		return nil, err
	}
	p := &selectProgram{
		sel:       sel,
		baseTable: strings.ToLower(sel.From.Table),
		baseVer:   baseVer,
		baseWidth: len(base.schema.Columns),
	}
	cols := tableLayout(base, sel.From.Name())
	pretty := append([]string(nil), base.schema.Names()...)

	for _, j := range sel.Joins {
		jt, jVer, err := db.tableVer(j.Table.Table)
		if err != nil {
			return nil, err
		}
		jCols := tableLayout(jt, j.Table.Name())
		// Determine which side of ON belongs to the joined table.
		leftRef, rightRef := j.LCol, j.RCol
		if _, err := resolveCol(jCols, &rightRef); err != nil {
			leftRef, rightRef = rightRef, leftRef
			if _, err := resolveCol(jCols, &rightRef); err != nil {
				return nil, fmt.Errorf("relational: join condition references no column of %s", j.Table.Name())
			}
		}
		rIdx, err := resolveCol(jCols, &rightRef)
		if err != nil {
			return nil, err
		}
		lIdx, err := resolveCol(cols, &leftRef)
		if err != nil {
			return nil, err
		}
		kind := "HashJoin"
		if j.Left {
			kind = "LeftHashJoin"
		}
		p.joins = append(p.joins, joinProgram{
			table: strings.ToLower(j.Table.Table),
			ver:   jVer,
			lIdx:  lIdx,
			rIdx:  rIdx,
			width: len(jt.schema.Columns),
			left:  j.Left,
			desc:  fmt.Sprintf("%s(%s ON %s = %s)", kind, j.Table.Name(), j.LCol.String(), j.RCol.String()),
		})
		cols = append(cols, jCols...)
		pretty = append(pretty, jt.schema.Names()...)
	}
	p.exprs.cols = cols
	c := &p.exprs

	if sel.Where != nil {
		p.where = c.expr(sel.Where)
		p.whereAuto = hasAutoParam(sel.Where)
		p.whereDesc = "Filter(" + exprString(sel.Where) + ")"
	}
	p.access = buildAccessCands(strings.ToLower(sel.From.Name()), sel.Where)

	p.aggregated = len(sel.GroupBy) > 0
	for _, it := range sel.Items {
		if !it.Star && hasAggregate(it.Expr) {
			p.aggregated = true
		}
	}

	if p.aggregated {
		p.buildAggregate()
	} else {
		for _, it := range sel.Items {
			if it.Star {
				p.columns = append(p.columns, pretty...)
				p.items = append(p.items, itemProgram{star: true})
				p.outWidth += len(cols)
				continue
			}
			p.columns = append(p.columns, itemName(it))
			p.items = append(p.items, itemProgram{f: c.expr(it.Expr)})
			p.outWidth++
		}
		p.starOnly = len(sel.Items) == 1 && sel.Items[0].Star
	}

	for _, ob := range sel.OrderBy {
		op := orderProgram{outIdx: -1, desc: ob.Desc}
		if cr, ok := ob.Expr.(*ColumnRef); ok && cr.Table == "" {
			op.outIdx = outColumnIndex(p.columns, cr.Column)
		}
		if op.outIdx < 0 {
			if p.aggregated {
				if p.orderErr == nil {
					p.orderErr = fmt.Errorf("relational: ORDER BY key %q must be an output column in aggregate queries", exprString(ob.Expr))
				}
			} else {
				op.f = c.expr(ob.Expr)
				p.orderOnInput = true
			}
		}
		p.orderBy = append(p.orderBy, op)
	}
	if len(sel.OrderBy) > 0 {
		p.sortDesc = fmt.Sprintf("Sort(%d keys)", len(sel.OrderBy))
	}
	return p, nil
}

// buildAggregate compiles the items, GROUP BY keys and HAVING of an
// aggregated SELECT.
func (p *selectProgram) buildAggregate() {
	sel, c := p.sel, &p.exprs
	if len(sel.GroupBy) > 0 {
		p.aggDesc = fmt.Sprintf("GroupBy(%d keys)", len(sel.GroupBy))
	} else {
		p.aggDesc = "Aggregate"
	}
	for _, it := range sel.Items {
		if it.Star {
			p.aggErr = errors.New("relational: SELECT * cannot be combined with aggregates")
			return
		}
	}
	for _, gc := range sel.GroupBy {
		gcCopy := gc
		i, err := resolveCol(c.cols, &gcCopy)
		if err != nil {
			p.aggErr, p.aggErrLazy = err, true
			break
		}
		p.groupBy = append(p.groupBy, i)
	}
	// The output columns exist whatever happens: an ORDER BY key is matched
	// against them, and a GROUP BY key that does not resolve is no error over
	// zero rows.
	for _, it := range sel.Items {
		p.columns = append(p.columns, itemName(it))
	}
	p.outWidth = len(sel.Items)
	if p.aggErr != nil {
		return
	}
	for _, it := range sel.Items {
		p.aggItems = append(p.aggItems, c.aggExpr(it.Expr, &p.aggSlots))
	}
	if sel.Having != nil {
		p.having = c.aggExpr(sel.Having, &p.aggSlots)
	}
}

// filterDesc returns the Filter(...) plan line for one execution: static
// when the WHERE tree has no auto-extracted literals, else rendered against
// the bound values.
func (p *selectProgram) filterDesc(params []Value) string {
	if !p.whereAuto {
		return p.whereDesc
	}
	var b strings.Builder
	// The static form approximates the rendered length ('?' slots become
	// bound values); one Grow keeps the builder from doubling through the
	// tree walk.
	b.Grow(len(p.whereDesc) + 48)
	b.WriteString("Filter(")
	writeExprDisplay(&b, p.sel.Where, params)
	b.WriteByte(')')
	return b.String()
}

// ---- compiled sargable-predicate extraction ----

// valueGetter resolves one comparison operand at execution time: a captured
// literal, or a parameter slot (explicit or auto-extracted). ok is false
// when the slot is unbound.
type valueGetter func(params []Value) (Value, bool)

type accessCandKind int

const (
	candBinary accessCandKind = iota
	candIn
	candBetween
)

// accessCand is one WHERE conjunct precompiled for access-path planning.
// For binary comparisons both orientations are recorded when syntactically
// eligible ("col op const" forward, "const op col" reversed with the
// operator pre-flipped); which one applies is decided per execution, after
// the index and the bound value are known — exactly the precedence of the
// reference planAccess.
type accessCand struct {
	kind accessCandKind

	fwdCol string // lowercased base-table column, "" if ineligible
	fwdOp  string
	fwdVal valueGetter
	revCol string
	revOp  string
	revVal valueGetter

	col   string        // IN / BETWEEN column
	items []valueGetter // IN list operands
	n     int           // len of the original IN list (for the plan line)
	lo    valueGetter   // BETWEEN bounds
	hi    valueGetter
}

// constGetter compiles a constant-valued operand (literal or parameter);
// nil if the expression is not a planning-time constant.
func constGetter(e Expr) valueGetter {
	switch x := e.(type) {
	case *Literal:
		v := x.Val
		return func([]Value) (Value, bool) { return v, true }
	case *Param:
		ord := x.Ordinal
		return func(params []Value) (Value, bool) {
			if unbound(params, ord) {
				return Null, false
			}
			return params[ord-1], true
		}
	}
	return nil
}

// baseColumn returns the lowercased column name when e references a column
// of the base table (unqualified or qualified by its effective name), else
// "".
func baseColumn(e Expr, baseNameLower string) string {
	cr, ok := e.(*ColumnRef)
	if !ok {
		return ""
	}
	if cr.Table != "" && strings.ToLower(cr.Table) != baseNameLower {
		return ""
	}
	return strings.ToLower(cr.Column)
}

// buildAccessCands extracts the sargable candidates from the WHERE
// conjuncts at compile time. Conjunct order is preserved: the per-execution
// planner considers candidates in the same order as the reference one, so
// its strict tie-break picks the same winner.
func buildAccessCands(baseNameLower string, where Expr) []accessCand {
	if where == nil {
		return nil
	}
	var out []accessCand
	for _, cj := range splitAnd(where) {
		switch x := cj.(type) {
		case *BinaryExpr:
			if _, sarg := flippedOp[x.Op]; !sarg {
				continue
			}
			c := accessCand{kind: candBinary}
			if col := baseColumn(x.L, baseNameLower); col != "" {
				if g := constGetter(x.R); g != nil {
					c.fwdCol, c.fwdOp, c.fwdVal = col, x.Op, g
				}
			}
			if col := baseColumn(x.R, baseNameLower); col != "" {
				if g := constGetter(x.L); g != nil {
					c.revCol, c.revOp, c.revVal = col, flippedOp[x.Op], g
				}
			}
			if c.fwdCol != "" || c.revCol != "" {
				out = append(out, c)
			}
		case *InExpr:
			if x.Not {
				continue
			}
			col := baseColumn(x.E, baseNameLower)
			if col == "" {
				continue
			}
			c := accessCand{kind: candIn, col: col, n: len(x.List)}
			ok := true
			for _, item := range x.List {
				g := constGetter(item)
				if g == nil {
					ok = false
					break
				}
				c.items = append(c.items, g)
			}
			if ok {
				out = append(out, c)
			}
		case *BetweenExpr:
			if x.Not {
				continue
			}
			col := baseColumn(x.E, baseNameLower)
			if col == "" {
				continue
			}
			lo := constGetter(x.Lo)
			hi := constGetter(x.Hi)
			if lo == nil || hi == nil {
				continue
			}
			out = append(out, accessCand{kind: candBetween, col: col, lo: lo, hi: hi})
		}
	}
	return out
}

// planAccessCompiled walks the precompiled candidates against the live index
// set and this execution's bound values, producing the access path (and plan
// line) the reference planner (planAccess, interp_test.go) chooses for the
// equivalent literal text.
func (p *selectProgram) planAccessCompiled(t *table, params []Value) accessPath {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return planAccessLocked(t, p.access, params, p.sel.Explain, false)
}

// planAccessLocked picks the best access path for the precompiled candidates
// under this execution's bound values. The caller holds t.mu (read or write).
// The desc plan line is rendered only when wantDesc (EXPLAIN): ordinary
// queries never pay for it. sameClass is for a caller that must visit exactly
// the rows a scan would match (DML): an index then serves only a value of its
// column's own class — a number for a numeric column, else the column's type —
// because it files values by key and by Compare, and across classes the
// predicate's Equal (3 = '3') finds rows neither does.
func planAccessLocked(t *table, access []accessCand, params []Value, wantDesc, sameClass bool) accessPath {
	if len(access) == 0 || len(t.indexes) == 0 {
		if !wantDesc {
			return accessPath{all: true}
		}
		return accessPath{desc: "SeqScan(" + t.name + ")", all: true}
	}
	// candidate carries what the winner's plan line needs; the desc string is
	// rendered once, for the winning candidate only, at the end — losers must
	// not cost a formatted string per execution.
	type candidate struct {
		rank int
		ids  []int
		ix   *indexDef
		op   string // "=", "<", "<=", ">", ">=", "IN", "BETWEEN"
		v    Value
		hi   Value // BETWEEN upper bound
		n    int   // IN list length
	}
	var (
		best  candidate
		found bool
	)
	consider := func(c candidate) {
		if !found || c.rank < best.rank || (c.rank == best.rank && len(c.ids) < len(best.ids)) {
			best = c
			found = true
		}
	}
	serves := func(ix *indexDef, v Value) bool {
		if !sameClass || v.IsNull() {
			return true
		}
		switch ct := t.schema.Columns[ix.col].Type; ct {
		case TInt, TFloat:
			return v.T == TInt || v.T == TFloat
		default:
			return v.T == ct
		}
	}
	// resolve maps a binary candidate onto the live index set for this
	// execution's bound values: the forward orientation wins when both sides
	// are indexed, matching the reference planner.
	resolve := func(ac *accessCand) (*indexDef, Value, string) {
		if ac.fwdCol != "" {
			if cand := t.indexes[ac.fwdCol]; cand != nil {
				if fv, ok := ac.fwdVal(params); ok && !fv.IsNull() && serves(cand, fv) {
					return cand, fv, ac.fwdOp
				}
			}
		}
		if ac.revCol != "" {
			if cand := t.indexes[ac.revCol]; cand != nil {
				if rv, ok := ac.revVal(params); ok && !rv.IsNull() && serves(cand, rv) {
					return cand, rv, ac.revOp
				}
			}
		}
		return nil, Null, ""
	}
	// Candidates are considered strictly by rank: equality (0), then IN (1),
	// then ranges (2). A lower rank always wins regardless of result size, so
	// once any candidate matched at one tier the cheaper tiers below it are
	// never materialized — a point lookup guarded by a broad sargable range
	// (`id = 7 AND salary < 999999`) must not pay for collecting the range's
	// ids just to discard them.
	for i := range access {
		ac := &access[i]
		if ac.kind != candBinary {
			continue
		}
		if ix, v, op := resolve(ac); ix != nil && op == "=" {
			consider(candidate{rank: 0, ids: ix.lookupEqLocked(v), ix: ix, op: "=", v: v})
		}
	}
	if !found {
		for i := range access {
			ac := &access[i]
			if ac.kind != candIn {
				continue
			}
			ix := t.indexes[ac.col]
			if ix == nil {
				continue
			}
			var ids []int
			ok := true
			for _, g := range ac.items {
				v, o := g(params)
				if !o || !serves(ix, v) {
					ok = false
					break
				}
				ids = append(ids, ix.lookupEqLocked(v)...)
			}
			if ok {
				consider(candidate{rank: 1, ids: dedupInts(ids), ix: ix, op: "IN", n: ac.n})
			}
		}
	}
	if !found {
		for i := range access {
			ac := &access[i]
			switch ac.kind {
			case candBinary:
				ix, v, op := resolve(ac)
				if ix == nil || ix.kind != OrderedIndex {
					continue
				}
				switch op {
				case "<", "<=":
					consider(candidate{rank: 2, ids: ix.order.lookupRange(Null, v, false, op == "<"), ix: ix, op: op, v: v})
				case ">", ">=":
					consider(candidate{rank: 2, ids: ix.order.lookupRange(v, Null, op == ">", false), ix: ix, op: op, v: v})
				}
			case candBetween:
				ix := t.indexes[ac.col]
				if ix == nil || ix.kind != OrderedIndex {
					continue
				}
				lo, ok1 := ac.lo(params)
				hi, ok2 := ac.hi(params)
				if !ok1 || !ok2 || !serves(ix, lo) || !serves(ix, hi) {
					continue
				}
				consider(candidate{rank: 2, ids: ix.order.lookupRange(lo, hi, false, false), ix: ix, op: "BETWEEN", v: lo, hi: hi})
			}
		}
	}
	if !found {
		if !wantDesc {
			return accessPath{all: true}
		}
		return accessPath{desc: "SeqScan(" + t.name + ")", all: true}
	}
	if !wantDesc {
		return accessPath{ids: best.ids}
	}
	var b strings.Builder
	b.Grow(64)
	switch best.op {
	case "=":
		b.WriteString("IndexScan(")
		b.WriteString(t.name)
		b.WriteByte('.')
		b.WriteString(best.ix.column)
		b.WriteString(" = ")
		writeValueDisplay(&b, best.v)
		b.WriteString(", ")
		b.WriteString(best.ix.kind.String())
		b.WriteByte(')')
	case "IN":
		fmt.Fprintf(&b, "IndexScan(%s.%s IN [%d values], %s)", t.name, best.ix.column, best.n, best.ix.kind)
	case "BETWEEN":
		b.WriteString("IndexRange(")
		b.WriteString(t.name)
		b.WriteByte('.')
		b.WriteString(best.ix.column)
		b.WriteString(" BETWEEN ")
		writeValueDisplay(&b, best.v)
		b.WriteString(" AND ")
		writeValueDisplay(&b, best.hi)
		b.WriteByte(')')
	default: // <, <=, >, >=
		b.WriteString("IndexRange(")
		b.WriteString(t.name)
		b.WriteByte('.')
		b.WriteString(best.ix.column)
		b.WriteByte(' ')
		b.WriteString(best.op)
		b.WriteByte(' ')
		writeValueDisplay(&b, best.v)
		b.WriteByte(')')
	}
	return accessPath{desc: b.String(), ids: best.ids}
}

// ---- SELECT execution ----

// rowArena block-allocates fixed-width output rows: one []Value chunk
// serves many rows, so the steady state of a projection or join loop does
// one allocation per chunk instead of one per row. Rows handed out are
// disjoint sub-slices capped at width, so appends never spill into a
// neighbour. release returns the most recently handed-out row (used when
// DISTINCT drops a duplicate).
type rowArena struct {
	buf   []Value
	off   int
	width int
	chunk int // rows per chunk, doubling up to rowArenaMaxChunk
}

const (
	rowArenaMinChunk = 16
	rowArenaMaxChunk = 1024
)

func newRowArena(width int) *rowArena {
	return &rowArena{width: width, chunk: rowArenaMinChunk}
}

func (a *rowArena) next() Row {
	if a.width == 0 {
		return Row{}
	}
	if a.off+a.width > len(a.buf) {
		a.buf = make([]Value, a.chunk*a.width)
		a.off = 0
		if a.chunk < rowArenaMaxChunk {
			a.chunk *= 2
		}
	}
	r := a.buf[a.off : a.off : a.off+a.width]
	a.off += a.width
	return r
}

func (a *rowArena) release() {
	if a.off >= a.width {
		a.off -= a.width
	}
}

// sortCand is one output row with its precomputed ORDER BY keys. seq
// preserves the input sequence for stable ties.
type sortCand struct {
	out  Row
	keys []Value
	seq  int
}

func (p *selectProgram) candLess(a, b *sortCand) bool {
	for ki := range p.orderBy {
		c := Compare(a.keys[ki], b.keys[ki])
		if c == 0 {
			continue
		}
		if p.orderBy[ki].desc {
			return c > 0
		}
		return c < 0
	}
	return a.seq < b.seq
}

// errStopScan is returned by pipeline visitors to terminate a scan early
// (OFFSET+LIMIT satisfied); it never escapes to callers.
var errStopScan = errors.New("relational: stop scan")

// rowIter drives rows through a visitor. The no-join scan iterates the base
// table under its read lock without materializing a snapshot slice — the
// fused scan→filter→project pipeline; joins iterate the materialized join
// output.
type rowIter func(visit func(Row) error) error

func (db *DB) runSelectProgram(p *selectProgram, params []Value) (*Result, error) {
	sel := p.sel
	base, ver, err := db.tableVer(sel.From.Table)
	if err != nil || ver != p.baseVer {
		return nil, errStalePlan
	}

	path := p.planAccessCompiled(base, params)
	var planLines []string
	if sel.Explain {
		planLines = append(make([]string, 0, 8), path.desc)
	}

	var iter rowIter
	if len(p.joins) == 0 {
		// Fused scan: rows stream straight from storage into the filter
		// and projection closures, under the table read lock — no snapshot
		// slice is materialized between scan and the rest of the pipeline.
		iter = func(visit func(Row) error) error {
			base.mu.RLock()
			defer base.mu.RUnlock()
			if path.all {
				for id, r := range base.rows {
					if !base.live[id] {
						continue
					}
					if err := visit(r); err != nil {
						return err
					}
				}
				return nil
			}
			for _, id := range path.ids {
				if id >= 0 && id < len(base.rows) && base.live[id] {
					if err := visit(base.rows[id]); err != nil {
						return err
					}
				}
			}
			return nil
		}
		return db.runSelectTail(p, iter, params, planLines)
	}

	var rows []Row
	if path.all {
		rows = base.snapshotRows()
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

	// Hash joins with binary keys: probes allocate nothing, build keys are
	// materialized once per distinct value, and joined rows come from a
	// block arena instead of one allocation each.
	var scratch []byte
	curWidth := p.baseWidth
	for _, jp := range p.joins {
		jt, jVer, err := db.tableVer(jp.table)
		if err != nil || jVer != jp.ver {
			return nil, errStalePlan
		}
		build := buildJoinHash(jt.snapshotRows(), jp.rIdx)
		joined := make([]Row, 0, len(rows))
		arena := newRowArena(curWidth + jp.width)
		var nullRight Row
		if jp.left {
			nullRight = make(Row, jp.width)
			for i := range nullRight {
				nullRight[i] = Null
			}
		}
		for _, lr := range rows {
			v := lr[jp.lIdx]
			var matches []Row
			if !v.IsNull() {
				scratch = appendValueKey(scratch[:0], v)
				if b := build[string(scratch)]; b != nil {
					matches = b.rows
				}
			}
			if len(matches) == 0 {
				if jp.left {
					nr := arena.next()
					nr = append(nr, lr...)
					nr = append(nr, nullRight...)
					joined = append(joined, nr)
				}
				continue
			}
			for _, rr := range matches {
				nr := arena.next()
				nr = append(nr, lr...)
				nr = append(nr, rr...)
				joined = append(joined, nr)
			}
		}
		rows = joined
		curWidth += jp.width
		if sel.Explain {
			planLines = append(planLines, jp.desc)
		}
	}

	iter = func(visit func(Row) error) error {
		for _, r := range rows {
			if err := visit(r); err != nil {
				return err
			}
		}
		return nil
	}
	return db.runSelectTail(p, iter, params, planLines)
}

// runSelectTail runs the post-scan pipeline (filter, aggregation or
// projection, DISTINCT, ordering, limits) and assembles the plan string.
func (db *DB) runSelectTail(p *selectProgram, iter rowIter, params []Value, planLines []string) (*Result, error) {
	var out *Result
	var err error
	if p.aggregated {
		out, err = db.runAggregate(p, iter, params, &planLines)
	} else {
		out, err = db.runProject(p, iter, params, &planLines)
	}
	if err != nil {
		return nil, err
	}
	if p.sel.Explain {
		out.Plan = strings.Join(planLines, " -> ")
		return &Result{Columns: []string{"plan"}, Rows: []Row{{NewString(out.Plan)}}, Plan: out.Plan}, nil
	}
	return out, nil
}

// runAggregate executes the grouped/aggregated tail of a compiled SELECT:
// fused filter+group with binary bucket keys, every passing row folded into
// its group's accumulators as it is scanned (no row is kept but each group's
// first), then HAVING, DISTINCT, ORDER BY (output columns only) and
// OFFSET/LIMIT with the interpreter's plan-line behaviour.
//
// Errors surface in the interpreter's order although the work is fused: a
// WHERE error at any row ends the scan, so it precedes every aggregate error;
// an accumulator keeps the first error its argument raised (in row order) and
// raises it only when its result is read, which happens group by group, HAVING
// before the items, items left to right — a group HAVING rejects never
// reports what its items met.
func (db *DB) runAggregate(p *selectProgram, iter rowIter, params []Value, planLines *[]string) (*Result, error) {
	sel := p.sel
	var groups []*aggGroup
	var byKey map[string]*aggGroup
	if len(sel.GroupBy) == 0 {
		// The global group exists over empty input too.
		groups = []*aggGroup{p.newAggGroup()}
	} else {
		byKey = make(map[string]*aggGroup)
	}
	var scratch []byte
	passed := false
	err := iter(func(r Row) error {
		if p.where != nil {
			v, err := p.where(r, params)
			if err != nil {
				return err
			}
			if !truthy(v) {
				return nil
			}
		}
		if p.aggErr != nil {
			// Nothing will be aggregated; the scan goes on for the filter's
			// own errors, which come first.
			passed = true
			return nil
		}
		var g *aggGroup
		if byKey == nil {
			g = groups[0]
		} else {
			scratch = scratch[:0]
			for _, gi := range p.groupBy {
				scratch = appendValueKey(scratch, r[gi])
			}
			if g = byKey[string(scratch)]; g == nil {
				g = p.newAggGroup()
				byKey[string(scratch)] = g
				groups = append(groups, g)
			}
		}
		if g.n == 0 {
			g.first = r
		}
		g.n++
		for i := range p.aggSlots {
			p.aggSlots[i].fold(&g.accs[i], r, params, &scratch)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if p.aggErr != nil && (passed || !p.aggErrLazy) {
		return nil, p.aggErr
	}
	if p.where != nil {
		if p.sel.Explain {
			*planLines = append(*planLines, p.filterDesc(params))
		}
	}

	out := &Result{Columns: p.columns}
	for _, g := range groups {
		// A global aggregate over empty input yields one row without
		// consulting HAVING (interpreter behaviour).
		if p.having != nil && g.n > 0 {
			hv, err := p.having(g, params)
			if err != nil {
				return nil, err
			}
			if !truthy(hv) {
				continue
			}
		}
		or := make(Row, 0, p.outWidth)
		for _, f := range p.aggItems {
			v, err := f(g, params)
			if err != nil {
				return nil, err
			}
			or = append(or, v)
		}
		out.Rows = append(out.Rows, or)
	}
	if p.sel.Explain {
		*planLines = append(*planLines, p.aggDesc)
	}

	if sel.Distinct {
		out.Rows = distinctRows(out.Rows)
		if p.sel.Explain {
			*planLines = append(*planLines, "Distinct")
		}
	}

	if p.orderErr != nil {
		return nil, p.orderErr
	}
	if len(p.orderBy) > 0 {
		idx := make([]int, len(out.Rows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			for _, op := range p.orderBy {
				c := Compare(out.Rows[idx[a]][op.outIdx], out.Rows[idx[b]][op.outIdx])
				if c == 0 {
					continue
				}
				if op.desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		sorted := make([]Row, len(out.Rows))
		for i, pos := range idx {
			sorted[i] = out.Rows[pos]
		}
		out.Rows = sorted
		if p.sel.Explain {
			*planLines = append(*planLines, p.sortDesc)
		}
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
		if p.sel.Explain {
			*planLines = append(*planLines, fmt.Sprintf("Limit(%d)", sel.Limit))
		}
	}
	return out, nil
}

// runProject executes the non-aggregated tail: a fused scan→filter→project
// pipeline that streams rows straight into the result, deduplicates DISTINCT
// through binary keys, stops early once OFFSET+LIMIT rows are produced, and
// serves ORDER BY + LIMIT through a bounded top-k heap.
//
// The interpreter filters every row, then projects every row, then evaluates
// the ORDER BY keys key by key, so although the work is fused a WHERE error at
// any row is the statement's error; a projection error (projErr) waits for the
// filter to finish and outranks every ORDER BY error; of those (ordErr) the
// one on the earliest key wins, then the earliest row. And the scan stops
// early only in an execution where nothing it would skip can raise.
func (db *DB) runProject(p *selectProgram, iter rowIter, params []Value, planLines *[]string) (*Result, error) {
	sel := p.sel
	out := &Result{Columns: p.columns}

	// A lone `*` projects a row onto itself: the result shares the stored (or
	// joined) row, which nothing writes again, instead of copying it.
	arena := newRowArena(p.outWidth)
	project := func(r Row) (Row, error) {
		if p.starOnly {
			return r, nil
		}
		or := arena.next()
		for _, it := range p.items {
			if it.star {
				or = append(or, r...)
				continue
			}
			v, err := it.f(r, params)
			if err != nil {
				return nil, err
			}
			or = append(or, v)
		}
		return or, nil
	}

	// unproject hands a dropped DISTINCT duplicate back to the arena — unless
	// the row was never taken from it.
	unproject := func() {
		if !p.starOnly {
			arena.release()
		}
	}

	var seen map[string]struct{}
	var scratch []byte
	if sel.Distinct {
		seen = make(map[string]struct{})
	}
	var projErr error

	if len(p.orderBy) == 0 {
		need := -1
		if sel.Limit >= 0 {
			need = sel.Offset + sel.Limit
		}
		stopEarly := need >= 0 && !p.exprs.canRaise(params)
		sawMore := false
		err := iter(func(r Row) error {
			if p.where != nil {
				v, err := p.where(r, params)
				if err != nil {
					return err
				}
				if !truthy(v) {
					return nil
				}
			}
			if projErr != nil {
				return nil
			}
			full := need >= 0 && len(out.Rows) == need
			if full && seen == nil && stopEarly {
				// Stop before projecting a row nobody asked for.
				sawMore = true
				return errStopScan
			}
			or, err := project(r)
			if err != nil {
				projErr = err
				return nil
			}
			if seen != nil {
				scratch = appendRowKey(scratch[:0], or)
				if _, dup := seen[string(scratch)]; dup {
					unproject()
					return nil
				}
			}
			if full {
				// One more row than asked for. Whether others follow does not
				// change the result; whether they raise does.
				sawMore = true
				if stopEarly {
					return errStopScan
				}
				unproject()
				return nil
			}
			if seen != nil {
				seen[string(scratch)] = struct{}{}
			}
			out.Rows = append(out.Rows, or)
			return nil
		})
		if err != nil && err != errStopScan {
			return nil, err
		}
		if projErr != nil {
			return nil, projErr
		}
		if p.where != nil {
			if p.sel.Explain {
				*planLines = append(*planLines, p.filterDesc(params))
			}
		}
		if sel.Distinct {
			if p.sel.Explain {
				*planLines = append(*planLines, "Distinct")
			}
		}
		if sel.Offset > 0 {
			if sel.Offset >= len(out.Rows) {
				out.Rows = nil
			} else {
				out.Rows = out.Rows[sel.Offset:]
			}
		}
		if sel.Limit >= 0 {
			trimmed := sel.Limit < len(out.Rows)
			if trimmed {
				out.Rows = out.Rows[:sel.Limit]
			}
			if sawMore || trimmed {
				if p.sel.Explain {
					*planLines = append(*planLines, fmt.Sprintf("Limit(%d)", sel.Limit))
				}
			}
		}
		return out, nil
	}

	// ORDER BY: compute sort keys alongside projection in one pass. With a
	// LIMIT, a bounded top-k heap keeps only the OFFSET+LIMIT first rows in
	// sort order instead of materializing and sorting the full input.
	k := -1
	if sel.Limit >= 0 {
		k = sel.Offset + sel.Limit
	}
	var heap *topk.Heap[*sortCand]
	var cands []*sortCand
	if k >= 0 {
		heap = topk.New(k, p.candLess)
	}
	total := 0
	var ordErr error
	ordErrKey := len(p.orderBy) // keys from here on cannot change the outcome
	dropped := false            // DISTINCT removed a row
	err := iter(func(r Row) error {
		if p.where != nil {
			v, err := p.where(r, params)
			if err != nil {
				return err
			}
			if !truthy(v) {
				return nil
			}
		}
		if projErr != nil {
			return nil
		}
		or, err := project(r)
		if err != nil {
			projErr = err
			return nil
		}
		if seen != nil {
			scratch = appendRowKey(scratch[:0], or)
			if _, dup := seen[string(scratch)]; dup {
				unproject()
				dropped = true
				return nil
			}
			seen[string(scratch)] = struct{}{}
		}
		keys := make([]Value, len(p.orderBy))
		for ki, op := range p.orderBy[:ordErrKey] {
			if op.outIdx >= 0 {
				keys[ki] = or[op.outIdx]
				continue
			}
			v, err := op.f(r, params)
			if err != nil {
				ordErr, ordErrKey = err, ki
				break
			}
			keys[ki] = v
		}
		if ordErr != nil {
			return nil
		}
		c := &sortCand{out: or, keys: keys, seq: total}
		total++
		if heap != nil {
			heap.Offer(c)
		} else {
			cands = append(cands, c)
		}
		return nil
	})
	switch {
	case err != nil:
		return nil, err
	case projErr != nil:
		return nil, projErr
	case dropped && p.orderOnInput:
		return nil, errOrderRowCount
	case ordErr != nil:
		return nil, ordErr
	}
	if heap != nil {
		cands = heap.Items()
	}
	sort.Slice(cands, func(i, j int) bool { return p.candLess(cands[i], cands[j]) })

	if p.where != nil {
		if p.sel.Explain {
			*planLines = append(*planLines, p.filterDesc(params))
		}
	}
	if sel.Distinct {
		if p.sel.Explain {
			*planLines = append(*planLines, "Distinct")
		}
	}
	if p.sel.Explain {
		*planLines = append(*planLines, p.sortDesc)
	}

	start := sel.Offset
	if start > len(cands) {
		start = len(cands)
	}
	for _, c := range cands[start:] {
		out.Rows = append(out.Rows, c.out)
	}
	afterOffset := total - sel.Offset
	if afterOffset < 0 {
		afterOffset = 0
	}
	if sel.Limit >= 0 {
		if sel.Limit < len(out.Rows) {
			out.Rows = out.Rows[:sel.Limit]
		}
		if sel.Limit < afterOffset {
			if p.sel.Explain {
				*planLines = append(*planLines, fmt.Sprintf("Limit(%d)", sel.Limit))
			}
		}
	}
	return out, nil
}

// ---- UPDATE / DELETE compilation ----

type updateProgram struct {
	table   string
	ver     uint64
	exprs   exprCompiler
	where   compiledExpr
	access  []accessCand
	targets []updateTarget
}

type updateTarget struct {
	col  int
	name string
	typ  Type
	f    compiledExpr
}

type deleteProgram struct {
	table  string
	ver    uint64
	exprs  exprCompiler
	where  compiledExpr
	access []accessCand
}

// buildUpdateProgram compiles up. A missing table or a SET target that is not
// a column is the statement's error whatever its rows; the predicate and the
// SET values raise only when evaluated.
func (db *DB) buildUpdateProgram(up *UpdateStmt) (*updateProgram, error) {
	t, ver, err := db.tableVer(up.Table)
	if err != nil {
		return nil, err
	}
	p := &updateProgram{table: strings.ToLower(up.Table), ver: ver}
	p.exprs.cols = tableLayout(t, up.Table)
	for _, sc := range up.Set {
		ci := t.schema.ColIndex(sc.Column)
		if ci < 0 {
			return nil, fmt.Errorf("%w: %s.%s", ErrColumnUnknown, up.Table, sc.Column)
		}
		p.targets = append(p.targets, updateTarget{
			col:  ci,
			name: t.schema.Columns[ci].Name,
			typ:  t.schema.Columns[ci].Type,
			f:    p.exprs.expr(sc.Value),
		})
	}
	if up.Where != nil {
		p.where = p.exprs.expr(up.Where)
		p.access = buildAccessCands(p.table, up.Where)
	}
	return p, nil
}

func (db *DB) buildDeleteProgram(del *DeleteStmt) (*deleteProgram, error) {
	t, ver, err := db.tableVer(del.Table)
	if err != nil {
		return nil, err
	}
	p := &deleteProgram{table: strings.ToLower(del.Table), ver: ver}
	if del.Where != nil {
		p.exprs.cols = tableLayout(t, del.Table)
		p.where = p.exprs.expr(del.Where)
		p.access = buildAccessCands(p.table, del.Where)
	}
	return p, nil
}

// tableLayout builds the column layout of one table under its effective name.
func tableLayout(t *table, name string) []envCol {
	baseName := strings.ToLower(name)
	cols := make([]envCol, len(t.schema.Columns))
	for i, c := range t.schema.Columns {
		cols[i] = envCol{table: baseName, name: strings.ToLower(c.Name)}
	}
	return cols
}

// dmlCandidates returns the row ids a compiled DML statement must visit, in
// ascending order — the order the interpreter scans in, which decides what a
// statement that fails midway leaves behind — using the same staged access
// planner as compiled SELECTs. The returned slice is a private copy: the
// statement body mutates rows and index postings, and the planner's id
// slices may alias live index storage. A nil slice with all=true means the
// caller scans the whole table: no sargable candidate matched, or an
// expression of the statement can raise in this execution, and the
// interpreter would have met that on a row an index skips. The caller holds
// t.mu for writing.
func dmlCandidates(t *table, exprs *exprCompiler, access []accessCand, params []Value) (ids []int, all bool) {
	if len(access) == 0 || exprs.canRaise(params) {
		return nil, true
	}
	path := planAccessLocked(t, access, params, false, true)
	if path.all {
		return nil, true
	}
	ids = append([]int(nil), path.ids...)
	sort.Ints(ids)
	return ids, false
}

func (db *DB) runUpdateProgram(p *updateProgram, params []Value) (*Result, error) {
	t, ver, err := db.tableVer(p.table)
	if err != nil || ver != p.ver {
		return nil, errStalePlan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dataVer++
	n := 0
	apply := func(id int) error {
		if !t.live[id] {
			return nil
		}
		row := t.rows[id]
		if p.where != nil {
			v, err := p.where(row, params)
			if err != nil {
				return err
			}
			if !truthy(v) {
				return nil
			}
		}
		// Stored rows are immutable (readers hold them past the lock): the
		// statement installs a copy and writes only that.
		row = CloneRow(row)
		t.rows[id] = row
		for _, tg := range p.targets {
			nv, err := tg.f(row, params)
			if err != nil {
				return err
			}
			cv, err := coerce(nv, tg.typ)
			if err != nil {
				return fmt.Errorf("column %q: %w", tg.name, err)
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
		return nil
	}
	if ids, all := dmlCandidates(t, &p.exprs, p.access, params); !all {
		for _, id := range ids {
			if err := apply(id); err != nil {
				return nil, err
			}
		}
	} else {
		for id := range t.rows {
			if err := apply(id); err != nil {
				return nil, err
			}
		}
	}
	return affected(n), nil
}

func (db *DB) runDeleteProgram(p *deleteProgram, params []Value) (*Result, error) {
	t, ver, err := db.tableVer(p.table)
	if err != nil || ver != p.ver {
		return nil, errStalePlan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dataVer++
	n := 0
	apply := func(id int) error {
		if !t.live[id] {
			return nil
		}
		if p.where != nil {
			v, err := p.where(t.rows[id], params)
			if err != nil {
				return err
			}
			if !truthy(v) {
				return nil
			}
		}
		t.live[id] = false
		t.liveCnt--
		for _, ix := range t.indexes {
			ix.remove(id, t.rows[id][ix.col])
		}
		n++
		return nil
	}
	if ids, all := dmlCandidates(t, &p.exprs, p.access, params); !all {
		for _, id := range ids {
			if err := apply(id); err != nil {
				return nil, err
			}
		}
	} else {
		for id := range t.rows {
			if err := apply(id); err != nil {
				return nil, err
			}
		}
	}
	return affected(n), nil
}
