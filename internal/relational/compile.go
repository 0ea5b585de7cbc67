package relational

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"blueprint/internal/topk"
)

// This file implements the prepare-time compiler for SELECT/UPDATE/DELETE.
//
// The interpreted executor (select.go, dml.go) re-resolves every column
// reference by a linear lowercase string scan per row per expression and
// re-dispatches on the AST node type for every evaluation. The compiler does
// that work exactly once per (statement, schema) pair: each ColumnRef is
// resolved to a positional offset and the expression tree is lowered into a
// closure of type compiledExpr, so per-row evaluation touches no strings and
// no type switches. Compiled plans are cached on *Stmt handles and in the
// statement cache (see planSlot in stmt.go) and invalidated per table by a
// schema version counter bumped on CREATE/DROP TABLE.
//
// Statement shapes whose interpreted semantics depend on runtime row counts
// (lazy resolution errors over empty inputs, the DISTINCT/ORDER BY row-count
// quirk, SELECT * with aggregates) are not compiled: compileStmt marks them
// fallback and execution uses the interpreted path, which stays the semantic
// oracle — the differential tests in differential_test.go assert both paths
// agree on the full property corpus.

// compiledExpr evaluates one scalar expression against a row with all column
// references pre-resolved to positional offsets.
type compiledExpr func(row Row, params []Value) (Value, error)

// compiledAggExpr evaluates an expression that may contain aggregates over
// one group, reading the accumulators folded while its rows were scanned.
type compiledAggExpr func(g *aggGroup, params []Value) (Value, error)

// errStalePlan signals that a compiled plan no longer matches the live
// schema (DDL raced the execution); the router recompiles and retries.
var errStalePlan = errors.New("relational: stale compiled plan")

// errUncompilable marks statement shapes the compiler deliberately refuses
// (they fall back to the interpreted oracle).
var errUncompilable = errors.New("relational: statement not compilable")

// tableDep records the schema version of one referenced table at compile
// time. Versions bump on CREATE/DROP TABLE, so a dependency mismatch means
// the table was dropped or recreated and every resolved offset is suspect.
type tableDep struct {
	table string // lowercased storage key
	ver   uint64
}

// compiledStmt is one compilation of a statement: either a runnable program
// or a fallback marker, plus the schema versions it was compiled against.
type compiledStmt struct {
	deps     []tableDep
	sel      *selectProgram
	upd      *updateProgram
	del      *deleteProgram
	fallback bool
}

// planSlot holds the current compilation of one statement. A slot is shared
// between a prepared *Stmt handle and the statement-cache entry for the same
// SQL text, so Query/Exec traffic and prepared handles reuse one compiled
// plan. Swaps are atomic: concurrent executors either see the old (still
// version-checked) plan or the new one.
type planSlot struct {
	p atomic.Pointer[compiledStmt]
}

// SetCompileEnabled toggles the compiled execution path. Disabling it forces
// every SELECT/UPDATE/DELETE through the interpreted evaluator — the reference
// the differential tests (differential_test.go) compare compiled execution
// against; production leaves it on.
func (db *DB) SetCompileEnabled(enabled bool) { db.noCompile.Store(!enabled) }

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

// planFor returns the slot's current compilation, recompiling if absent or
// stale. Racing recompiles are harmless: both results are valid and the
// last store wins.
func (db *DB) planFor(st Statement, slot *planSlot) *compiledStmt {
	cs := slot.p.Load()
	if cs == nil || !db.depsValid(cs.deps) {
		cs = db.compileStmt(st)
		slot.p.Store(cs)
	}
	return cs
}

// compileStmt compiles st against the current schema. Any compile error
// (unknown column, missing table, unsupported shape) produces a fallback
// marker rather than a statement error: the interpreted path owns error
// semantics, including the lazy cases where an unresolvable reference over
// zero rows is not an error at all.
func (db *DB) compileStmt(st Statement) *compiledStmt {
	db.compiles.Add(1)
	cs := &compiledStmt{deps: db.captureDeps(stmtTables(st))}
	var err error
	switch s := st.(type) {
	case *SelectStmt:
		cs.sel, err = db.buildSelectProgram(s)
	case *UpdateStmt:
		cs.upd, err = db.buildUpdateProgram(s)
	case *DeleteStmt:
		cs.del, err = db.buildDeleteProgram(s)
	default:
		err = errUncompilable
	}
	if err != nil {
		cs.sel, cs.upd, cs.del, cs.fallback = nil, nil, nil, true
	}
	return cs
}

// ---- statement routers ----

// Each router runs the slot's compiled program when there is one. What is
// left falls through to the interpreter and is counted (CacheStats.
// InterpretedExecs): a slotless Run, a shape the compiler refuses, or DDL
// churn that invalidated the plan twice running — the interpreted path always
// sees a coherent schema.

func (db *DB) execSelect(sel *SelectStmt, slot *planSlot, params []Value) (*Result, error) {
	if db.noCompile.Load() {
		return db.execSelectInterp(sel, params)
	}
	for attempt := 0; slot != nil && attempt < 2; attempt++ {
		cs := db.planFor(sel, slot)
		if cs.fallback || cs.sel == nil {
			break
		}
		res, err := db.runSelectProgram(cs.sel, params)
		if err == errStalePlan {
			slot.p.Store(nil)
			continue
		}
		return res, err
	}
	db.interpretedExecs.Add(1)
	return db.execSelectInterp(sel, params)
}

func (db *DB) execUpdate(up *UpdateStmt, slot *planSlot, params []Value) (*Result, error) {
	if db.noCompile.Load() {
		return db.execUpdateInterp(up, params)
	}
	for attempt := 0; slot != nil && attempt < 2; attempt++ {
		cs := db.planFor(up, slot)
		if cs.fallback || cs.upd == nil {
			break
		}
		res, err := db.runUpdateProgram(cs.upd, params)
		if err == errStalePlan {
			slot.p.Store(nil)
			continue
		}
		return res, err
	}
	db.interpretedExecs.Add(1)
	return db.execUpdateInterp(up, params)
}

func (db *DB) execDelete(del *DeleteStmt, slot *planSlot, params []Value) (*Result, error) {
	if db.noCompile.Load() {
		return db.execDeleteInterp(del, params)
	}
	for attempt := 0; slot != nil && attempt < 2; attempt++ {
		cs := db.planFor(del, slot)
		if cs.fallback || cs.del == nil {
			break
		}
		res, err := db.runDeleteProgram(cs.del, params)
		if err == errStalePlan {
			slot.p.Store(nil)
			continue
		}
		return res, err
	}
	db.interpretedExecs.Add(1)
	return db.execDeleteInterp(del, params)
}

// ---- expression compilation ----

// resolveCol resolves a column reference against an ordered column layout —
// the single resolution routine shared by the interpreted evaluator (per
// row) and the compiler (once per statement).
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

// compileExpr lowers a scalar expression into a closure over the given
// column layout. Resolution errors surface at compile time (the caller falls
// back to the interpreted path to preserve lazy semantics); evaluation
// errors that the interpreter raises per row (missing parameters, aggregate
// misuse) are lowered into closures that raise them lazily, so a query over
// zero rows still succeeds exactly like the interpreter.
func compileExpr(cols []envCol, x Expr) (compiledExpr, error) {
	switch v := x.(type) {
	case *Literal:
		val := v.Val
		return func(Row, []Value) (Value, error) { return val, nil }, nil
	case *Param:
		ord := v.Ordinal
		disp := paramSrc(v)
		return func(_ Row, params []Value) (Value, error) {
			if ord-1 >= len(params) || params[ord-1].T == missingParamType {
				return Null, fmt.Errorf("relational: missing parameter %d", disp)
			}
			return params[ord-1], nil
		}, nil
	case *ColumnRef:
		i, err := resolveCol(cols, v)
		if err != nil {
			return nil, err
		}
		return func(row Row, _ []Value) (Value, error) { return row[i], nil }, nil
	case *BinaryExpr:
		return compileBinary(cols, v)
	case *UnaryExpr:
		inner, err := compileExpr(cols, v.E)
		if err != nil {
			return nil, err
		}
		return func(row Row, params []Value) (Value, error) {
			val, err := inner(row, params)
			if err != nil {
				return Null, err
			}
			return NewBool(!truthy(val)), nil
		}, nil
	case *InExpr:
		e, err := compileExpr(cols, v.E)
		if err != nil {
			return nil, err
		}
		items := make([]compiledExpr, len(v.List))
		for i, item := range v.List {
			f, err := compileExpr(cols, item)
			if err != nil {
				return nil, err
			}
			items[i] = f
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
		}, nil
	case *BetweenExpr:
		e, err := compileExpr(cols, v.E)
		if err != nil {
			return nil, err
		}
		lo, err := compileExpr(cols, v.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := compileExpr(cols, v.Hi)
		if err != nil {
			return nil, err
		}
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
		}, nil
	case *IsNullExpr:
		e, err := compileExpr(cols, v.E)
		if err != nil {
			return nil, err
		}
		not := v.Not
		return func(row Row, params []Value) (Value, error) {
			val, err := e(row, params)
			if err != nil {
				return Null, err
			}
			return NewBool(val.IsNull() != not), nil
		}, nil
	case *AggExpr:
		// Same lazy error as the interpreter: raised per evaluation, so it
		// never fires over zero rows.
		return func(Row, []Value) (Value, error) {
			return Null, errors.New("relational: aggregate outside aggregation context")
		}, nil
	default:
		return func(Row, []Value) (Value, error) {
			return Null, errors.New("relational: unsupported expression")
		}, nil
	}
}

// compileConjuncts compiles the conjunct list of a left-deep AND chain in
// source order.
func compileConjuncts(cols []envCol, v *BinaryExpr) ([]compiledExpr, error) {
	var out []compiledExpr
	if lb, ok := v.L.(*BinaryExpr); ok && lb.Op == "AND" {
		flat, err := compileConjuncts(cols, lb)
		if err != nil {
			return nil, err
		}
		out = flat
	} else {
		l, err := compileExpr(cols, v.L)
		if err != nil {
			return nil, err
		}
		out = append(out, l)
	}
	r, err := compileExpr(cols, v.R)
	if err != nil {
		return nil, err
	}
	return append(out, r), nil
}

func compileBinary(cols []envCol, v *BinaryExpr) (compiledExpr, error) {
	l, err := compileExpr(cols, v.L)
	if err != nil {
		return nil, err
	}
	r, err := compileExpr(cols, v.R)
	if err != nil {
		return nil, err
	}
	switch v.Op {
	case "AND":
		// Conjunct chains (the normal WHERE form) flatten into one closure
		// that loops a list, instead of one nested frame per AND node.
		conjuncts := []compiledExpr{l, r}
		if lb, ok := v.L.(*BinaryExpr); ok && lb.Op == "AND" {
			flat, err := compileConjuncts(cols, lb)
			if err != nil {
				return nil, err
			}
			conjuncts = append(flat, r)
		}
		return func(row Row, params []Value) (Value, error) {
			for _, c := range conjuncts {
				v, err := c(row, params)
				if err != nil {
					return Null, err
				}
				if !truthy(v) {
					return NewBool(false), nil
				}
			}
			return NewBool(true), nil
		}, nil
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
		}, nil
	}
	// Comparisons dispatch on the operator once at compile time instead of
	// re-switching on the op string for every row.
	switch v.Op {
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
		}, nil
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
		}, nil
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
		}, nil
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
	}, nil
}

// compareValues applies a non-logical binary operator to two evaluated
// values — the shared tail of the interpreted evalBinary and the compiled
// closures.
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

// compileOnFirst lowers a non-aggregate expression for use in aggregation
// context: evaluated on the group's first row, Null over an empty group.
func compileOnFirst(cols []envCol, x Expr) (compiledAggExpr, error) {
	f, err := compileExpr(cols, x)
	if err != nil {
		return nil, err
	}
	return func(g *aggGroup, params []Value) (Value, error) {
		if g.n == 0 {
			return Null, nil
		}
		return f(g.first, params)
	}, nil
}

// compileAggExpr lowers an expression that may contain aggregates, mirroring
// evalAgg: each aggregate call gets an accumulator slot (appended to slots)
// and reads its result, non-aggregate subtrees evaluate on the first row.
func compileAggExpr(cols []envCol, x Expr, slots *[]aggSlot) (compiledAggExpr, error) {
	switch v := x.(type) {
	case *AggExpr:
		return compileAgg(cols, v, slots)
	case *BinaryExpr:
		if !hasAggregate(v) {
			return compileOnFirst(cols, v)
		}
		l, err := compileAggExpr(cols, v.L, slots)
		if err != nil {
			return nil, err
		}
		r, err := compileAggExpr(cols, v.R, slots)
		if err != nil {
			return nil, err
		}
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
		}, nil
	case *UnaryExpr:
		inner, err := compileAggExpr(cols, v.E, slots)
		if err != nil {
			return nil, err
		}
		return func(g *aggGroup, params []Value) (Value, error) {
			val, err := inner(g, params)
			if err != nil {
				return Null, err
			}
			return NewBool(!truthy(val)), nil
		}, nil
	default:
		return compileOnFirst(cols, x)
	}
}

// compileAgg lowers one aggregate call: COUNT(*) is the group's row count,
// anything else takes the next accumulator slot and reads its result.
func compileAgg(cols []envCol, a *AggExpr, slots *[]aggSlot) (compiledAggExpr, error) {
	if a.Star {
		return func(g *aggGroup, _ []Value) (Value, error) {
			return NewInt(int64(g.n)), nil
		}, nil
	}
	arg, err := compileExpr(cols, a.Arg)
	if err != nil {
		return nil, err
	}
	slot := aggSlot{name: a.Fn, distinct: a.Distinct, arg: arg}
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
		}, nil
	}
	i := len(*slots)
	*slots = append(*slots, slot)
	return func(g *aggGroup, _ []Value) (Value, error) {
		return slot.result(&g.accs[i])
	}, nil
}

// ---- SELECT compilation ----

type selectProgram struct {
	sel       *SelectStmt
	baseTable string // lowercased storage key
	baseVer   uint64
	baseWidth int // base table column count (row width before joins)
	layout    []envCol
	joins     []joinProgram
	where     compiledExpr
	whereDesc string
	// whereAuto marks WHERE trees containing auto-extracted literal params:
	// their Filter(...) plan line depends on the bound values (rendered per
	// execution by filterDesc so shape-cached plans print exactly like
	// exact-keyed ones).
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

	orderBy  []orderProgram
	sortDesc string
}

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

func outColumnIndex(columns []string, name string) int {
	for i, c := range columns {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

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
	baseName := strings.ToLower(sel.From.Name())
	cols := make([]envCol, 0, len(base.schema.Columns))
	for _, c := range base.schema.Columns {
		cols = append(cols, envCol{table: baseName, name: strings.ToLower(c.Name)})
	}
	pretty := append([]string(nil), base.schema.Names()...)

	for _, j := range sel.Joins {
		jt, jVer, err := db.tableVer(j.Table.Table)
		if err != nil {
			return nil, err
		}
		jName := strings.ToLower(j.Table.Name())
		jCols := make([]envCol, 0, len(jt.schema.Columns))
		for _, c := range jt.schema.Columns {
			jCols = append(jCols, envCol{table: jName, name: strings.ToLower(c.Name)})
		}
		// Determine which side of ON belongs to the joined table (same swap
		// logic as the interpreter).
		leftRef, rightRef := j.LCol, j.RCol
		if _, err := resolveCol(jCols, &rightRef); err != nil {
			leftRef, rightRef = rightRef, leftRef
			if _, err2 := resolveCol(jCols, &rightRef); err2 != nil {
				return nil, err2
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
	p.layout = cols

	if sel.Where != nil {
		f, err := compileExpr(cols, sel.Where)
		if err != nil {
			return nil, err
		}
		p.where = f
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
		for _, it := range sel.Items {
			if it.Star {
				// The interpreter rejects this at execution time; keep the
				// error on the interpreted path.
				return nil, errUncompilable
			}
			p.columns = append(p.columns, itemName(it))
			f, err := compileAggExpr(cols, it.Expr, &p.aggSlots)
			if err != nil {
				return nil, err
			}
			p.aggItems = append(p.aggItems, f)
		}
		p.outWidth = len(p.aggItems)
		for _, gc := range sel.GroupBy {
			gcCopy := gc
			i, err := resolveCol(cols, &gcCopy)
			if err != nil {
				return nil, err
			}
			p.groupBy = append(p.groupBy, i)
		}
		if sel.Having != nil {
			f, err := compileAggExpr(cols, sel.Having, &p.aggSlots)
			if err != nil {
				return nil, err
			}
			p.having = f
		}
		if len(sel.GroupBy) > 0 {
			p.aggDesc = fmt.Sprintf("GroupBy(%d keys)", len(sel.GroupBy))
		} else {
			p.aggDesc = "Aggregate"
		}
	} else {
		for _, it := range sel.Items {
			if it.Star {
				p.columns = append(p.columns, pretty...)
				p.items = append(p.items, itemProgram{star: true})
				p.outWidth += len(cols)
				continue
			}
			p.columns = append(p.columns, itemName(it))
			f, err := compileExpr(cols, it.Expr)
			if err != nil {
				return nil, err
			}
			p.items = append(p.items, itemProgram{f: f})
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
				// Interpreted path raises "must be an output column".
				return nil, errUncompilable
			}
			if sel.Distinct {
				// Whether the interpreter errors here depends on how many
				// rows DISTINCT removes at runtime; leave the quirk to it.
				return nil, errUncompilable
			}
			f, err := compileExpr(cols, ob.Expr)
			if err != nil {
				return nil, err
			}
			op.f = f
		}
		p.orderBy = append(p.orderBy, op)
	}
	if len(sel.OrderBy) > 0 {
		p.sortDesc = fmt.Sprintf("Sort(%d keys)", len(sel.OrderBy))
	}
	return p, nil
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
// interpreted planAccess.
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
			if ord-1 < len(params) && params[ord-1].T != missingParamType {
				return params[ord-1], true
			}
			return Null, false
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
// planner considers candidates in the same order as the interpreted one, so
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

// planAccessCompiled is the compiled twin of (*table).planAccess: it walks
// the precompiled candidates against the live index set and this
// execution's bound values, producing the same access path (and plan line)
// the interpreted planner would choose for the equivalent literal text.
func (p *selectProgram) planAccessCompiled(t *table, params []Value) accessPath {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return planAccessLocked(t, p.access, params, p.sel.Explain)
}

// planAccessLocked picks the best access path for the precompiled candidates
// under this execution's bound values. The caller holds t.mu (read or write).
// The desc plan line is rendered only when wantDesc (EXPLAIN): ordinary
// queries never pay for it.
func planAccessLocked(t *table, access []accessCand, params []Value, wantDesc bool) accessPath {
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
	// resolve maps a binary candidate onto the live index set for this
	// execution's bound values: the forward orientation wins when both sides
	// are indexed, matching the interpreted planner.
	resolve := func(ac *accessCand) (*indexDef, Value, string) {
		if ac.fwdCol != "" {
			if cand := t.indexes[ac.fwdCol]; cand != nil {
				if fv, ok := ac.fwdVal(params); ok && !fv.IsNull() {
					return cand, fv, ac.fwdOp
				}
			}
		}
		if ac.revCol != "" {
			if cand := t.indexes[ac.revCol]; cand != nil {
				if rv, ok := ac.revVal(params); ok && !rv.IsNull() {
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
				if !o {
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
				if !ok1 || !ok2 {
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
	if len(p.groupBy) == 0 {
		// The global group exists over empty input too.
		groups = []*aggGroup{p.newAggGroup()}
	} else {
		byKey = make(map[string]*aggGroup)
	}
	var scratch []byte
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

	if len(p.orderBy) > 0 {
		// Aggregated ORDER BY keys are always output columns (anything else
		// is a fallback shape).
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

	if len(p.orderBy) == 0 {
		need := -1
		if sel.Limit >= 0 {
			need = sel.Offset + sel.Limit
		}
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
			if seen == nil {
				if need >= 0 && len(out.Rows) == need {
					sawMore = true
					return errStopScan
				}
				or, err := project(r)
				if err != nil {
					return err
				}
				out.Rows = append(out.Rows, or)
				return nil
			}
			or, err := project(r)
			if err != nil {
				return err
			}
			scratch = appendRowKey(scratch[:0], or)
			if _, dup := seen[string(scratch)]; dup {
				unproject()
				return nil
			}
			if need >= 0 && len(out.Rows) == need {
				sawMore = true
				return errStopScan
			}
			seen[string(scratch)] = struct{}{}
			out.Rows = append(out.Rows, or)
			return nil
		})
		if err != nil && err != errStopScan {
			return nil, err
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
		or, err := project(r)
		if err != nil {
			return err
		}
		if seen != nil {
			scratch = appendRowKey(scratch[:0], or)
			if _, dup := seen[string(scratch)]; dup {
				unproject()
				return nil
			}
			seen[string(scratch)] = struct{}{}
		}
		keys := make([]Value, len(p.orderBy))
		for ki, op := range p.orderBy {
			if op.outIdx >= 0 {
				keys[ki] = or[op.outIdx]
				continue
			}
			v, err := op.f(r, params)
			if err != nil {
				return err
			}
			keys[ki] = v
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
	if err != nil {
		return nil, err
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
	where  compiledExpr
	access []accessCand
}

func (db *DB) buildUpdateProgram(up *UpdateStmt) (*updateProgram, error) {
	t, ver, err := db.tableVer(up.Table)
	if err != nil {
		return nil, err
	}
	p := &updateProgram{table: strings.ToLower(up.Table), ver: ver}
	cols := tableLayout(t, up.Table)
	for _, sc := range up.Set {
		ci := t.schema.ColIndex(sc.Column)
		if ci < 0 {
			return nil, fmt.Errorf("%w: %s.%s", ErrColumnUnknown, up.Table, sc.Column)
		}
		f, err := compileExpr(cols, sc.Value)
		if err != nil {
			return nil, err
		}
		p.targets = append(p.targets, updateTarget{
			col:  ci,
			name: t.schema.Columns[ci].Name,
			typ:  t.schema.Columns[ci].Type,
			f:    f,
		})
	}
	if up.Where != nil {
		f, err := compileExpr(cols, up.Where)
		if err != nil {
			return nil, err
		}
		p.where = f
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
		f, err := compileExpr(tableLayout(t, del.Table), del.Where)
		if err != nil {
			return nil, err
		}
		p.where = f
		p.access = buildAccessCands(p.table, del.Where)
	}
	return p, nil
}

// tableLayout builds the single-table column layout used by DML predicates.
func tableLayout(t *table, name string) []envCol {
	baseName := strings.ToLower(name)
	cols := make([]envCol, len(t.schema.Columns))
	for i, c := range t.schema.Columns {
		cols[i] = envCol{table: baseName, name: strings.ToLower(c.Name)}
	}
	return cols
}

// dmlCandidates returns the row ids a compiled DML statement must visit,
// using the same staged access planner as compiled SELECTs. The returned
// slice is a private copy: the statement body mutates rows and index
// postings, and the planner's id slices may alias live index storage. A nil
// slice with all=true means no sargable candidate matched and the caller
// scans the whole table. The caller holds t.mu for writing.
func dmlCandidates(t *table, access []accessCand, params []Value) (ids []int, all bool) {
	path := planAccessLocked(t, access, params, false)
	if path.all {
		return nil, true
	}
	return append([]int(nil), path.ids...), false
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
	if ids, all := dmlCandidates(t, p.access, params); !all {
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
	if ids, all := dmlCandidates(t, p.access, params); !all {
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
