package relational

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"blueprint/internal/obs"
)

// Result is the outcome of a query. It is read-only: a result may share its
// rows with the table (a compiled `SELECT *` returns the stored rows
// themselves, which are immutable — an UPDATE installs a new row rather than
// writing the old one) and with other results of the same statement, so a
// caller that wants to change a cell copies the row first (CloneRow).
type Result struct {
	// Columns are the output column names.
	Columns []string
	// Rows are the result tuples. Do not write their cells or append to them.
	Rows []Row
	// Plan describes the chosen access path (always populated for SELECT;
	// EXPLAIN returns only this).
	Plan string
}

// String renders the result as an aligned text table (a simple renderer in
// the spirit of §V-B).
func (r *Result) String() string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, c := range r.Columns {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, s := range row {
			if i > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], s)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Maps converts the result into a slice of column->value maps, convenient
// for JSON payloads in streams.
func (r *Result) Maps() []map[string]any {
	out := make([]map[string]any, len(r.Rows))
	for i, row := range r.Rows {
		m := make(map[string]any, len(r.Columns))
		for j, c := range r.Columns {
			if j < len(row) {
				m[c] = row[j].Go()
			}
		}
		out[i] = m
	}
	return out
}

// Query parses and executes sql with optional positional parameters bound to
// '?' placeholders. Parsed statements (and their compiled plans) are served
// from the DB's bounded LRU statement cache, so repeated texts skip the
// lexer, the parser and the plan compiler entirely; use Prepare for an
// explicit reusable handle.
func (db *DB) Query(sql string, params ...any) (*Result, error) {
	st, slot, binder, err := db.parseCached(sql)
	if err != nil {
		return nil, err
	}
	return db.runLogged(sql, st, slot, binder, params...)
}

// Exec runs a statement that does not produce rows (INSERT, UPDATE, DELETE,
// CREATE, DROP) and reports the number of affected rows. Like Query, it
// consults the statement cache.
func (db *DB) Exec(sql string, params ...any) (int, error) {
	st, slot, binder, err := db.parseCached(sql)
	if err != nil {
		return 0, err
	}
	res, err := db.runLogged(sql, st, slot, binder, params...)
	if err != nil {
		return 0, err
	}
	return affectedCount(res), nil
}

// affectedCount extracts the affected-row count from an exec-style result,
// falling back to the row count for row-producing statements.
func affectedCount(res *Result) int {
	if len(res.Columns) == 1 && res.Columns[0] == "affected" && len(res.Rows) == 1 {
		return int(res.Rows[0][0].I)
	}
	return len(res.Rows)
}

// Run executes a parsed statement. Successful mutations (DML and DDL)
// notify the OnWrite hooks with the affected table. Statements executed
// through Run directly (without a Query/Exec/Prepare plan slot) use the
// interpreted evaluator; the cached entry points use compiled plans. Run
// bypasses the durability WAL (the original SQL text is unavailable for a
// logical record): durable deployments mutate through Query/Exec/Prepare.
func (db *DB) Run(st Statement, params ...any) (*Result, error) {
	return db.runLogged("", st, nil, nil, params...)
}

// runLogged executes a statement, appending a WAL record for successful
// mutations when a durability sink is attached. The execution and the
// append run under the sink's LogMutation so the pair cannot straddle a
// snapshot boundary (logical SQL replay is not idempotent). binder (nil for
// exact-keyed statements) merges fingerprint-extracted literal values with
// the caller's explicit params into the unified slot vector the shared plan
// expects; the WAL record keeps the original SQL text and caller params —
// replay re-fingerprints deterministically.
func (db *DB) runLogged(sqlText string, st Statement, slot *planSlot, binder *paramBinder, params ...any) (*Result, error) {
	mStatements.Inc()
	if obs.On() {
		start := time.Now()
		defer mSQLLatency.ObserveSince(start)
	}
	vals := make([]Value, len(params))
	for i, p := range params {
		vals[i] = FromGo(p)
	}
	bound := binder.bind(vals)
	sink := db.durableSink()
	if sink == nil || sqlText == "" || !isMutationStmt(st) {
		return db.runVals(st, slot, bound)
	}
	var (
		res     *Result
		execErr error
		bufp    *[]byte
	)
	walErr := sink.LogMutation(func() ([]byte, error) {
		res, execErr = db.runVals(st, slot, bound)
		// Failing statements are logged too: a multi-row INSERT or an
		// UPDATE/DELETE can error midway with earlier rows already
		// applied, and execution is deterministic, so replaying the
		// statement reproduces exactly the partial effect the live run
		// kept (Apply ignores the identical re-failure). Skipping the
		// record here would make recovery diverge from the state every
		// later logged statement executed against.
		bufp = walBufPool.Get().(*[]byte)
		*bufp = appendWALRecord((*bufp)[:0], sqlText, vals)
		return *bufp, nil
	})
	if bufp != nil {
		walBufPool.Put(bufp)
	}
	if execErr != nil {
		return nil, execErr
	}
	if walErr != nil {
		// The in-memory state mutated but the WAL append failed: surface
		// it — the caller must treat the write as not durable.
		return nil, fmt.Errorf("relational: wal append: %w", walErr)
	}
	return res, nil
}

// runVals executes a parsed statement, using the slot's compiled plan when
// one is provided.
func (db *DB) runVals(st Statement, slot *planSlot, vals []Value) (*Result, error) {
	switch s := st.(type) {
	case *SelectStmt:
		return db.execSelect(s, slot, vals)
	case *InsertStmt:
		res, err := db.execInsert(s, vals)
		if err == nil {
			db.notifyWrite(s.Table)
		}
		return res, err
	case *CreateTableStmt:
		if err := db.CreateTable(s.Table, Schema{Columns: s.Columns}); err != nil {
			return nil, err
		}
		db.notifyWrite(s.Table)
		return affected(0), nil
	case *CreateIndexStmt:
		kind := HashIndex
		if s.Ordered {
			kind = OrderedIndex
		}
		if err := db.CreateIndex(s.Name, s.Table, s.Column, kind); err != nil {
			return nil, err
		}
		db.notifyWrite(s.Table)
		return affected(0), nil
	case *DropTableStmt:
		if err := db.DropTable(s.Table); err != nil {
			return nil, err
		}
		db.notifyWrite(s.Table)
		return affected(0), nil
	case *UpdateStmt:
		res, err := db.execUpdate(s, slot, vals)
		if err == nil {
			db.notifyWrite(s.Table)
		}
		return res, err
	case *DeleteStmt:
		res, err := db.execDelete(s, slot, vals)
		if err == nil {
			db.notifyWrite(s.Table)
		}
		return res, err
	default:
		return nil, errors.New("relational: unsupported statement")
	}
}

func affected(n int) *Result {
	return &Result{Columns: []string{"affected"}, Rows: []Row{{NewInt(int64(n))}}}
}

// env carries the column environment of the current row during evaluation.
type env struct {
	cols []envCol
	row  Row
}

type envCol struct {
	table string // effective table name (alias), lowercased
	name  string // column name, lowercased
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
	case *BetweenExpr:
		val, err := eval(e, v.E, params)
		if err != nil {
			return Null, err
		}
		lo, err := eval(e, v.Lo, params)
		if err != nil {
			return Null, err
		}
		hi, err := eval(e, v.Hi, params)
		if err != nil {
			return Null, err
		}
		in := !val.IsNull() && !lo.IsNull() && !hi.IsNull() &&
			Compare(val, lo) >= 0 && Compare(val, hi) <= 0
		return NewBool(in != v.Not), nil
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

// truthy converts a value to a boolean condition result.
func truthy(v Value) bool {
	switch v.T {
	case TBool:
		return v.B
	case TInt:
		return v.I != 0
	case TFloat:
		return v.F != 0
	case TString:
		return v.S != ""
	default:
		return false
	}
}

// likeMatch implements SQL LIKE with % (any run) and _ (single rune),
// case-insensitively. Case-insensitivity is a deliberate dialect choice:
// queries compiled from natural language should match regardless of casing.
func likeMatch(s, pattern string) bool {
	return likeRec(strings.ToLower(s), strings.ToLower(pattern))
}

func likeRec(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive %.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
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

// snapshotRows returns the live rows (in id order) without materializing the
// id slice — the scan entry point of the compiled executor.
func (t *table) snapshotRows() []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rows := make([]Row, 0, t.liveCnt)
	for id, r := range t.rows {
		if t.live[id] {
			rows = append(rows, r)
		}
	}
	return rows
}

// accessPath is the planner's choice for reading the base table.
type accessPath struct {
	desc string
	ids  []int // nil = full scan
	all  bool
}

// planAccess inspects WHERE conjuncts for a sargable predicate over an
// indexed column of the base table and returns matching row ids. The full
// WHERE is still applied afterwards, so the index is purely an accelerator.
func (t *table) planAccess(baseName string, where Expr, params []Value) accessPath {
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
		if cr.Table != "" && !strings.EqualFold(cr.Table, baseName) {
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
	for _, cj := range conjuncts {
		switch x := cj.(type) {
		case *BinaryExpr:
			ix := colFor(x.L)
			v, ok := constVal(x.R)
			if ix == nil || !ok || v.IsNull() {
				// try flipped: literal op column
				ix = colFor(x.R)
				if ix == nil {
					continue
				}
				v2, ok2 := constVal(x.L)
				if !ok2 || v2.IsNull() {
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
				if !o {
					ok = false
					break
				}
				ids = append(ids, ix.lookupEqLocked(v)...)
			}
			if ok {
				consider(candidate{rank: 1, desc: fmt.Sprintf("IndexScan(%s.%s IN [%d values], %s)", t.name, ix.column, len(x.List), ix.kind), ids: dedupInts(ids)})
			}
		case *BetweenExpr:
			if x.Not {
				continue
			}
			ix := colFor(x.E)
			if ix == nil || ix.kind != OrderedIndex {
				continue
			}
			lo, ok1 := constVal(x.Lo)
			hi, ok2 := constVal(x.Hi)
			if !ok1 || !ok2 {
				continue
			}
			ids := ix.order.lookupRange(lo, hi, false, false)
			consider(candidate{rank: 2, desc: fmt.Sprintf("IndexRange(%s.%s BETWEEN %s AND %s)", t.name, ix.column, lo, hi), ids: ids})
		}
	}
	if best == nil {
		return accessPath{desc: "SeqScan(" + t.name + ")", all: true}
	}
	return accessPath{desc: best.desc, ids: best.ids}
}

// flippedOp mirrors a comparison operator for "literal op column" predicates
// rewritten to "column op literal" — shared by the interpreted planner and
// the compiled sargable-candidate builder so both normalize identically.
var flippedOp = map[string]string{"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

// lookupEqLocked requires t.mu held (read).
func (ix *indexDef) lookupEqLocked(v Value) []int {
	if ix.kind == HashIndex {
		return append([]int(nil), ix.hash[v.Key()]...)
	}
	return ix.order.lookupEq(v)
}

func splitAnd(e Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []Expr{e}
}

func dedupInts(xs []int) []int {
	seen := make(map[int]bool, len(xs))
	out := xs[:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Ints(out)
	return out
}
