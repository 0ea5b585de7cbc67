package relational

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"
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

// runLogged executes a statement, appending a WAL record for successful
// mutations when a durability sink is attached. The execution and the
// append run under the sink's LogMutation so the pair cannot straddle a
// snapshot boundary (logical SQL replay is not idempotent), and under
// db.logMu so records reach the log in the order their mutations were
// applied: the table lock is released before the append. binder (nil for
// uncached DDL) merges fingerprint-extracted literal values with
// the caller's explicit params into the unified slot vector the shared plan
// expects; the WAL record keeps the original SQL text and caller params —
// replay re-fingerprints deterministically.
func (db *DB) runLogged(sqlText string, st Statement, slot *planSlot, binder *paramBinder, params ...any) (*Result, error) {
	mStatements.Inc()
	defer mSQLLatency.ObserveSince(time.Now())
	vals := make([]Value, len(params))
	for i, p := range params {
		vals[i] = FromGo(p)
	}
	bound := binder.bind(vals)
	sink := db.durableSink()
	if sink == nil || !isMutationStmt(st) {
		return db.runVals(st, slot, bound)
	}
	var (
		res     *Result
		execErr error
		bufp    *[]byte
	)
	db.logMu.Lock()
	defer db.logMu.Unlock()
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

// runVals executes a parsed statement: SELECT and DML through the slot's
// compiled program, DDL directly. Successful mutations notify the OnWrite
// hooks with the affected table.
func (db *DB) runVals(st Statement, slot *planSlot, vals []Value) (*Result, error) {
	var table string
	switch s := st.(type) {
	case *SelectStmt:
		return db.execCompiled(s, slot, vals)
	case *InsertStmt:
		table = s.Table
	case *UpdateStmt:
		table = s.Table
	case *DeleteStmt:
		table = s.Table
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
	default:
		return nil, errors.New("relational: unsupported statement")
	}
	res, err := db.execCompiled(st, slot, vals)
	if err == nil {
		db.notifyWrite(table)
	}
	return res, err
}

func affected(n int) *Result {
	return &Result{Columns: []string{"affected"}, Rows: []Row{{NewInt(int64(n))}}}
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

// flippedOp mirrors a comparison operator for "literal op column" predicates
// rewritten to "column op literal" — shared by the compiled
// sargable-candidate builder and the reference planner so both normalize
// identically.
var flippedOp = map[string]string{"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

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
