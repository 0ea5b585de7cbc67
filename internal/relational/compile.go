package relational

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// The prepare-time compiler and the executor of SELECT, INSERT, UPDATE and
// DELETE — the only executor the engine ships — in six files:
//
//	compile.go    a statement's compilation, the plan slot that holds it, its
//	              schema-version dependency, the execute-and-recompile loop
//	expr.go       scalar expressions lowered to closures over a row layout,
//	              a WHERE tree to a predicate
//	access.go     sargable WHERE conjuncts and the per-execution access path,
//	              a view of index storage under the caller's lock
//	aggregate.go  accumulators, aggregate expressions, the grouped tail
//	select.go     the SELECT program: build, scan, project, DISTINCT, ORDER BY
//	dml.go        the INSERT, UPDATE and DELETE programs
//
// compileStmt does the per-statement work exactly once per (statement,
// schema) pair: each ColumnRef is resolved to a positional offset and the
// expression tree is lowered into a closure of type compiledExpr (a WHERE
// tree into a compiledPred), so per-row evaluation touches no strings and no
// type switches on the AST. Compiled plans are cached on *Stmt handles and in
// the statement cache (see planSlot) and invalidated per table by a schema
// version counter bumped on CREATE/DROP TABLE.
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
// reads a row — a missing table or an unknown UPDATE target — is an error of
// the build itself. The differential tests and FuzzSQLDifferential
// (differential_test.go) hold the two together.

// errStalePlan signals that a compiled plan no longer matches the live
// schema (DDL raced the execution); execCompiled recompiles and retries.
var errStalePlan = errors.New("relational: stale compiled plan")

// tableDep records the schema version of a statement's table at compile
// time. Versions bump on CREATE/DROP TABLE, so a mismatch means the table was
// dropped or recreated and every resolved offset is suspect.
type tableDep struct {
	table string // lowercased storage key
	ver   uint64
}

// compiledStmt is one compilation of a statement against the schema version
// in dep: the program of its kind, or err — what the build reported (a
// missing table or an unknown UPDATE target), which is the statement's error
// for as long as dep holds.
type compiledStmt struct {
	dep tableDep
	sel *selectProgram
	ins *insertProgram
	upd *updateProgram
	del *deleteProgram
	err error
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

// depValid reports whether the table version recorded at compile time is
// still current.
func (db *DB) depValid(d tableDep) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.vers[d.table] == d.ver
}

// captureDep snapshots the schema version of the given (lowercased) table.
func (db *DB) captureDep(table string) tableDep {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return tableDep{table: table, ver: db.vers[table]}
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
	if cs := slot.p.Load(); cs != nil && db.depValid(cs.dep) {
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
	cs := &compiledStmt{dep: db.captureDep(stmtTable(st))}
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
// compiles again: the dep was read before the version the program checks, so
// it is stale too, and every turn means a concurrent DDL completed.
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
