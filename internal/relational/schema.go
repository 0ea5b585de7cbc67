package relational

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Engine errors.
var (
	ErrTableExists   = errors.New("relational: table already exists")
	ErrTableNotFound = errors.New("relational: table not found")
	ErrColumnUnknown = errors.New("relational: unknown column")
	ErrIndexExists   = errors.New("relational: index already exists")
	ErrTypeMismatch  = errors.New("relational: type mismatch")
	ErrArity         = errors.New("relational: wrong number of values")
)

// Column describes one table column.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered set of columns.
type Schema struct {
	Columns []Column
}

// ColIndex returns the position of the named column (case-insensitive),
// or -1 if absent.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// String renders the schema as "name TYPE, ...".
func (s *Schema) String() string {
	parts := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		parts[i] = c.Name + " " + c.Type.String()
	}
	return strings.Join(parts, ", ")
}

// table is the storage for one table: rows plus secondary indexes.
type table struct {
	mu      sync.RWMutex
	name    string
	schema  Schema
	rows    []Row
	live    []bool // tombstones for DELETE
	liveCnt int
	indexes map[string]*indexDef // by column name (lowercased)
	// dataVer counts mutating statements: every INSERT/UPDATE/DELETE bumps it
	// inside the critical section that mutates (guarded by mu). profile is
	// the cached TableProfile, valid while its tag equals dataVer (profile.go).
	dataVer uint64
	profile atomic.Pointer[TableProfile]
}

// indexDef is a secondary index over a single column.
type indexDef struct {
	name   string
	column string
	col    int
	kind   IndexKind
	hash   map[string][]int // value key -> row ids
	order  *orderedIndex
}

// IndexKind selects the index structure.
type IndexKind int

const (
	// HashIndex supports equality lookups.
	HashIndex IndexKind = iota
	// OrderedIndex supports equality and range lookups.
	OrderedIndex
)

// String names the index kind.
func (k IndexKind) String() string {
	if k == OrderedIndex {
		return "ordered"
	}
	return "hash"
}

// TableInfo describes a table for the data registry.
type TableInfo struct {
	Name    string
	Schema  Schema
	Rows    int
	Indexes []IndexInfo
}

// IndexInfo describes one index for the data registry ("available indices",
// §V-D).
type IndexInfo struct {
	Name   string
	Column string
	Kind   IndexKind
}

// DB is an embedded relational database instance.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*table
	order  []string
	// vers maps lowercased table names to their schema version, bumped on
	// CREATE/DROP TABLE (column offsets change identity). Compiled plans
	// (compile.go) record the versions they resolved against and recompile
	// on mismatch; entries survive DROP so a recreated table never reuses a
	// version. CREATE INDEX does not bump: offsets are unaffected and the
	// access path is chosen at execution time.
	vers      map[string]uint64
	schemaSeq uint64
	// stmts amortizes lexing/parsing across repeated Query/Exec/Prepare
	// calls; DDL flushes the altered table's statements (see stmt.go).
	stmts *stmtCache
	// compiles counts plan compilations, profileBuilds/profileHits table
	// profile rebuilds and reuses (profile.go), for CacheStats.
	compiles      atomic.Uint64
	profileBuilds atomic.Uint64
	profileHits   atomic.Uint64

	writeMu sync.RWMutex
	onWrite []func(table string)

	// durable holds the optional write-ahead-log sink (durable.go) as a
	// durableBox; nil until SetDurable.
	durable atomic.Value
	// logMu orders the log as the mutations were made: runLogged holds it
	// across a mutation and the append of its record, so two writes to one
	// row are logged, and so replayed, in the order they were applied.
	logMu sync.Mutex
}

// bumpVersionLocked advances the schema version of the (lowercased) table
// key. Caller holds db.mu.
func (db *DB) bumpVersionLocked(key string) {
	db.schemaSeq++
	db.vers[key] = db.schemaSeq
}

// OnWrite registers fn, invoked after every successfully executed statement
// that mutates the named table — DML (INSERT/UPDATE/DELETE) and DDL alike,
// through Query/Exec and prepared statements. The blueprint system
// wires this to the data registry's Touch, so a data change bumps the
// table's asset version and invalidates memoized step results that read it.
func (db *DB) OnWrite(fn func(table string)) {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	db.onWrite = append(db.onWrite, fn)
}

func (db *DB) notifyWrite(table string) {
	db.writeMu.RLock()
	hooks := make([]func(string), len(db.onWrite))
	copy(hooks, db.onWrite)
	db.writeMu.RUnlock()
	for _, fn := range hooks {
		fn(table)
	}
}

// NewDB creates an empty database.
func NewDB() *DB {
	return &DB{
		tables: make(map[string]*table),
		vers:   make(map[string]uint64),
		stmts:  newStmtCache(DefaultStmtCacheCapacity),
	}
}

// CreateTable registers a new table with the given schema.
func (db *DB) CreateTable(name string, schema Schema) error {
	key := strings.ToLower(name)
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[key]; ok {
		return fmt.Errorf("%w: %s", ErrTableExists, name)
	}
	if len(schema.Columns) == 0 {
		return errors.New("relational: table needs at least one column")
	}
	seen := map[string]bool{}
	for _, c := range schema.Columns {
		lc := strings.ToLower(c.Name)
		if seen[lc] {
			return fmt.Errorf("relational: duplicate column %q", c.Name)
		}
		seen[lc] = true
	}
	db.tables[key] = &table{name: name, schema: schema, indexes: make(map[string]*indexDef)}
	db.order = append(db.order, key)
	db.bumpVersionLocked(key)
	db.stmts.invalidateTable(name)
	return nil
}

// DropTable removes a table.
func (db *DB) DropTable(name string) error {
	key := strings.ToLower(name)
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[key]; !ok {
		return fmt.Errorf("%w: %s", ErrTableNotFound, name)
	}
	delete(db.tables, key)
	for i, k := range db.order {
		if k == key {
			db.order = append(db.order[:i], db.order[i+1:]...)
			break
		}
	}
	db.bumpVersionLocked(key)
	db.stmts.invalidateTable(name)
	return nil
}

func (db *DB) table(name string) (*table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrTableNotFound, name)
	}
	return t, nil
}

// Tables lists every table with its schema, row count and indexes, in
// creation order.
func (db *DB) Tables() []TableInfo {
	db.mu.RLock()
	keys := append([]string(nil), db.order...)
	db.mu.RUnlock()
	out := make([]TableInfo, 0, len(keys))
	for _, k := range keys {
		db.mu.RLock()
		t, ok := db.tables[k]
		db.mu.RUnlock()
		if !ok {
			continue
		}
		out = append(out, t.info())
	}
	return out
}

// Table returns info for one table.
func (db *DB) Table(name string) (TableInfo, error) {
	t, err := db.table(name)
	if err != nil {
		return TableInfo{}, err
	}
	return t.info(), nil
}

func (t *table) info() TableInfo {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ti := TableInfo{Name: t.name, Schema: t.schema, Rows: t.liveCnt}
	for _, ix := range t.indexes {
		ti.Indexes = append(ti.Indexes, IndexInfo{Name: ix.name, Column: ix.column, Kind: ix.kind})
	}
	return ti
}

// Insert appends a row, coercing value count and types against the schema.
func (db *DB) Insert(name string, row Row) error {
	t, err := db.table(name)
	if err != nil {
		return err
	}
	return t.insert(row)
}

func (t *table) insert(row Row) error {
	if len(row) != len(t.schema.Columns) {
		return fmt.Errorf("%w: got %d values for %d columns", ErrArity, len(row), len(t.schema.Columns))
	}
	coerced := make(Row, len(row))
	for i, v := range row {
		cv, err := coerce(v, t.schema.Columns[i].Type)
		if err != nil {
			return fmt.Errorf("column %q: %w", t.schema.Columns[i].Name, err)
		}
		coerced[i] = cv
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dataVer++
	id := len(t.rows)
	t.rows = append(t.rows, coerced)
	t.live = append(t.live, true)
	t.liveCnt++
	for _, ix := range t.indexes {
		ix.add(id, coerced[ix.col])
	}
	return nil
}

// coerce converts v to the column type where lossless, or errors.
func coerce(v Value, want Type) (Value, error) {
	if v.IsNull() {
		return Null, nil
	}
	switch want {
	case TInt:
		switch v.T {
		case TInt:
			return v, nil
		case TFloat:
			if v.F == float64(int64(v.F)) {
				return NewInt(int64(v.F)), nil
			}
		}
	case TFloat:
		switch v.T {
		case TFloat:
			return v, nil
		case TInt:
			return NewFloat(float64(v.I)), nil
		}
	case TString:
		if v.T == TString {
			return v, nil
		}
	case TBool:
		if v.T == TBool {
			return v, nil
		}
	}
	return Null, fmt.Errorf("%w: cannot store %s as %s", ErrTypeMismatch, v.T, want)
}

// CreateIndex builds a secondary index on table.column. Index names must be
// unique per table; only one index per column is kept (the most capable
// wins: ordered replaces hash).
func (db *DB) CreateIndex(idxName, tableName, column string, kind IndexKind) error {
	t, err := db.table(tableName)
	if err != nil {
		return err
	}
	col := t.schema.ColIndex(column)
	if col < 0 {
		return fmt.Errorf("%w: %s.%s", ErrColumnUnknown, tableName, column)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	key := strings.ToLower(column)
	if old, ok := t.indexes[key]; ok {
		if old.kind == OrderedIndex || old.kind == kind {
			return fmt.Errorf("%w: column %s already indexed (%s)", ErrIndexExists, column, old.kind)
		}
	}
	ix := &indexDef{name: idxName, column: column, col: col, kind: kind}
	if kind == HashIndex {
		ix.hash = make(map[string][]int)
	} else {
		ix.order = newOrderedIndex()
	}
	for id, row := range t.rows {
		if t.live[id] {
			ix.add(id, row[ix.col])
		}
	}
	t.indexes[key] = ix
	db.stmts.invalidateTable(tableName)
	return nil
}

// eqView returns the rows the index files under a value equal to v, as a
// view of its storage (accessPath): the hash posting list, or the run of
// ordered entries. NULL is never filed. The caller holds the table's lock.
func (ix *indexDef) eqView(v Value) accessPath {
	if v.IsNull() {
		return accessPath{}
	}
	if ix.kind == HashIndex {
		// The key is built in a buffer on the stack, and a map probe by
		// string(bytes) does not copy it.
		var buf [48]byte
		return accessPath{ids: ix.hash[string(v.appendKey(buf[:0]))]}
	}
	return accessPath{entries: ix.order.run(v, v, false, false)}
}

func (ix *indexDef) add(id int, v Value) {
	if v.IsNull() {
		return
	}
	if ix.kind == HashIndex {
		k := v.Key()
		ix.hash[k] = append(ix.hash[k], id)
		return
	}
	ix.order.add(v, id)
}

func (ix *indexDef) remove(id int, v Value) {
	if v.IsNull() {
		return
	}
	if ix.kind == HashIndex {
		k := v.Key()
		ids := ix.hash[k]
		for i, x := range ids {
			if x == id {
				ix.hash[k] = append(ids[:i], ids[i+1:]...)
				break
			}
		}
		return
	}
	ix.order.remove(v, id)
}
