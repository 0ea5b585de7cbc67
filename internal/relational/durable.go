package relational

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"blueprint/internal/durability"
)

// Durability: the engine logs committed mutations (DML and DDL) as logical
// SQL records and snapshots full table data plus schema versions, so a
// restarted process recovers exactly the state the last run committed.
//
//   - Logging rides the statement execution path: every attempted
//     mutation through Query, Exec or a prepared Stmt appends one record
//     (the original SQL text plus bound parameter values) through the
//     sink's LogMutation, which makes the state change and the log append
//     atomic with respect to snapshots (see durability.Engine.Log) —
//     logical SQL replay is not idempotent, so a record must never
//     straddle a snapshot boundary (register the DB with
//     durability.WithSnapshotBarrier). Failing statements are logged too:
//     a multi-row INSERT or an UPDATE can error midway with earlier rows
//     already applied, and deterministic replay reproduces exactly that
//     partial effect. The direct catalog APIs (CreateTable, Insert, ...)
//     bypass logging; durable deployments use the SQL surface.
//   - Appends are asynchronous: a successful Exec is durable after the
//     engine's next group commit/background flush (Options.FlushEvery
//     window), not at return. Callers needing a hard barrier use
//     Engine.Sync.
//   - Apply replays one record by re-executing its statement (without
//     re-logging); replay is deterministic because the dialect has no
//     nondeterministic functions.
//   - Snapshot/Restore serialize the catalog (schemas, indexes), all live
//     rows, and the per-table schema versions — restoring the versions
//     keeps compiled-plan invalidation monotonic across restarts.
type DurabilitySink interface {
	// LogMutation atomically applies a mutation and appends the WAL
	// record it returns (nil payload = nothing to log).
	LogMutation(apply func() (payload []byte, err error)) error
}

// durableBox fixes the concrete type stored in DB.durable (atomic.Value
// requires it).
type durableBox struct{ sink DurabilitySink }

// SetDurable attaches the write-ahead-log sink. Attach before serving
// traffic; mutations executed earlier (e.g. the generated base enterprise)
// are the implicit common base recovery replays on top of.
func (db *DB) SetDurable(sink DurabilitySink) {
	db.durable.Store(durableBox{sink: sink})
}

func (db *DB) durableSink() DurabilitySink {
	if v := db.durable.Load(); v != nil {
		return v.(durableBox).sink
	}
	return nil
}

// isMutationStmt reports whether the statement changes database state.
func isMutationStmt(st Statement) bool {
	switch st.(type) {
	case *InsertStmt, *UpdateStmt, *DeleteStmt, *CreateTableStmt, *CreateIndexStmt, *DropTableStmt:
		return true
	default:
		return false
	}
}

// walBufPool recycles record-encode buffers across mutations so durable
// writes do not allocate per statement.
var walBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

const walRecordVersion = 1

// appendWALRecord encodes (sql, params) into buf.
func appendWALRecord(buf []byte, sql string, params []Value) []byte {
	buf = append(buf, walRecordVersion)
	buf = durability.AppendString(buf, sql)
	buf = durability.AppendUvarint(buf, uint64(len(params)))
	for _, v := range params {
		buf = appendValue(buf, v)
	}
	return buf
}

func decodeWALRecord(rec []byte) (string, []Value, error) {
	d := durability.NewDec(rec)
	if v := d.Byte(); v != walRecordVersion {
		return "", nil, fmt.Errorf("relational: unknown wal record version %d", v)
	}
	sql := d.String()
	n := d.Uvarint()
	params := make([]Value, 0, n)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		params = append(params, decodeValue(d))
	}
	if err := d.Err(); err != nil {
		return "", nil, err
	}
	return sql, params, nil
}

// appendValue encodes one typed cell.
func appendValue(b []byte, v Value) []byte {
	b = append(b, byte(v.T))
	switch v.T {
	case TInt:
		b = durability.AppendVarint(b, v.I)
	case TFloat:
		b = durability.AppendFloat(b, v.F)
	case TString:
		b = durability.AppendString(b, v.S)
	case TBool:
		if v.B {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

func decodeValue(d *durability.Dec) Value {
	switch Type(d.Byte()) {
	case TInt:
		return NewInt(d.Varint())
	case TFloat:
		return NewFloat(d.Float())
	case TString:
		return NewString(d.String())
	case TBool:
		return NewBool(d.Byte() != 0)
	default:
		return Null
	}
}

// Apply replays one logged mutation: parse (statement-cache backed) and
// execute without re-logging. Statement execution errors are swallowed:
// the log records attempted mutations, including ones that failed midway
// with partial effects, and deterministic execution re-fails (and
// re-applies the same partial effect) identically on replay. It
// implements durability.Loggable.
func (db *DB) Apply(rec []byte) error {
	sql, params, err := decodeWALRecord(rec)
	if err != nil {
		return err
	}
	st, slot, binder, err := db.parseCached(sql)
	if err != nil {
		return fmt.Errorf("relational: replay parse %q: %w", sql, err)
	}
	// WAL records hold the original SQL text and the caller's explicit
	// params; the binder re-merges fingerprint-extracted literals exactly as
	// the live execution did (fingerprinting is deterministic over the text).
	_, _ = db.runVals(st, slot, binder.bind(params))
	return nil
}

const snapshotVersion = 1

// Snapshot serializes the catalog, all live rows and the schema versions.
// It implements durability.Loggable.
func (db *DB) Snapshot(w io.Writer) error {
	db.mu.RLock()
	keys := append([]string(nil), db.order...)
	tables := make([]*table, 0, len(keys))
	for _, k := range keys {
		tables = append(tables, db.tables[k])
	}
	schemaSeq := db.schemaSeq
	vers := make(map[string]uint64, len(db.vers))
	for k, v := range db.vers {
		vers[k] = v
	}
	db.mu.RUnlock()

	b := []byte{snapshotVersion}
	b = durability.AppendUvarint(b, schemaSeq)
	b = durability.AppendUvarint(b, uint64(len(vers)))
	for _, k := range sortedStrings(vers) {
		b = durability.AppendString(b, k)
		b = durability.AppendUvarint(b, vers[k])
	}
	b = durability.AppendUvarint(b, uint64(len(tables)))
	for _, t := range tables {
		t.mu.RLock()
		b = durability.AppendString(b, t.name)
		b = durability.AppendUvarint(b, uint64(len(t.schema.Columns)))
		for _, c := range t.schema.Columns {
			b = durability.AppendString(b, c.Name)
			b = append(b, byte(c.Type))
		}
		b = durability.AppendUvarint(b, uint64(len(t.indexes)))
		for _, col := range sortedIndexCols(t.indexes) {
			ix := t.indexes[col]
			b = durability.AppendString(b, ix.name)
			b = durability.AppendString(b, ix.column)
			b = append(b, byte(ix.kind))
		}
		b = durability.AppendUvarint(b, uint64(t.liveCnt))
		for id, row := range t.rows {
			if !t.live[id] {
				continue
			}
			for _, v := range row {
				b = appendValue(b, v)
			}
		}
		t.mu.RUnlock()
		if _, err := w.Write(b); err != nil {
			return err
		}
		b = b[:0]
	}
	_, err := w.Write(b)
	return err
}

// Restore replaces the whole database with a Snapshot's contents and
// flushes the statement cache (cached plans refer to dropped catalogs).
// It implements durability.Loggable.
func (db *DB) Restore(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	d := durability.NewDec(data)
	if v := d.Byte(); v != snapshotVersion {
		return fmt.Errorf("relational: unknown snapshot version %d", v)
	}
	schemaSeq := d.Uvarint()
	nvers := d.Uvarint()
	vers := make(map[string]uint64, nvers)
	for i := uint64(0); i < nvers && d.Err() == nil; i++ {
		k := d.String()
		vers[k] = d.Uvarint()
	}
	ntables := d.Uvarint()
	tables := make(map[string]*table, ntables)
	var order []string
	for ti := uint64(0); ti < ntables && d.Err() == nil; ti++ {
		name := d.String()
		ncols := d.Uvarint()
		schema := Schema{Columns: make([]Column, 0, ncols)}
		for i := uint64(0); i < ncols && d.Err() == nil; i++ {
			cn := d.String()
			schema.Columns = append(schema.Columns, Column{Name: cn, Type: Type(d.Byte())})
		}
		type idxMeta struct {
			name, column string
			kind         IndexKind
		}
		nidx := d.Uvarint()
		idxs := make([]idxMeta, 0, nidx)
		for i := uint64(0); i < nidx && d.Err() == nil; i++ {
			in := d.String()
			ic := d.String()
			idxs = append(idxs, idxMeta{name: in, column: ic, kind: IndexKind(d.Byte())})
		}
		nrows := d.Uvarint()
		t := &table{name: name, schema: schema, indexes: make(map[string]*indexDef)}
		t.rows = make([]Row, 0, nrows)
		for ri := uint64(0); ri < nrows && d.Err() == nil; ri++ {
			row := make(Row, len(schema.Columns))
			for ci := range row {
				row[ci] = decodeValue(d)
			}
			t.rows = append(t.rows, row)
			t.live = append(t.live, true)
		}
		t.liveCnt = len(t.rows)
		for _, im := range idxs {
			col := schema.ColIndex(im.column)
			if col < 0 {
				return fmt.Errorf("relational: snapshot index %s on unknown column %s.%s", im.name, name, im.column)
			}
			ix := &indexDef{name: im.name, column: im.column, col: col, kind: im.kind}
			if im.kind == HashIndex {
				ix.hash = make(map[string][]int)
			} else {
				ix.order = newOrderedIndex()
			}
			for id, row := range t.rows {
				ix.add(id, row[ix.col])
			}
			t.indexes[strings.ToLower(im.column)] = ix
		}
		key := strings.ToLower(name)
		if _, dup := tables[key]; dup {
			return fmt.Errorf("relational: snapshot has duplicate table %s", name)
		}
		tables[key] = t
		order = append(order, key)
	}
	if err := d.Err(); err != nil {
		return err
	}
	if d.Len() != 0 {
		return errors.New("relational: trailing bytes in snapshot")
	}

	db.mu.Lock()
	db.tables = tables
	db.order = order
	db.vers = vers
	db.schemaSeq = schemaSeq
	db.mu.Unlock()
	db.stmts.flushAll()
	return nil
}

func sortedStrings(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedIndexCols(m map[string]*indexDef) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
