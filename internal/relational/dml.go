package relational

import (
	"fmt"
	"strings"
)

// execInsert evaluates row expressions (literals and parameters only) and
// appends them, honoring an optional explicit column list.
func (db *DB) execInsert(ins *InsertStmt, params []Value) (*Result, error) {
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
// interpreted evaluator. The compiled path (compile.go) mirrors this loop with
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
	cols := make([]envCol, len(t.schema.Columns))
	baseName := strings.ToLower(up.Table)
	for i, c := range t.schema.Columns {
		cols[i] = envCol{table: baseName, name: strings.ToLower(c.Name)}
	}
	e := &env{cols: cols}

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
	cols := make([]envCol, len(t.schema.Columns))
	baseName := strings.ToLower(del.Table)
	for i, c := range t.schema.Columns {
		cols[i] = envCol{table: baseName, name: strings.ToLower(c.Name)}
	}
	e := &env{cols: cols}

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
