package relational

import (
	"fmt"
	"sort"
	"strings"
)

// The INSERT, UPDATE and DELETE programs (see compile.go for the file map).

// insertProgram is a compiled INSERT: the VALUES cells lowered over an empty
// layout (literals and parameters evaluate, a column reference raises when
// its cell is reached) and the explicit column list resolved to offsets.
type insertProgram struct {
	ins   *InsertStmt
	table string // lowercased storage key
	ver   uint64
	width int   // the table's column count
	cols  []int // offset of each listed column, -1 if the table has none such; nil without a list
	rows  [][]compiledExpr
}

func (db *DB) buildInsertProgram(ins *InsertStmt) (*insertProgram, error) {
	t, ver, err := db.tableVer(ins.Table)
	if err != nil {
		return nil, err
	}
	p := &insertProgram{ins: ins, table: strings.ToLower(ins.Table), ver: ver, width: len(t.schema.Columns)}
	for _, cn := range ins.Columns {
		p.cols = append(p.cols, t.schema.ColIndex(cn))
	}
	var c exprCompiler
	for _, exprRow := range ins.Rows {
		cells := make([]compiledExpr, len(exprRow))
		for i, x := range exprRow {
			cells[i] = c.expr(x)
		}
		p.rows = append(p.rows, cells)
	}
	return p, nil
}

// runInsertProgram appends the statement's rows one by one, honoring an
// optional explicit column list: a row of the wrong arity, a listed column
// the table lacks or a cell that raises ends the statement there, with the
// rows before it inserted.
func (db *DB) runInsertProgram(p *insertProgram, params []Value) (*Result, error) {
	t, ver, err := db.tableVer(p.table)
	if err != nil || ver != p.ver {
		return nil, errStalePlan
	}
	n := 0
	for _, cells := range p.rows {
		row := make(Row, p.width) // the zero Value is NULL
		if want := len(p.ins.Columns); want > 0 {
			if len(cells) != want {
				return nil, fmt.Errorf("%w: %d values for %d columns", ErrArity, len(cells), want)
			}
			for i, ci := range p.cols {
				if ci < 0 {
					return nil, fmt.Errorf("%w: %s.%s", ErrColumnUnknown, p.ins.Table, p.ins.Columns[i])
				}
				if row[ci], err = cells[i](nil, params); err != nil {
					return nil, err
				}
			}
		} else {
			if len(cells) != p.width {
				return nil, fmt.Errorf("%w: %d values for %d columns", ErrArity, len(cells), p.width)
			}
			for i, cell := range cells {
				if row[i], err = cell(nil, params); err != nil {
					return nil, err
				}
			}
		}
		if err := t.insert(row); err != nil {
			return nil, err
		}
		n++
	}
	return affected(n), nil
}

type updateProgram struct {
	table   string
	ver     uint64
	exprs   exprCompiler
	where   compiledPred
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
	where  compiledPred
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
	p.exprs.cols = tableLayout(t)
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
		p.where = p.exprs.pred(up.Where)
		p.access = buildAccessCands(up.Where)
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
		p.exprs.cols = tableLayout(t)
		p.where = p.exprs.pred(del.Where)
		p.access = buildAccessCands(del.Where)
	}
	return p, nil
}

// dmlCandidates returns the row ids a compiled DML statement must visit, in
// ascending order — the order the interpreter scans in, which decides what a
// statement that fails midway leaves behind — using the same staged access
// planner as compiled SELECTs. The returned slice is a private copy of the
// planner's view: the statement body mutates rows and the index postings the
// view reads. A nil slice with all=true means the caller scans the whole
// table: no sargable candidate matched, or an expression of the statement
// can raise in this execution, and the interpreter would have met that on a
// row an index skips. The caller holds t.mu for writing.
func dmlCandidates(t *table, exprs *exprCompiler, access []accessCand, params []Value) (ids []int, all bool) {
	if len(access) == 0 || exprs.canRaise(params) {
		return nil, true
	}
	path := planAccessLocked(t, access, params, false)
	if path.all {
		return nil, true
	}
	ids = path.appendIDs(make([]int, 0, path.len()))
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
			if ok, err := p.where(row, params); !ok || err != nil {
				return err
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
			if ok, err := p.where(t.rows[id], params); !ok || err != nil {
				return err
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
