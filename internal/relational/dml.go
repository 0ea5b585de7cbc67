package relational

import (
	"fmt"
	"strings"
)

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
