package relational

import (
	"errors"
	"fmt"
	"sort"
)

// Aggregation: accumulator slots folded during the scan, aggregate
// expressions over a group, and the grouped tail of a SELECT (see compile.go
// for the file map).

// compiledAggExpr evaluates an expression that may contain aggregates over
// one group, reading the accumulators folded while its rows were scanned.
type compiledAggExpr func(g *aggGroup, params []Value) (Value, error)

// aggFn is the fold an accumulator slot runs.
type aggFn int

const (
	aggCount aggFn = iota
	aggSum
	aggAvg
	aggMin
	aggMax
)

// aggSlot is one aggregate call of the select items, lowered at compile
// time: every group of an execution carries one accumulator per slot, folded
// as the group's rows are scanned.
type aggSlot struct {
	fn   aggFn
	name string // SQL name, for SUM/AVG's error text
	// The argument: the cell at offset col when it is a bare column, read in
	// place; else col is -1 and arg evaluates it.
	col int
	arg compiledExpr
}

// accumulator is the running state of one aggregate call over one group.
// The zero value is the state over zero rows.
type accumulator struct {
	n      int     // non-NULL values folded
	sum    float64 // SUM/AVG
	nonInt bool    // SUM saw a value that is not an INT
	best   Value   // MIN/MAX
	// err is the first evaluation error of the argument: the accumulator
	// stopped there. nonNumeric marks a SUM/AVG that met a non-numeric value:
	// the interpreter type-checks only after it has evaluated every row, so
	// the fold keeps evaluating (for an evaluation error, which outranks it)
	// and stops adding.
	err        error
	nonNumeric bool
}

// fold adds one row of the group to acc.
func (s *aggSlot) fold(acc *accumulator, row Row, params []Value) {
	if acc.err != nil {
		return
	}
	var v *Value
	if s.col >= 0 {
		v = &row[s.col]
	} else {
		val, err := s.arg(row, params)
		if err != nil {
			acc.err = err
			return
		}
		v = &val
	}
	if v.IsNull() {
		return
	}
	switch s.fn {
	case aggMin, aggMax:
		if acc.n == 0 {
			acc.best = *v
		} else if c := Compare(*v, acc.best); (s.fn == aggMin && c < 0) || (s.fn == aggMax && c > 0) {
			acc.best = *v
		}
		acc.n++
		return
	case aggCount:
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
	slot := aggSlot{name: a.Fn, col: -1}
	if ref, ok := a.Arg.(*ColumnRef); ok {
		if i, err := resolveCol(c.cols, ref); err == nil {
			slot.col = i
		}
	}
	if slot.col < 0 {
		slot.arg = c.expr(a.Arg)
	}
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

// buildAggregate compiles the items and GROUP BY keys of an aggregated SELECT.
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
}

// runAggregate executes the grouped/aggregated tail of a compiled SELECT:
// fused filter+group with binary bucket keys, every passing row folded into
// its group's accumulators as it is scanned (no row is kept but each group's
// first), then DISTINCT, ORDER BY (output columns only) and OFFSET/LIMIT with
// the interpreter's plan-line behaviour.
//
// Errors surface in the interpreter's order although the work is fused: a
// WHERE error at any row ends the scan, so it precedes every aggregate error;
// an accumulator keeps the first error its argument raised (in row order) and
// raises it only when its result is read, which happens group by group, items
// left to right.
func (db *DB) runAggregate(p *selectProgram, iter rowIter, params []Value, planLines *[]string) (*Result, error) {
	sel := p.sel
	var groups []*aggGroup
	// byKey files the groups under the binary encoding of their key cells;
	// byText, under a lone GROUP BY column, those whose cell is TEXT under the
	// cell's string itself. A TEXT cell's encoding is its string behind a tag
	// and no other class shares the tag, so the groups are the same either way.
	var byKey, byText map[string]*aggGroup
	if len(sel.GroupBy) == 0 {
		// The global group exists over empty input too.
		groups = []*aggGroup{p.newAggGroup()}
	} else {
		byKey = make(map[string]*aggGroup)
		if len(p.groupBy) == 1 {
			byText = make(map[string]*aggGroup)
		}
	}
	var scratch []byte
	passed := false
	err := iter(func(r Row) error {
		if p.where != nil {
			if ok, err := p.where(r, params); !ok || err != nil {
				return err
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
		} else if cell := &r[p.groupBy[0]]; byText != nil && cell.T == TString {
			if g = byText[cell.S]; g == nil {
				g = p.newAggGroup()
				byText[cell.S] = g
				groups = append(groups, g)
			}
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
			p.aggSlots[i].fold(&g.accs[i], r, params)
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
