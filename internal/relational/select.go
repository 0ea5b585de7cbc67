package relational

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"blueprint/internal/topk"
)

// The SELECT program: its build, the fused scan and the non-aggregated tail —
// projection, DISTINCT, ORDER BY, OFFSET/LIMIT (see compile.go for the file
// map).

type selectProgram struct {
	sel       *SelectStmt
	baseTable string // lowercased storage key
	baseVer   uint64
	// exprs compiled every expression of the statement over the table's layout.
	exprs     exprCompiler
	where     compiledPred
	whereDesc string
	// whereAuto marks WHERE trees containing auto-extracted literal params:
	// their Filter(...) plan line depends on the bound values (rendered per
	// execution by filterDesc so a shape-cached plan prints the literals of
	// the text that ran).
	whereAuto bool
	// access holds the precompiled sargable-predicate candidates extracted
	// from the WHERE conjuncts. Index existence and kind are resolved per
	// execution (planAccessLocked), so a CREATE INDEX is picked up without
	// recompiling and a shape-shared plan chooses its access path from the
	// literals bound to this execution.
	access []accessCand

	columns  []string
	outWidth int

	aggregated bool
	items      []itemProgram // non-aggregated projection
	// starOnly marks an item list that is a lone `*`: the projection of a row
	// is the row itself, so the result aliases stored rows.
	starOnly bool
	aggItems []compiledAggExpr
	aggSlots []aggSlot // accumulator slots of aggItems
	groupBy  []int
	aggDesc  string // "GroupBy(n keys)" or "Aggregate"
	// aggErr is what the interpreter reports as it starts aggregating, once
	// the filter has seen every row: `SELECT *` beside aggregates, or — only
	// if a row passed the filter (aggErrLazy) — a GROUP BY key that does not
	// resolve. Items are not compiled then.
	aggErr     error
	aggErrLazy bool

	orderBy  []orderProgram
	sortDesc string
	// orderErr is the interpreter's refusal of an aggregate ORDER BY key that
	// is not an output column, raised where it sorts: after every group was
	// computed, even when there is none.
	orderErr error
	// orderOnInput: some ORDER BY key of a non-aggregated SELECT is evaluated
	// on the input row. Under DISTINCT the interpreter then demands as many
	// output rows as input rows, that is, that DISTINCT dropped nothing.
	orderOnInput bool
}

var errOrderRowCount = errors.New("relational: internal: row count mismatch in ORDER BY")

type itemProgram struct {
	star bool
	f    compiledExpr
}

type orderProgram struct {
	outIdx int          // >= 0: sort key is this output column
	f      compiledExpr // else: evaluated against the input row
	desc   bool
}

func itemName(it SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if c, ok := it.Expr.(*ColumnRef); ok {
		return c.Column
	}
	return exprString(it.Expr)
}

func distinctRows(rows []Row) []Row {
	seen := make(map[string]struct{}, len(rows))
	out := rows[:0:0]
	var scratch []byte
	for _, r := range rows {
		scratch = appendRowKey(scratch[:0], r)
		if _, dup := seen[string(scratch)]; dup {
			continue
		}
		seen[string(scratch)] = struct{}{}
		out = append(out, r)
	}
	return out
}

func outColumnIndex(columns []string, name string) int {
	for i, c := range columns {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// buildSelectProgram compiles sel. Its one error is the one the interpreter
// reports before it reads a row: a missing table.
func (db *DB) buildSelectProgram(sel *SelectStmt) (*selectProgram, error) {
	base, baseVer, err := db.tableVer(sel.From)
	if err != nil {
		return nil, err
	}
	p := &selectProgram{
		sel:       sel,
		baseTable: strings.ToLower(sel.From),
		baseVer:   baseVer,
	}
	cols := tableLayout(base)
	pretty := base.schema.Names()
	p.exprs.cols = cols
	c := &p.exprs

	if sel.Where != nil {
		p.where = c.pred(sel.Where)
		p.whereAuto = hasAutoParam(sel.Where)
		p.whereDesc = "Filter(" + exprString(sel.Where) + ")"
	}
	p.access = buildAccessCands(sel.Where)

	p.aggregated = len(sel.GroupBy) > 0
	for _, it := range sel.Items {
		if !it.Star && hasAggregate(it.Expr) {
			p.aggregated = true
		}
	}

	if p.aggregated {
		p.buildAggregate()
	} else {
		for _, it := range sel.Items {
			if it.Star {
				p.columns = append(p.columns, pretty...)
				p.items = append(p.items, itemProgram{star: true})
				p.outWidth += len(cols)
				continue
			}
			p.columns = append(p.columns, itemName(it))
			p.items = append(p.items, itemProgram{f: c.expr(it.Expr)})
			p.outWidth++
		}
		p.starOnly = len(sel.Items) == 1 && sel.Items[0].Star
	}

	for _, ob := range sel.OrderBy {
		op := orderProgram{outIdx: -1, desc: ob.Desc}
		if cr, ok := ob.Expr.(*ColumnRef); ok {
			op.outIdx = outColumnIndex(p.columns, cr.Column)
		}
		if op.outIdx < 0 {
			if p.aggregated {
				if p.orderErr == nil {
					p.orderErr = fmt.Errorf("relational: ORDER BY key %q must be an output column in aggregate queries", exprString(ob.Expr))
				}
			} else {
				op.f = c.expr(ob.Expr)
				p.orderOnInput = true
			}
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

// rowArena block-allocates fixed-width output rows: one []Value chunk
// serves many rows, so the steady state of a projection loop does one
// allocation per chunk instead of one per row. Rows handed out are
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

// rowIter drives rows through a visitor: the scan iterates the table under
// its read lock without materializing a snapshot slice — the fused
// scan→filter→project pipeline.
type rowIter func(visit func(Row) error) error

// runSelectProgram plans the access path and scans it under one hold of the
// table's read lock, the rows streaming straight from storage into the
// filter and the aggregation or projection of the tail, then assembles the
// plan string of an EXPLAIN.
func (db *DB) runSelectProgram(p *selectProgram, params []Value) (*Result, error) {
	sel := p.sel
	base, ver, err := db.tableVer(sel.From)
	if err != nil || ver != p.baseVer {
		return nil, errStalePlan
	}

	var planLines []string
	// The tail calls iter once, before it adds a plan line of its own.
	iter := func(visit func(Row) error) error {
		base.mu.RLock()
		defer base.mu.RUnlock()
		path := planAccessLocked(base, p.access, params, sel.Explain)
		if sel.Explain {
			planLines = append(make([]string, 0, 8), path.desc)
		}
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
		// One of the two views holds the candidates.
		for _, id := range path.ids {
			if base.live[id] {
				if err := visit(base.rows[id]); err != nil {
					return err
				}
			}
		}
		for i := range path.entries {
			if id := path.entries[i].id; base.live[id] {
				if err := visit(base.rows[id]); err != nil {
					return err
				}
			}
		}
		return nil
	}

	var out *Result
	if p.aggregated {
		out, err = db.runAggregate(p, iter, params, &planLines)
	} else {
		out, err = db.runProject(p, iter, params, &planLines)
	}
	if err != nil {
		return nil, err
	}
	if sel.Explain {
		out.Plan = strings.Join(planLines, " -> ")
		return &Result{Columns: []string{"plan"}, Rows: []Row{{NewString(out.Plan)}}, Plan: out.Plan}, nil
	}
	return out, nil
}

// runProject executes the non-aggregated tail: a fused scan→filter→project
// pipeline that streams rows straight into the result, deduplicates DISTINCT
// through binary keys, stops early once OFFSET+LIMIT rows are produced, and
// serves ORDER BY + LIMIT through a bounded top-k heap.
//
// The interpreter filters every row, then projects every row, then evaluates
// the ORDER BY keys key by key, so although the work is fused a WHERE error at
// any row is the statement's error; a projection error (projErr) waits for the
// filter to finish and outranks every ORDER BY error; of those (ordErr) the
// one on the earliest key wins, then the earliest row. And the scan stops
// early only in an execution where nothing it would skip can raise.
func (db *DB) runProject(p *selectProgram, iter rowIter, params []Value, planLines *[]string) (*Result, error) {
	sel := p.sel
	out := &Result{Columns: p.columns}

	// A lone `*` projects a row onto itself: the result shares the stored row,
	// which nothing writes again, instead of copying it.
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
	var projErr error

	if len(p.orderBy) == 0 {
		need := -1
		if sel.Limit >= 0 {
			need = sel.Offset + sel.Limit
		}
		stopEarly := need >= 0 && !p.exprs.canRaise(params)
		sawMore := false
		err := iter(func(r Row) error {
			if p.where != nil {
				if ok, err := p.where(r, params); !ok || err != nil {
					return err
				}
			}
			if projErr != nil {
				return nil
			}
			full := need >= 0 && len(out.Rows) == need
			if full && seen == nil && stopEarly {
				// Stop before projecting a row nobody asked for.
				sawMore = true
				return errStopScan
			}
			or, err := project(r)
			if err != nil {
				projErr = err
				return nil
			}
			if seen != nil {
				scratch = appendRowKey(scratch[:0], or)
				if _, dup := seen[string(scratch)]; dup {
					unproject()
					return nil
				}
			}
			if full {
				// One more row than asked for. Whether others follow does not
				// change the result; whether they raise does.
				sawMore = true
				if stopEarly {
					return errStopScan
				}
				unproject()
				return nil
			}
			if seen != nil {
				seen[string(scratch)] = struct{}{}
			}
			out.Rows = append(out.Rows, or)
			return nil
		})
		if err != nil && err != errStopScan {
			return nil, err
		}
		if projErr != nil {
			return nil, projErr
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
	var ordErr error
	ordErrKey := len(p.orderBy) // keys from here on cannot change the outcome
	dropped := false            // DISTINCT removed a row
	err := iter(func(r Row) error {
		if p.where != nil {
			if ok, err := p.where(r, params); !ok || err != nil {
				return err
			}
		}
		if projErr != nil {
			return nil
		}
		or, err := project(r)
		if err != nil {
			projErr = err
			return nil
		}
		if seen != nil {
			scratch = appendRowKey(scratch[:0], or)
			if _, dup := seen[string(scratch)]; dup {
				unproject()
				dropped = true
				return nil
			}
			seen[string(scratch)] = struct{}{}
		}
		keys := make([]Value, len(p.orderBy))
		for ki, op := range p.orderBy[:ordErrKey] {
			if op.outIdx >= 0 {
				keys[ki] = or[op.outIdx]
				continue
			}
			v, err := op.f(r, params)
			if err != nil {
				ordErr, ordErrKey = err, ki
				break
			}
			keys[ki] = v
		}
		if ordErr != nil {
			return nil
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
	switch {
	case err != nil:
		return nil, err
	case projErr != nil:
		return nil, projErr
	case dropped && p.orderOnInput:
		return nil, errOrderRowCount
	case ordErr != nil:
		return nil, ordErr
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
