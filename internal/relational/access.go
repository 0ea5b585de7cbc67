package relational

import (
	"fmt"
	"strings"
)

// Access paths: the sargable candidates of a WHERE clause, extracted at compile
// time, and the choice among them against the live indexes and the bound
// values of one execution (see compile.go for the file map).

// valueGetter resolves one comparison operand at execution time: a captured
// literal, or a parameter slot (explicit or auto-extracted). ok is false
// when the slot is unbound.
type valueGetter func(params []Value) (Value, bool)

type accessCandKind int

const (
	candBinary accessCandKind = iota
	candIn
)

// accessCand is one WHERE conjunct precompiled for access-path planning.
// For binary comparisons both orientations are recorded when syntactically
// eligible ("col op const" forward, "const op col" reversed with the
// operator pre-flipped); which one applies is decided per execution, after
// the index and the bound value are known — exactly the precedence of the
// reference planAccess.
type accessCand struct {
	kind accessCandKind

	fwdCol string // lowercased base-table column, "" if ineligible
	fwdOp  string
	fwdVal valueGetter
	revCol string
	revOp  string
	revVal valueGetter

	col   string        // IN column
	items []valueGetter // IN list operands
	n     int           // len of the original IN list (for the plan line)
}

// constGetter compiles a constant-valued operand (literal or parameter);
// nil if the expression is not a planning-time constant.
func constGetter(e Expr) valueGetter {
	switch x := e.(type) {
	case *Literal:
		v := x.Val
		return func([]Value) (Value, bool) { return v, true }
	case *Param:
		ord := x.Ordinal
		return func(params []Value) (Value, bool) {
			if unbound(params, ord) {
				return Null, false
			}
			return params[ord-1], true
		}
	}
	return nil
}

// baseColumn returns the lowercased column name when e is a column reference,
// else "".
func baseColumn(e Expr) string {
	cr, ok := e.(*ColumnRef)
	if !ok {
		return ""
	}
	return strings.ToLower(cr.Column)
}

// buildAccessCands extracts the sargable candidates from the WHERE
// conjuncts at compile time. Conjunct order is preserved: the per-execution
// planner considers candidates in the same order as the reference one, so
// its strict tie-break picks the same winner.
func buildAccessCands(where Expr) []accessCand {
	if where == nil {
		return nil
	}
	var out []accessCand
	for _, cj := range splitAnd(where) {
		switch x := cj.(type) {
		case *BinaryExpr:
			if _, sarg := flippedOp[x.Op]; !sarg {
				continue
			}
			c := accessCand{kind: candBinary}
			if col := baseColumn(x.L); col != "" {
				if g := constGetter(x.R); g != nil {
					c.fwdCol, c.fwdOp, c.fwdVal = col, x.Op, g
				}
			}
			if col := baseColumn(x.R); col != "" {
				if g := constGetter(x.L); g != nil {
					c.revCol, c.revOp, c.revVal = col, flippedOp[x.Op], g
				}
			}
			if c.fwdCol != "" || c.revCol != "" {
				out = append(out, c)
			}
		case *InExpr:
			if x.Not {
				continue
			}
			col := baseColumn(x.E)
			if col == "" {
				continue
			}
			c := accessCand{kind: candIn, col: col, n: len(x.List)}
			ok := true
			for _, item := range x.List {
				g := constGetter(item)
				if g == nil {
					ok = false
					break
				}
				c.items = append(c.items, g)
			}
			if ok {
				out = append(out, c)
			}
		}
	}
	return out
}

// planAccessCompiled walks the precompiled candidates against the live index
// set and this execution's bound values, producing the access path (and plan
// line) the reference planner (planAccess, interp_test.go) chooses for the
// equivalent literal text.
func (p *selectProgram) planAccessCompiled(t *table, params []Value) accessPath {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return planAccessLocked(t, p.access, params, p.sel.Explain, false)
}

// planAccessLocked picks the best access path for the precompiled candidates
// under this execution's bound values. The caller holds t.mu (read or write).
// The desc plan line is rendered only when wantDesc (EXPLAIN): ordinary
// queries never pay for it. sameClass is for a caller that must visit exactly
// the rows a scan would match (DML): an index then serves only a value of its
// column's own class — a number for a numeric column, else the column's type —
// because it files values by key and by Compare, and across classes the
// predicate's Equal (3 = '3') finds rows neither does.
func planAccessLocked(t *table, access []accessCand, params []Value, wantDesc, sameClass bool) accessPath {
	if len(access) == 0 || len(t.indexes) == 0 {
		if !wantDesc {
			return accessPath{all: true}
		}
		return accessPath{desc: "SeqScan(" + t.name + ")", all: true}
	}
	// candidate carries what the winner's plan line needs; the desc string is
	// rendered once, for the winning candidate only, at the end — losers must
	// not cost a formatted string per execution.
	type candidate struct {
		rank int
		ids  []int
		ix   *indexDef
		op   string // "=", "<", "<=", ">", ">=", "IN"
		v    Value
		n    int // IN list length
	}
	var (
		best  candidate
		found bool
	)
	consider := func(c candidate) {
		if !found || c.rank < best.rank || (c.rank == best.rank && len(c.ids) < len(best.ids)) {
			best = c
			found = true
		}
	}
	serves := func(ix *indexDef, v Value) bool {
		if !sameClass || v.IsNull() {
			return true
		}
		switch ct := t.schema.Columns[ix.col].Type; ct {
		case TInt, TFloat:
			return v.T == TInt || v.T == TFloat
		default:
			return v.T == ct
		}
	}
	// resolve maps a binary candidate onto the live index set for this
	// execution's bound values: the forward orientation wins when both sides
	// are indexed, matching the reference planner.
	resolve := func(ac *accessCand) (*indexDef, Value, string) {
		if ac.fwdCol != "" {
			if cand := t.indexes[ac.fwdCol]; cand != nil {
				if fv, ok := ac.fwdVal(params); ok && !fv.IsNull() && serves(cand, fv) {
					return cand, fv, ac.fwdOp
				}
			}
		}
		if ac.revCol != "" {
			if cand := t.indexes[ac.revCol]; cand != nil {
				if rv, ok := ac.revVal(params); ok && !rv.IsNull() && serves(cand, rv) {
					return cand, rv, ac.revOp
				}
			}
		}
		return nil, Null, ""
	}
	// Candidates are considered strictly by rank: equality (0), then IN (1),
	// then ranges (2). A lower rank always wins regardless of result size, so
	// once any candidate matched at one tier the cheaper tiers below it are
	// never materialized — a point lookup guarded by a broad sargable range
	// (`id = 7 AND salary < 999999`) must not pay for collecting the range's
	// ids just to discard them.
	for i := range access {
		ac := &access[i]
		if ac.kind != candBinary {
			continue
		}
		if ix, v, op := resolve(ac); ix != nil && op == "=" {
			consider(candidate{rank: 0, ids: ix.lookupEqLocked(v), ix: ix, op: "=", v: v})
		}
	}
	if !found {
		for i := range access {
			ac := &access[i]
			if ac.kind != candIn {
				continue
			}
			ix := t.indexes[ac.col]
			if ix == nil {
				continue
			}
			var ids []int
			ok := true
			for _, g := range ac.items {
				v, o := g(params)
				if !o || !serves(ix, v) {
					ok = false
					break
				}
				ids = append(ids, ix.lookupEqLocked(v)...)
			}
			if ok {
				consider(candidate{rank: 1, ids: dedupInts(ids), ix: ix, op: "IN", n: ac.n})
			}
		}
	}
	if !found {
		for i := range access {
			ac := &access[i]
			if ac.kind != candBinary {
				continue
			}
			ix, v, op := resolve(ac)
			if ix == nil || ix.kind != OrderedIndex {
				continue
			}
			switch op {
			case "<", "<=":
				consider(candidate{rank: 2, ids: ix.order.lookupRange(Null, v, false, op == "<"), ix: ix, op: op, v: v})
			case ">", ">=":
				consider(candidate{rank: 2, ids: ix.order.lookupRange(v, Null, op == ">", false), ix: ix, op: op, v: v})
			}
		}
	}
	if !found {
		if !wantDesc {
			return accessPath{all: true}
		}
		return accessPath{desc: "SeqScan(" + t.name + ")", all: true}
	}
	if !wantDesc {
		return accessPath{ids: best.ids}
	}
	var b strings.Builder
	b.Grow(64)
	switch best.op {
	case "=":
		b.WriteString("IndexScan(")
		b.WriteString(t.name)
		b.WriteByte('.')
		b.WriteString(best.ix.column)
		b.WriteString(" = ")
		writeValueDisplay(&b, best.v)
		b.WriteString(", ")
		b.WriteString(best.ix.kind.String())
		b.WriteByte(')')
	case "IN":
		fmt.Fprintf(&b, "IndexScan(%s.%s IN [%d values], %s)", t.name, best.ix.column, best.n, best.ix.kind)
	default: // <, <=, >, >=
		b.WriteString("IndexRange(")
		b.WriteString(t.name)
		b.WriteByte('.')
		b.WriteString(best.ix.column)
		b.WriteByte(' ')
		b.WriteString(best.op)
		b.WriteByte(' ')
		writeValueDisplay(&b, best.v)
		b.WriteByte(')')
	}
	return accessPath{desc: b.String(), ids: best.ids}
}
