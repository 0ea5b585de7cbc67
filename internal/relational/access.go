package relational

import (
	"fmt"
	"strings"
)

// Access paths: the sargable candidates of a WHERE clause, extracted at compile
// time, and the choice among them against the live indexes and the bound
// values of one execution (see compile.go for the file map).

// constOperand is the constant side of a comparison, resolved at execution
// time: a captured literal, or the parameter slot ord (explicit or
// auto-extracted; 0 for a literal), reported as parameter disp where an
// execution that left it unbound evaluates it.
type constOperand struct {
	lit       Value
	ord, disp int
}

// newConstOperand compiles a constant-valued operand (literal or parameter);
// nil if the expression is not a planning-time constant.
func newConstOperand(e Expr) *constOperand {
	switch x := e.(type) {
	case *Literal:
		return &constOperand{lit: x.Val}
	case *Param:
		return &constOperand{ord: x.Ordinal, disp: paramSrc(x)}
	}
	return nil
}

// value returns the constant in place — it is not copied — or nil when the
// slot is unbound.
func (k *constOperand) value(params []Value) *Value {
	if k.ord == 0 {
		return &k.lit
	}
	if unbound(params, k.ord) {
		return nil
	}
	return &params[k.ord-1]
}

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
	fwdVal *constOperand
	revCol string
	revOp  string
	revVal *constOperand

	col   string          // IN column
	items []*constOperand // IN list operands
	n     int             // len of the original IN list (for the plan line)
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
				if g := newConstOperand(x.R); g != nil {
					c.fwdCol, c.fwdOp, c.fwdVal = col, x.Op, g
				}
			}
			if col := baseColumn(x.R); col != "" {
				if g := newConstOperand(x.L); g != nil {
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
				g := newConstOperand(item)
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

// accessPath is the planner's choice for reading the base table: every row
// (all), or the rows an index files under the winning predicate. ids and
// entries are views of index storage — a hash posting list itself, a run of
// an ordered index's entries — not copies (an IN list's merged postings, which
// no index stores, are the one list made for the path): a path is valid only
// while the caller still holds the t.mu it planned under, and a caller that
// will write the index copies it first (dmlCandidates). At most one of the
// two is non-empty, and its order is the order the rows are visited in.
type accessPath struct {
	desc    string
	all     bool
	ids     []int
	entries []orderedEntry
}

func (p *accessPath) len() int { return len(p.ids) + len(p.entries) }

// appendIDs appends the path's row ids to dst, in visiting order — the one
// way they are copied out: into an IN list's merge, into a DML statement's
// private list.
func (p *accessPath) appendIDs(dst []int) []int {
	dst = append(dst, p.ids...)
	for i := range p.entries {
		dst = append(dst, p.entries[i].id)
	}
	return dst
}

// planAccessLocked walks the precompiled candidates against the live index
// set and this execution's bound values, producing the access path (and plan
// line) the reference planner (planAccess, interp_test.go) chooses for the
// equivalent literal text. The caller holds t.mu (read or write) and keeps
// holding it for as long as it reads the path. The desc plan line is
// rendered only when wantDesc (EXPLAIN): ordinary queries never pay for it.
//
// An index serves only a value of its column's own class — a number for a
// numeric column, else the column's type — because it files values by key and
// by Compare, and across classes the predicate's Equal (3 = '3') finds rows
// neither does, and Compare's order is not the one the entries are sorted in.
// A value of another class leaves the conjunct to the scan.
func planAccessLocked(t *table, access []accessCand, params []Value, wantDesc bool) accessPath {
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
		path accessPath
		ix   *indexDef
		op   string // "=", "<", "<=", ">", ">=", "IN"
		v    *Value
		n    int // IN list length
	}
	var (
		best  candidate
		found bool
	)
	consider := func(c candidate) {
		if !found || c.rank < best.rank || (c.rank == best.rank && c.path.len() < best.path.len()) {
			best = c
			found = true
		}
	}
	serves := func(ix *indexDef, v *Value) bool {
		if v.IsNull() {
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
	resolve := func(ac *accessCand) (*indexDef, *Value, string) {
		if ac.fwdCol != "" {
			if cand := t.indexes[ac.fwdCol]; cand != nil {
				if fv := ac.fwdVal.value(params); fv != nil && !fv.IsNull() && serves(cand, fv) {
					return cand, fv, ac.fwdOp
				}
			}
		}
		if ac.revCol != "" {
			if cand := t.indexes[ac.revCol]; cand != nil {
				if rv := ac.revVal.value(params); rv != nil && !rv.IsNull() && serves(cand, rv) {
					return cand, rv, ac.revOp
				}
			}
		}
		return nil, nil, ""
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
			consider(candidate{rank: 0, path: ix.eqView(*v), ix: ix, op: "=", v: v})
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
				v := g.value(params)
				if v == nil || !serves(ix, v) {
					ok = false
					break
				}
				eq := ix.eqView(*v)
				ids = eq.appendIDs(ids)
			}
			if ok {
				consider(candidate{rank: 1, path: accessPath{ids: dedupInts(ids)}, ix: ix, op: "IN", n: ac.n})
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
				consider(candidate{rank: 2, path: accessPath{entries: ix.order.run(Null, *v, false, op == "<")}, ix: ix, op: op, v: v})
			case ">", ">=":
				consider(candidate{rank: 2, path: accessPath{entries: ix.order.run(*v, Null, op == ">", false)}, ix: ix, op: op, v: v})
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
		return best.path
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
		writeValueDisplay(&b, *best.v)
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
		writeValueDisplay(&b, *best.v)
		b.WriteByte(')')
	}
	best.path.desc = b.String()
	return best.path
}
