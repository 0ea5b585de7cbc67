package relational

import (
	"errors"
	"fmt"
	"strings"
)

// Expression compilation (see compile.go for the file map).

// compiledExpr evaluates one scalar expression against a row with all column
// references pre-resolved to positional offsets.
type compiledExpr func(row Row, params []Value) (Value, error)

// compiledPred is a WHERE tree lowered to the one question a scan asks of it:
// does this row pass? The answer travels as a bool, not as a Value that the
// caller tests with truthy.
type compiledPred func(row Row, params []Value) (bool, error)

// resolveCol resolves a column reference against a row layout — the
// lowercased column names of the statement's table (tableLayout) — the single
// resolution routine shared by the compiler (once per statement) and the
// reference interpreter (per row).
func resolveCol(cols []string, c *ColumnRef) (int, error) {
	col := strings.ToLower(c.Column)
	for i, name := range cols {
		if name == col {
			return i, nil
		}
	}
	return -1, fmt.Errorf("%w: %s", ErrColumnUnknown, c.Column)
}

// exprCompiler lowers the expressions of one statement over a column layout
// and records what could make them raise when evaluated: the executor may
// skip rows (a LIMIT satisfied, an index's candidates) only in an execution
// where no expression can raise, because the interpreter, which evaluates
// every row, would have reported it.
type exprCompiler struct {
	cols []string
	// raises: some node raises whenever evaluation reaches it (a reference
	// that does not resolve, an aggregate outside aggregation context).
	raises bool
	// explicit holds the unified ordinals of the '?' placeholders, each of
	// which raises when the caller left it unbound.
	explicit []int
}

// canRaise reports whether evaluating the statement's expressions under
// these parameters can raise at all.
func (c *exprCompiler) canRaise(params []Value) bool {
	if c.raises {
		return true
	}
	for _, ord := range c.explicit {
		if unbound(params, ord) {
			return true
		}
	}
	return false
}

// unbound reports whether the parameter slot with this unified ordinal has no
// value in this execution.
func unbound(params []Value, ord int) bool {
	return ord-1 >= len(params) || params[ord-1].T == missingParamType
}

func errMissingParam(disp int) error {
	return fmt.Errorf("relational: missing parameter %d", disp)
}

// raise lowers a node that cannot be evaluated into one that reports err
// when evaluation reaches it, as the interpreter does: never over zero rows,
// and not behind an AND/OR that short-circuits past it.
func (c *exprCompiler) raise(err error) compiledExpr {
	c.raises = true
	return func(Row, []Value) (Value, error) { return Null, err }
}

// expr lowers a scalar expression into a closure over the layout.
func (c *exprCompiler) expr(x Expr) compiledExpr {
	switch v := x.(type) {
	case *Literal:
		val := v.Val
		return func(Row, []Value) (Value, error) { return val, nil }
	case *Param:
		ord := v.Ordinal
		disp := paramSrc(v)
		if !v.Auto {
			c.explicit = append(c.explicit, ord)
		}
		return func(_ Row, params []Value) (Value, error) {
			if unbound(params, ord) {
				return Null, errMissingParam(disp)
			}
			return params[ord-1], nil
		}
	case *ColumnRef:
		i, err := resolveCol(c.cols, v)
		if err != nil {
			return c.raise(err)
		}
		return func(row Row, _ []Value) (Value, error) { return row[i], nil }
	case *BinaryExpr:
		return c.binary(v)
	case *UnaryExpr:
		inner := c.expr(v.E)
		return func(row Row, params []Value) (Value, error) {
			val, err := inner(row, params)
			if err != nil {
				return Null, err
			}
			return NewBool(!truthy(val)), nil
		}
	case *InExpr:
		e := c.expr(v.E)
		items := make([]compiledExpr, len(v.List))
		for i, item := range v.List {
			items[i] = c.expr(item)
		}
		not := v.Not
		return func(row Row, params []Value) (Value, error) {
			val, err := e(row, params)
			if err != nil {
				return Null, err
			}
			hit := false
			for _, item := range items {
				iv, err := item(row, params)
				if err != nil {
					return Null, err
				}
				if Equal(val, iv) {
					hit = true
					break
				}
			}
			return NewBool(hit != not), nil
		}
	case *IsNullExpr:
		e := c.expr(v.E)
		not := v.Not
		return func(row Row, params []Value) (Value, error) {
			val, err := e(row, params)
			if err != nil {
				return Null, err
			}
			return NewBool(val.IsNull() != not), nil
		}
	case *AggExpr:
		return c.raise(errors.New("relational: aggregate outside aggregation context"))
	default:
		return c.raise(errors.New("relational: unsupported expression"))
	}
}

// pred lowers a WHERE tree to a predicate. An AND chain is the list of its
// conjuncts' predicates in source order; a comparison of a column with a
// constant is typed (comparison); every other node is its expr closure under
// truthy.
func (c *exprCompiler) pred(x Expr) compiledPred {
	if b, ok := x.(*BinaryExpr); ok {
		if b.Op == "AND" {
			conjuncts := c.conjuncts(b)
			return func(row Row, params []Value) (bool, error) {
				for _, cj := range conjuncts {
					if ok, err := cj(row, params); !ok || err != nil {
						return false, err
					}
				}
				return true, nil
			}
		}
		if p := c.comparison(b); p != nil {
			return p
		}
	}
	f := c.expr(x)
	return func(row Row, params []Value) (bool, error) {
		v, err := f(row, params)
		if err != nil {
			return false, err
		}
		return truthy(v), nil
	}
}

// conjuncts compiles the conjunct list of a left-deep AND chain in source
// order.
func (c *exprCompiler) conjuncts(v *BinaryExpr) []compiledPred {
	var out []compiledPred
	if lb, ok := v.L.(*BinaryExpr); ok && lb.Op == "AND" {
		out = c.conjuncts(lb)
	} else {
		out = append(out, c.pred(v.L))
	}
	return append(out, c.pred(v.R))
}

// comparison lowers `col <op> const` or `const <op> col` — <op> one of =, <,
// <=, >, >=, const a literal or a parameter — to a predicate that reads the
// cell and the constant in place and, on a row where both are INT or both
// TEXT, compares the two fields directly. Any other pairing (NULL, FLOAT,
// BOOL, mixed classes) goes through Equal / Compare as the generic closure
// does, so the result never depends on the column's declared type. It
// returns nil for any other node, and for a column that does not resolve,
// which must raise where evaluation reaches it.
func (c *exprCompiler) comparison(b *BinaryExpr) compiledPred {
	flipped, sarg := flippedOp[b.Op]
	if !sarg {
		return nil
	}
	ref, isCol := b.L.(*ColumnRef)
	k, op := b.R, b.Op
	if !isCol {
		// `const <op> col` is `col <flipped op> const`.
		ref, isCol = b.R.(*ColumnRef)
		k, op = b.L, flipped
	}
	if !isCol {
		return nil
	}
	i, err := resolveCol(c.cols, ref)
	if err != nil {
		return nil
	}
	operand := newConstOperand(k)
	if operand == nil {
		return nil
	}
	if x, ok := k.(*Param); ok && !x.Auto {
		c.explicit = append(c.explicit, x.Ordinal)
	}
	if op == "=" {
		return func(row Row, params []Value) (bool, error) {
			k := operand.value(params)
			if k == nil {
				return false, errMissingParam(operand.disp)
			}
			cell := &row[i]
			if cell.T == k.T {
				switch cell.T {
				case TInt:
					return cell.I == k.I, nil
				case TString:
					return cell.S == k.S, nil
				}
			}
			return Equal(*cell, *k), nil
		}
	}
	// What the predicate answers when the cell sorts before, with and after
	// the constant.
	less, same, more := op[0] == '<', len(op) == 2, op[0] == '>'
	return func(row Row, params []Value) (bool, error) {
		k := operand.value(params)
		if k == nil {
			return false, errMissingParam(operand.disp)
		}
		cell := &row[i]
		cmp := 0
		switch {
		case cell.T == TInt && k.T == TInt:
			if cell.I < k.I {
				cmp = -1
			} else if cell.I > k.I {
				cmp = 1
			}
		case cell.T == TString && k.T == TString:
			cmp = strings.Compare(cell.S, k.S)
		case cell.IsNull() || k.IsNull():
			return false, nil
		default:
			cmp = Compare(*cell, *k)
		}
		switch {
		case cmp < 0:
			return less, nil
		case cmp > 0:
			return more, nil
		}
		return same, nil
	}
}

func (c *exprCompiler) binary(v *BinaryExpr) compiledExpr {
	if v.Op == "AND" {
		// One lowering of a conjunction, wherever it stands.
		p := c.pred(v)
		return func(row Row, params []Value) (Value, error) {
			ok, err := p(row, params)
			if err != nil {
				return Null, err
			}
			return NewBool(ok), nil
		}
	}
	l, r := c.expr(v.L), c.expr(v.R)
	// Comparisons dispatch on the operator once at compile time instead of
	// re-switching on the op string for every row.
	switch v.Op {
	case "OR":
		return func(row Row, params []Value) (Value, error) {
			lv, err := l(row, params)
			if err != nil {
				return Null, err
			}
			if truthy(lv) {
				return NewBool(true), nil
			}
			rv, err := r(row, params)
			if err != nil {
				return Null, err
			}
			return NewBool(truthy(rv)), nil
		}
	case "=":
		return func(row Row, params []Value) (Value, error) {
			lv, err := l(row, params)
			if err != nil {
				return Null, err
			}
			rv, err := r(row, params)
			if err != nil {
				return Null, err
			}
			return NewBool(Equal(lv, rv)), nil
		}
	case "!=":
		return func(row Row, params []Value) (Value, error) {
			lv, err := l(row, params)
			if err != nil {
				return Null, err
			}
			rv, err := r(row, params)
			if err != nil {
				return Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return NewBool(false), nil
			}
			return NewBool(Compare(lv, rv) != 0), nil
		}
	case "<", "<=", ">", ">=":
		var test func(c int) bool
		switch v.Op {
		case "<":
			test = func(c int) bool { return c < 0 }
		case "<=":
			test = func(c int) bool { return c <= 0 }
		case ">":
			test = func(c int) bool { return c > 0 }
		default:
			test = func(c int) bool { return c >= 0 }
		}
		return func(row Row, params []Value) (Value, error) {
			lv, err := l(row, params)
			if err != nil {
				return Null, err
			}
			rv, err := r(row, params)
			if err != nil {
				return Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return NewBool(false), nil
			}
			return NewBool(test(Compare(lv, rv))), nil
		}
	}
	op := v.Op
	return func(row Row, params []Value) (Value, error) {
		lv, err := l(row, params)
		if err != nil {
			return Null, err
		}
		rv, err := r(row, params)
		if err != nil {
			return Null, err
		}
		return compareValues(op, lv, rv)
	}
}

// compareValues applies a non-logical binary operator to two evaluated
// values — the shared tail of the compiled closures and the reference
// interpreter's evalBinary.
func compareValues(op string, l, r Value) (Value, error) {
	switch op {
	case "=":
		return NewBool(Equal(l, r)), nil
	case "!=":
		if l.IsNull() || r.IsNull() {
			return NewBool(false), nil
		}
		return NewBool(Compare(l, r) != 0), nil
	case "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return NewBool(false), nil
		}
		c := Compare(l, r)
		switch op {
		case "<":
			return NewBool(c < 0), nil
		case "<=":
			return NewBool(c <= 0), nil
		case ">":
			return NewBool(c > 0), nil
		default:
			return NewBool(c >= 0), nil
		}
	case "LIKE":
		if l.IsNull() || r.IsNull() {
			return NewBool(false), nil
		}
		return NewBool(likeMatch(l.String(), r.String())), nil
	default:
		return Null, fmt.Errorf("relational: unknown operator %q", op)
	}
}

// applyBinaryValues applies any binary operator to two already-evaluated
// values. Matches the interpreter's aggregate-context behaviour, where both
// sides are computed before combining (no short-circuit).
func applyBinaryValues(op string, l, r Value) (Value, error) {
	switch op {
	case "AND":
		if !truthy(l) {
			return NewBool(false), nil
		}
		return NewBool(truthy(r)), nil
	case "OR":
		if truthy(l) {
			return NewBool(true), nil
		}
		return NewBool(truthy(r)), nil
	}
	return compareValues(op, l, r)
}

// tableLayout is the row layout of one table: its column names, lowercased.
func tableLayout(t *table) []string {
	cols := make([]string, len(t.schema.Columns))
	for i, c := range t.schema.Columns {
		cols[i] = strings.ToLower(c.Name)
	}
	return cols
}
