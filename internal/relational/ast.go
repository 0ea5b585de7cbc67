package relational

import (
	"strconv"
	"strings"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     string // the one table read
	Where    Expr
	GroupBy  []ColumnRef
	OrderBy  []OrderItem
	Limit    int // -1 = none
	Offset   int
	Explain  bool
}

// InsertStmt is INSERT INTO t [(cols)] VALUES (...), (...).
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Expr
}

// CreateTableStmt is CREATE TABLE t (col TYPE, ...).
type CreateTableStmt struct {
	Table   string
	Columns []Column
}

// CreateIndexStmt is CREATE [ORDERED] INDEX name ON t (col).
type CreateIndexStmt struct {
	Name    string
	Table   string
	Column  string
	Ordered bool
}

// DropTableStmt is DROP TABLE t.
type DropTableStmt struct{ Table string }

// UpdateStmt is UPDATE t SET col = expr, ... [WHERE ...].
type UpdateStmt struct {
	Table string
	Set   []SetClause
	Where Expr
}

// SetClause is one col = expr assignment.
type SetClause struct {
	Column string
	Value  Expr
}

// DeleteStmt is DELETE FROM t [WHERE ...].
type DeleteStmt struct {
	Table string
	Where Expr
}

func (*SelectStmt) stmt()      {}
func (*InsertStmt) stmt()      {}
func (*CreateTableStmt) stmt() {}
func (*CreateIndexStmt) stmt() {}
func (*DropTableStmt) stmt()   {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}

// SelectItem is one projection: expression (possibly aggregate) with alias,
// or the star.
type SelectItem struct {
	Star  bool
	Expr  Expr
	Alias string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Expr is any scalar or aggregate expression.
type Expr interface{ expr() }

// Literal is a constant value.
type Literal struct{ Val Value }

// Param is a parameter slot (1-based ordinal assigned by parser). Ordinal
// indexes the unified per-execution value vector, which interleaves explicit
// '?' placeholders with literals auto-extracted by the fingerprint pass. For
// explicit placeholders Src is the user-visible 1-based '?' ordinal (used in
// error messages); for auto-extracted literals Auto is true and Src is 0.
type Param struct {
	Ordinal int
	Src     int
	Auto    bool
}

// ColumnRef references a column of the statement's table by name.
type ColumnRef struct {
	Column string
}

// BinaryExpr applies Op to L and R. Ops: = != < <= > >= AND OR LIKE.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// UnaryExpr applies NOT.
type UnaryExpr struct {
	Op string // "NOT"
	E  Expr
}

// InExpr is "E IN (list)" or "E NOT IN (list)".
type InExpr struct {
	E    Expr
	List []Expr
	Not  bool
}

// IsNullExpr is "E IS [NOT] NULL".
type IsNullExpr struct {
	E   Expr
	Not bool
}

// AggExpr is an aggregate call: COUNT(*), COUNT(col), SUM/AVG/MIN/MAX(col).
type AggExpr struct {
	Fn   string // upper case
	Star bool
	Arg  Expr
}

func (*Literal) expr()    {}
func (*Param) expr()      {}
func (*ColumnRef) expr()  {}
func (*BinaryExpr) expr() {}
func (*UnaryExpr) expr()  {}
func (*InExpr) expr()     {}
func (*IsNullExpr) expr() {}
func (*AggExpr) expr()    {}

// exprString renders an expression for EXPLAIN output and error messages.
func exprString(e Expr) string { return exprDisplay(e, nil) }

// exprDisplay renders an expression with bound parameter values: an
// auto-extracted literal slot shows the value it was extracted from, so a
// shape-cached statement's EXPLAIN/plan strings match those of its plainly
// parsed text byte for byte. Explicit '?' placeholders always render as "?".
func exprDisplay(e Expr, params []Value) string {
	var b strings.Builder
	writeExprDisplay(&b, e, params)
	return b.String()
}

// writeValueDisplay appends a bound value's display form without the
// intermediate string Value.String would allocate for numbers.
func writeValueDisplay(b *strings.Builder, v Value) {
	switch v.T {
	case TInt:
		var buf [24]byte
		b.Write(strconv.AppendInt(buf[:0], v.I, 10))
	case TFloat:
		var buf [32]byte
		b.Write(strconv.AppendFloat(buf[:0], v.F, 'g', -1, 64))
	default:
		b.WriteString(v.String())
	}
}

// writeExprDisplay appends the display form in one pass over the tree so the
// per-execution Filter(...) plan line costs a single buffer instead of a
// string per node — this runs on every query, shape-cached or not.
func writeExprDisplay(b *strings.Builder, e Expr, params []Value) {
	switch x := e.(type) {
	case nil:
	case *Literal:
		if x.Val.T == TString {
			b.WriteByte('\'')
			b.WriteString(x.Val.S)
			b.WriteByte('\'')
			return
		}
		writeValueDisplay(b, x.Val)
	case *Param:
		if x.Auto && x.Ordinal-1 >= 0 && x.Ordinal-1 < len(params) {
			v := params[x.Ordinal-1]
			if v.T == TString {
				b.WriteByte('\'')
				b.WriteString(v.S)
				b.WriteByte('\'')
				return
			}
			writeValueDisplay(b, v)
			return
		}
		b.WriteByte('?')
	case *ColumnRef:
		b.WriteString(x.Column)
	case *BinaryExpr:
		b.WriteByte('(')
		writeExprDisplay(b, x.L, params)
		b.WriteByte(' ')
		b.WriteString(x.Op)
		b.WriteByte(' ')
		writeExprDisplay(b, x.R, params)
		b.WriteByte(')')
	case *UnaryExpr:
		b.WriteString("(NOT ")
		writeExprDisplay(b, x.E, params)
		b.WriteByte(')')
	case *InExpr:
		writeExprDisplay(b, x.E, params)
		if x.Not {
			b.WriteString(" NOT IN (")
		} else {
			b.WriteString(" IN (")
		}
		for i, it := range x.List {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExprDisplay(b, it, params)
		}
		b.WriteByte(')')
	case *IsNullExpr:
		writeExprDisplay(b, x.E, params)
		if x.Not {
			b.WriteString(" IS NOT NULL")
		} else {
			b.WriteString(" IS NULL")
		}
	case *AggExpr:
		b.WriteString(x.Fn)
		if x.Star {
			b.WriteString("(*)")
			return
		}
		b.WriteByte('(')
		writeExprDisplay(b, x.Arg, params)
		b.WriteByte(')')
	default:
		b.WriteString("?expr?")
	}
}

// hasAutoParam reports whether the expression tree contains an
// auto-extracted literal parameter (its display depends on bound values).
func hasAutoParam(e Expr) bool {
	switch x := e.(type) {
	case *Param:
		return x.Auto
	case *BinaryExpr:
		return hasAutoParam(x.L) || hasAutoParam(x.R)
	case *UnaryExpr:
		return hasAutoParam(x.E)
	case *InExpr:
		if hasAutoParam(x.E) {
			return true
		}
		for _, it := range x.List {
			if hasAutoParam(it) {
				return true
			}
		}
	case *IsNullExpr:
		return hasAutoParam(x.E)
	case *AggExpr:
		return !x.Star && hasAutoParam(x.Arg)
	}
	return false
}

// hasAggregate reports whether the expression tree contains an aggregate.
func hasAggregate(e Expr) bool {
	switch x := e.(type) {
	case *AggExpr:
		return true
	case *BinaryExpr:
		return hasAggregate(x.L) || hasAggregate(x.R)
	case *UnaryExpr:
		return hasAggregate(x.E)
	case *InExpr:
		if hasAggregate(x.E) {
			return true
		}
		for _, it := range x.List {
			if hasAggregate(it) {
				return true
			}
		}
	case *IsNullExpr:
		return hasAggregate(x.E)
	}
	return false
}
