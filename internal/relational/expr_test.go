package relational

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestTypedPredicateIsTheGenericOne: a WHERE tree lowered to a predicate
// (exprCompiler.pred: conjunct lists, typed column-constant comparisons)
// answers, row by row, what the same tree lowered to a value closure answers
// under truthy — the same bool and the same error or none — and records the
// same ways to raise. The trees are AND chains of comparisons in both operand
// orders with all five typed operators, !=, LIKE, IN, NOT, OR and IS NULL; the
// constants are of every class, inline (Parse), auto-extracted into parameter
// slots (parseCached) or explicit placeholders, bound and unbound; the rows
// hold NULLs and, in every column, cells of every class, since the predicate
// may not lean on a column's declared type.
func TestTypedPredicateIsTheGenericOne(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	cols := []string{"k", "n", "f", "s", "b"}
	cell := func() Value {
		switch rng.Intn(6) {
		case 0:
			return Null
		case 1:
			return NewInt(int64(rng.Intn(6)))
		case 2:
			return NewFloat(float64(rng.Intn(12)) / 2)
		case 3:
			return NewString(pick([]string{"3", "2.5", "true", "s1", "s2", ""}))
		case 4:
			return NewBool(rng.Intn(2) == 0)
		default:
			return NewInt(int64(rng.Intn(3)))
		}
	}
	rows := make([]Row, 60)
	for i := range rows {
		rows[i] = Row{cell(), cell(), cell(), cell(), cell()}
	}

	db := NewDB()
	mustExec(t, db, `CREATE TABLE t (k INT, n INT, f FLOAT, s TEXT, b BOOL)`)
	constant := func() string {
		return pick([]string{"0", "1", "3", "5", "2.5", "3.0", "'3'", "'2.5'", "'s1'", "''", "'true'", "TRUE", "FALSE", "NULL", "?", "?"})
	}
	comparison := func() string {
		op := pick([]string{"=", "<", "<=", ">", ">="})
		switch rng.Intn(9) {
		case 0:
			return fmt.Sprintf("%s %s %s", constant(), op, pick(cols))
		case 1:
			return fmt.Sprintf("%s != %s", pick(cols), constant())
		case 2:
			return fmt.Sprintf("%s LIKE %s", pick(cols), pick([]string{"'s%'", "'_'", "?"}))
		case 3:
			return fmt.Sprintf("%s IN (%s, %s)", pick(cols), constant(), constant())
		case 4:
			return fmt.Sprintf("NOT %s %s %s", pick(cols), op, constant())
		case 5:
			return pick(cols) + pick([]string{" IS NULL", " IS NOT NULL"})
		case 6:
			return fmt.Sprintf("%s %s %s", pick(cols), op, pick(append(cols, "nope")))
		default:
			return fmt.Sprintf("%s %s %s", pick(cols), op, constant())
		}
	}
	tree := func() string {
		conjuncts := make([]string, 1+rng.Intn(4))
		for i := range conjuncts {
			conjuncts[i] = comparison()
			if rng.Intn(6) == 0 {
				conjuncts[i] = fmt.Sprintf("(%s OR %s AND %s)", comparison(), comparison(), comparison())
			}
		}
		return strings.Join(conjuncts, " AND ")
	}

	compare := func(t *testing.T, sql string, where Expr, params []Value) {
		t.Helper()
		typed, generic := exprCompiler{cols: cols}, exprCompiler{cols: cols}
		pred, expr := typed.pred(where), generic.expr(where)
		if typed.canRaise(params) != generic.canRaise(params) {
			t.Fatalf("%s %v: the predicate can raise: %v, the expression: %v", sql, params, typed.canRaise(params), generic.canRaise(params))
		}
		for _, row := range rows {
			got, gotErr := pred(row, params)
			v, wantErr := expr(row, params)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || (gotErr == nil && got != truthy(v)) {
				t.Fatalf("%s %v on %v: predicate (%v, %v), expression (%v, %v)", sql, params, row, got, gotErr, v, wantErr)
			}
		}
	}
	for trial := 0; trial < 600; trial++ {
		sql := "SELECT * FROM t WHERE " + tree()
		// Bind every placeholder, some of them, or none.
		var vals []Value
		for i, n := 0, rng.Intn(1+strings.Count(sql, "?")); i < n; i++ {
			vals = append(vals, cell())
		}
		st, err := Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		compare(t, sql, st.(*SelectStmt).Where, vals)
		shaped, _, binder, err := db.parseCached(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		compare(t, sql, shaped.(*SelectStmt).Where, binder.bind(vals))
	}

	// An unbound parameter behind a false conjunct is not reported; behind a
	// true one it is, under its own number.
	st, err := Parse(`SELECT * FROM t WHERE k > 100 AND s = ?`)
	if err != nil {
		t.Fatal(err)
	}
	c := exprCompiler{cols: cols}
	pred := c.pred(st.(*SelectStmt).Where)
	if ok, err := pred(Row{NewInt(7), Null, Null, NewString("s1"), Null}, nil); ok || err != nil {
		t.Fatalf("unbound parameter behind a false conjunct: (%v, %v)", ok, err)
	}
	if _, err := pred(Row{NewInt(700), Null, Null, NewString("s1"), Null}, nil); err == nil || err.Error() != "relational: missing parameter 1" {
		t.Fatalf("unbound parameter behind a true conjunct: %v", err)
	}
}
