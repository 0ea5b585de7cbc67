package relational

import (
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// genValue builds a Value from quick-generated primitives.
func genValue(kind uint8, i int64, f float64, s string, b bool) Value {
	switch kind % 5 {
	case 0:
		return Null
	case 1:
		return NewInt(i % 1000)
	case 2:
		// Bound floats to a sane range; NaN/Inf break total-order axioms by
		// definition and are rejected at insert time anyway.
		return NewFloat(float64(int64(f*100) % 1000))
	case 3:
		if len(s) > 8 {
			s = s[:8]
		}
		return NewString(s)
	default:
		return NewBool(b)
	}
}

// TestCompareAntisymmetry: Compare(a,b) == -Compare(b,a).
func TestCompareAntisymmetry(t *testing.T) {
	f := func(k1, k2 uint8, i1, i2 int64, f1, f2 float64, s1, s2 string, b1, b2 bool) bool {
		a := genValue(k1, i1, f1, s1, b1)
		b := genValue(k2, i2, f2, s2, b2)
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// typeClass groups the types Compare orders among themselves by one rule:
// NULL, the numbers (INT and FLOAT compare numerically), strings, booleans.
func typeClass(v Value) int {
	switch v.T {
	case TInt, TFloat:
		return 1
	case TString:
		return 2
	case TBool:
		return 3
	default:
		return 0
	}
}

// TestCompareTransitivity: a<=b && b<=c => a<=c over random triples of one
// type class — strings that read as numbers among them. Across classes
// Compare falls back to comparing renderings, and that is not transitive
// with the numeric rule; the named case pins the known counter-example.
func TestCompareTransitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	byClass := map[int][]Value{}
	for i := 0; i < 400; i++ {
		s := fmt.Sprintf("s%d", rng.Intn(50))
		if rng.Intn(2) == 0 {
			s = fmt.Sprint(rng.Intn(1000)) // a digit string: "9" sorts after "10"
		}
		v := genValue(uint8(rng.Intn(5)), rng.Int63(), rng.Float64()*1e3, s, rng.Intn(2) == 0)
		byClass[typeClass(v)] = append(byClass[typeClass(v)], v)
	}
	for class := 0; class < 4; class++ {
		vals := byClass[class]
		for trial := 0; trial < 1000; trial++ {
			a := vals[rng.Intn(len(vals))]
			b := vals[rng.Intn(len(vals))]
			c := vals[rng.Intn(len(vals))]
			if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
				t.Fatalf("class %d: transitivity violated: %v <= %v <= %v but %v > %v", class, a, b, c, a, c)
			}
		}
	}

	// 10 < '9' (renderings), '9' = 9 (renderings), 9 < 10 (numbers): a cycle.
	// Sorting and index order therefore agree with a predicate only within a
	// class. A typed column holds one class, since INSERT and UPDATE coerce to
	// the column's type, so its index is in one order — and the access planner
	// gives it constants of that class only (planAccessLocked).
	t.Run("cross-class counter-example", func(t *testing.T) {
		ten, nine, strNine := NewInt(10), NewInt(9), NewString("9")
		if !(Compare(ten, strNine) < 0 && Compare(strNine, nine) == 0 && Compare(nine, ten) < 0) {
			t.Fatalf("Compare(10,'9')=%d Compare('9',9)=%d Compare(9,10)=%d: the counter-example moved; re-derive what an index may serve",
				Compare(ten, strNine), Compare(strNine, nine), Compare(nine, ten))
		}
	})
}

// likeRef is a regexp-based reference implementation of the LIKE matcher.
func likeRef(s, pattern string) bool {
	var re strings.Builder
	re.WriteString("(?is)^")
	for _, r := range pattern {
		switch r {
		case '%':
			re.WriteString(".*")
		case '_':
			re.WriteString(".")
		default:
			re.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	re.WriteString("$")
	ok, err := regexp.MatchString(re.String(), s)
	return err == nil && ok
}

// TestLikeMatchesReference checks likeMatch against the regexp reference on
// random ASCII inputs and patterns.
func TestLikeMatchesReference(t *testing.T) {
	alphabet := []byte("ab%_c")
	rng := rand.New(rand.NewSource(11))
	randStr := func(n int) string {
		b := make([]byte, rng.Intn(n))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for trial := 0; trial < 3000; trial++ {
		s := strings.ReplaceAll(strings.ReplaceAll(randStr(8), "%", "x"), "_", "y")
		p := randStr(6)
		got := likeMatch(s, p)
		want := likeRef(s, p)
		if got != want {
			t.Fatalf("likeMatch(%q, %q) = %v, reference = %v", s, p, got, want)
		}
	}
}

// TestInsertSelectRoundTripProperty: for random row batches, COUNT(*)
// equals the number of inserted rows and every value round-trips.
func TestInsertSelectRoundTripProperty(t *testing.T) {
	f := func(vals []int16) bool {
		if len(vals) > 64 {
			vals = vals[:64]
		}
		db := NewDB()
		if _, err := db.Exec(`CREATE TABLE t (i INT, s TEXT)`); err != nil {
			return false
		}
		for idx, v := range vals {
			if _, err := db.Exec(`INSERT INTO t VALUES (?, ?)`, int(v), fmt.Sprintf("row%d", idx)); err != nil {
				return false
			}
		}
		res, err := db.Query(`SELECT COUNT(*) FROM t`)
		if err != nil || res.Rows[0][0].I != int64(len(vals)) {
			return false
		}
		all, err := db.Query(`SELECT i, s FROM t`)
		if err != nil || len(all.Rows) != len(vals) {
			return false
		}
		for idx, v := range vals {
			if all.Rows[idx][0].I != int64(v) || all.Rows[idx][1].S != fmt.Sprintf("row%d", idx) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestIndexedEqualsSeqScanProperty: queries served by an index return the
// same multiset of rows as the unindexed plan.
func TestIndexedEqualsSeqScanProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		plain := NewDB()
		indexed := NewDB()
		for _, db := range []*DB{plain, indexed} {
			if _, err := db.Exec(`CREATE TABLE t (k INT, v INT)`); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := indexed.Exec(`CREATE ORDERED INDEX ik ON t (k)`); err != nil {
			t.Fatal(err)
		}
		n := 50 + rng.Intn(100)
		for i := 0; i < n; i++ {
			k, v := rng.Intn(20), rng.Intn(1000)
			for _, db := range []*DB{plain, indexed} {
				if _, err := db.Exec(`INSERT INTO t VALUES (?, ?)`, k, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, q := range []string{
			fmt.Sprintf(`SELECT v FROM t WHERE k = %d ORDER BY v`, rng.Intn(20)),
			fmt.Sprintf(`SELECT v FROM t WHERE k >= %d ORDER BY v`, rng.Intn(20)),
			fmt.Sprintf(`SELECT v FROM t WHERE k >= %d AND k <= %d ORDER BY v`, rng.Intn(10), 10+rng.Intn(10)),
		} {
			a, err := plain.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			b, err := indexed.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Rows) != len(b.Rows) {
				t.Fatalf("row count differs for %q: %d vs %d", q, len(a.Rows), len(b.Rows))
			}
			for i := range a.Rows {
				if Compare(a.Rows[i][0], b.Rows[i][0]) != 0 {
					t.Fatalf("row %d differs for %q: %v vs %v", i, q, a.Rows[i][0], b.Rows[i][0])
				}
			}
		}
	}
}

// TestAggregateFoldMatchesInterpreterProperty: on random tables (NULLs,
// duplicates, mixed INT/FLOAT/TEXT/BOOL columns, sometimes empty) random
// aggregate statements — comparisons of two aggregates, a column beside them,
// arguments and filters that raise on some rows only — give the same rows, or
// the same error text, folded during the scan as interpreted.
func TestAggregateFoldMatchesInterpreterProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	cols := []string{"k", "n", "f", "s", "b"}
	args := []string{"n", "f", "s", "b", "k", "?", "(n < 3 OR n = ?)", "(b = TRUE OR s = ?)"}
	fns := []string{"COUNT", "SUM", "AVG", "MIN", "MAX"}
	agg := func() string {
		if rng.Intn(6) == 0 {
			return "COUNT(*)"
		}
		return fmt.Sprintf("%s(%s)", pick(fns), pick(args))
	}
	item := func() string {
		switch rng.Intn(4) {
		case 0:
			return pick(cols)
		case 1:
			return fmt.Sprintf("%s %s %s", agg(), pick([]string{"=", "<", ">=", "!="}), agg())
		default:
			return agg()
		}
	}
	for trial := 0; trial < 40; trial++ {
		db := NewDB()
		mustExec(t, db, `CREATE TABLE t (k INT, n INT, f FLOAT, s TEXT, b BOOL)`)
		for i, rows := 0, rng.Intn(40); i < rows; i++ {
			row := []any{rng.Intn(4), rng.Intn(6), float64(rng.Intn(8)) / 2, fmt.Sprintf("s%d", rng.Intn(4)), rng.Intn(2) == 0}
			for c := range row {
				if rng.Intn(5) == 0 {
					row[c] = nil
				}
			}
			mustExec(t, db, `INSERT INTO t VALUES (?, ?, ?, ?, ?)`, row...)
		}
		for q := 0; q < 25; q++ {
			items := make([]string, 1+rng.Intn(3))
			for i := range items {
				items[i] = item()
			}
			sql := "SELECT " + strings.Join(items, ", ") + " FROM t"
			switch rng.Intn(4) {
			case 0:
				sql += fmt.Sprintf(" WHERE n >= %d", rng.Intn(7))
			case 1:
				sql += " WHERE n < 4 OR s = ?"
			}
			if rng.Intn(3) > 0 {
				sql += " GROUP BY " + pick(cols)
			}
			// Bind every placeholder, or none: an unbound one raises "missing
			// parameter" wherever evaluation reaches it.
			var params []any
			if rng.Intn(2) == 0 {
				for i := strings.Count(sql, "?"); i > 0; i-- {
					params = append(params, rng.Intn(6))
				}
			}
			runBoth(t, db, sql, params...)
		}
	}
}

// TestIndexIsPurelyAnAccelerator: twin databases from one seed — one with
// every index of the fixture plus an ordered and a hash index on random
// columns, one with none — give every statement the same outcome: the same
// rows as multisets (an index visits in its own order), in the same order
// under a total ORDER BY, the same affected count and table after a mutation,
// or the same error. The constants are of every class — INT, integral and
// fractional FLOAT, TEXT that reads as a number or a boolean, BOOL, NULL,
// unbound — against every column type, as literals and as parameters: an
// index files values by key and by Compare within its column's class, the
// predicate is Equal and Compare across classes, and only a value of the
// column's own class may take the index (planAccessLocked).
func TestIndexIsPurelyAnAccelerator(t *testing.T) {
	type column struct {
		name string
		typ  Type
	}
	tables := map[string][]column{
		"jobs": {{"id", TInt}, {"title", TString}, {"city", TString}, {"company_id", TInt}, {"salary", TInt}, {"remote", TBool}},
		"apps": {{"id", TInt}, {"job_id", TInt}, {"score", TFloat}, {"status", TString}},
	}
	// check runs one statement on both twins.
	check := func(t *testing.T, indexed, plain *DB, table, sql string, exact bool, params ...any) {
		t.Helper()
		got, gotErr := indexed.Query(sql, params...)
		want, wantErr := plain.Query(sql, params...)
		if gotErr != nil || wantErr != nil {
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s %#v: indexed err %v, unindexed err %v", sql, params, gotErr, wantErr)
			}
			return
		}
		keys := func(res *Result) []string {
			out := make([]string, len(res.Rows))
			for i, r := range res.Rows {
				out[i] = fmt.Sprint(r)
			}
			if !exact {
				sort.Strings(out)
			}
			return out
		}
		if g, w := keys(got), keys(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s %#v:\n  indexed: %v\nunindexed: %v", sql, params, g, w)
		}
		if !strings.HasPrefix(sql, "SELECT") {
			all := `SELECT * FROM ` + table + ` ORDER BY id`
			if g, w := mustQuery(t, indexed, all), mustQuery(t, plain, all); !reflect.DeepEqual(g.Rows, w.Rows) {
				t.Fatalf("after %s %#v: the twins' %s tables differ", sql, params, table)
			}
		}
	}

	// The measured cases: by rendering 10000 < '95000' < 9600, and 3 = '3'.
	t.Run("pinned", func(t *testing.T) {
		indexed, plain := NewDB(), NewDB()
		for _, db := range []*DB{indexed, plain} {
			mustExec(t, db, `CREATE TABLE t (id INT, salary INT)`)
			for i := 0; i < 200; i++ {
				mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, i, 9000+i*100)
			}
		}
		mustExec(t, indexed, `CREATE INDEX t_id ON t (id)`)
		mustExec(t, indexed, `CREATE ORDERED INDEX t_salary ON t (salary)`)
		for _, sql := range []string{
			`SELECT COUNT(*) FROM t WHERE salary > '95000'`,
			`SELECT COUNT(*) FROM t WHERE id = '3'`,
			`SELECT COUNT(*) FROM t WHERE 3.0 = id`,
		} {
			check(t, indexed, plain, "t", sql, true)
			if n := mustQuery(t, indexed, sql).Rows[0][0].I; n == 0 {
				t.Fatalf("%s: no row counted", sql)
			}
		}
		if plan := mustQuery(t, indexed, `EXPLAIN SELECT COUNT(*) FROM t WHERE 3.0 = id`).Plan; !strings.Contains(plan, "IndexScan") {
			t.Fatalf("a FLOAT against an INT column left the index: %s", plan)
		}
	})

	rng := rand.New(rand.NewSource(37))
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	for trial := 0; trial < 12; trial++ {
		indexed, plain := newDiffDB(t, int64(200+trial), true), newDiffDB(t, int64(200+trial), false)
		for _, db := range []*DB{indexed, plain} {
			// TEXT cells a number or a boolean equals by rendering.
			for i, s := range []string{"3", "95000", "2.5", "true", "10", "9"} {
				mustExec(t, db, `INSERT INTO jobs VALUES (?, ?, ?, ?, ?, ?)`, 60+i, s, s, i, 95000+i, i%2 == 0)
				mustExec(t, db, `INSERT INTO apps VALUES (?, ?, ?, ?)`, 120+i, 3+i, 2.5*float64(i), s)
			}
		}
		for _, kind := range []string{"", "ORDERED "} {
			table := pick([]string{"jobs", "apps"})
			col := tables[table][rng.Intn(len(tables[table]))].name
			// Refused where the fixture's own index on the column already is
			// as capable.
			_, _ = indexed.Exec(fmt.Sprintf(`CREATE %sINDEX extra_%s ON %s (%s)`, kind, col, table, col))
		}

		// constant renders one constant as a literal or as a bound parameter;
		// unbound asks for a placeholder the execution leaves without a value.
		constant := func(params *[]any, unbound bool) string {
			if unbound {
				return "?"
			}
			lit, val := "", any(nil)
			switch rng.Intn(8) {
			case 0:
				n := []int{0, 3, 5, 9, 10, 95000, 99000, 100000}[rng.Intn(8)]
				lit, val = fmt.Sprint(n), n
			case 1:
				f := []float64{3, 5, 95000, 99000}[rng.Intn(4)]
				lit, val = fmt.Sprintf("%.1f", f), f
			case 2:
				f := []float64{2.5, 3.5, 42.5, 99000.5}[rng.Intn(4)]
				lit, val = fmt.Sprint(f), f
			case 3:
				s := pick([]string{"3", "95000", "2.5", "true", "10", "9", "99000"})
				lit, val = "'"+s+"'", s
			case 4:
				s := pick([]string{"Oakland", "Austin", "offer", "Analyst", ""})
				lit, val = "'"+s+"'", s
			case 5:
				b := rng.Intn(2) == 0
				lit, val = strings.ToUpper(fmt.Sprint(b)), b
			case 6:
				lit = "NULL"
			default:
				n := rng.Intn(70)
				lit, val = fmt.Sprint(n), n
			}
			if rng.Intn(2) == 0 {
				*params = append(*params, val)
				return "?"
			}
			return lit
		}
		// conjunct is one predicate over a random column. An unbound
		// placeholder stands only in a statement's last conjunct: an index
		// visits the rows the conjuncts before it pass, as the scan's
		// short-circuit does, so the two reach it on the same rows.
		conjunct := func(cols []column, params *[]any, last bool) string {
			col := cols[rng.Intn(len(cols))].name
			unbound := last && rng.Intn(12) == 0
			switch rng.Intn(10) {
			case 0:
				return fmt.Sprintf("%s IN (%s, %s, %s)", col, constant(params, false), constant(params, false), constant(params, unbound))
			case 1:
				return fmt.Sprintf("%s != %s", col, constant(params, unbound))
			case 2:
				return col + pick([]string{" IS NULL", " IS NOT NULL"})
			case 3:
				return fmt.Sprintf("(%s = %s OR %s < %s)", col, constant(params, false), col, constant(params, unbound))
			case 4:
				return fmt.Sprintf("%s %s %s", constant(params, unbound), pick([]string{"=", "<", "<=", ">", ">="}), col)
			default:
				return fmt.Sprintf("%s %s %s", col, pick([]string{"=", "=", "<", "<=", ">", ">="}), constant(params, unbound))
			}
		}
		for q := 0; q < 150; q++ {
			table := pick([]string{"jobs", "apps"})
			cols := tables[table]
			var params []any
			n := 1 + rng.Intn(3)
			conjuncts := make([]string, n)
			for i := range conjuncts {
				conjuncts[i] = conjunct(cols, &params, i == n-1)
			}
			where := " WHERE " + strings.Join(conjuncts, " AND ")
			key := cols[rng.Intn(len(cols))].name
			// Aggregates whose value does not depend on the visiting order:
			// sums of INT columns are exact, a FLOAT column's need not be.
			intCol := map[string]string{"jobs": "salary", "apps": "job_id"}[table]
			aggs := fmt.Sprintf("COUNT(*), COUNT(%s), MIN(%s), MAX(%s), SUM(%s), AVG(%s)", key, key, cols[rng.Intn(len(cols))].name, intCol, intCol)
			switch rng.Intn(8) {
			case 0:
				check(t, indexed, plain, table, "SELECT * FROM "+table+where, false, params...)
			case 1:
				sql := fmt.Sprintf("SELECT id, %s FROM %s%s ORDER BY %s%s, id", key, table, where, key, pick([]string{"", " DESC"}))
				if rng.Intn(2) == 0 {
					sql += fmt.Sprintf(" LIMIT %d OFFSET %d", 1+rng.Intn(10), rng.Intn(4))
				}
				check(t, indexed, plain, table, sql, true, params...)
			case 2:
				check(t, indexed, plain, table, fmt.Sprintf("SELECT %s, %s FROM %s%s GROUP BY %s", key, aggs, table, where, key), false, params...)
			case 3:
				check(t, indexed, plain, table, fmt.Sprintf("SELECT %s FROM %s%s", aggs, table, where), true, params...)
			case 4:
				check(t, indexed, plain, table, fmt.Sprintf("SELECT DISTINCT %s FROM %s%s", key, table, where), false, params...)
			case 5:
				check(t, indexed, plain, table, "DELETE FROM "+table+where+" AND id > 40", true, params...)
			default:
				set := fmt.Sprintf("UPDATE %s SET %s = %d", table, intCol, []int{3, 9, 10, 95000, 99000}[rng.Intn(5)])
				check(t, indexed, plain, table, set+where, true, params...)
			}
		}
	}
}
