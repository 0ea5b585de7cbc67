package relational

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// Differential tests: every statement is executed by the engine (DB.Query:
// shape-keyed cache, compiled program) and by the reference interpreter
// (refRun, interp_test.go), and the two must agree on columns, rows, plan
// strings and errors. The corpus covers the full dialect surface (every
// operator, grouping, DISTINCT, ORDER BY/LIMIT/OFFSET, parameters, NULLs)
// plus the shapes whose outcome depends on how many rows evaluation reaches.
// The constructs the dialect refuses are in rejected_test.go.

// diffDB builds a fixture with NULLs, duplicate values, indexes and three
// tables.
func diffDB(t testing.TB, seed int64) *DB {
	t.Helper()
	return newDiffDB(t, seed, true)
}

// newDiffDB builds diffDB's tables and rows, with its indexes or with none.
func newDiffDB(t testing.TB, seed int64, indexed bool) *DB {
	t.Helper()
	db := NewDB()
	mustExec(t, db, `CREATE TABLE jobs (id INT, title TEXT, city TEXT, company_id INT, salary INT, remote BOOL)`)
	mustExec(t, db, `CREATE TABLE companies (id INT, name TEXT, size TEXT)`)
	mustExec(t, db, `CREATE TABLE apps (id INT, job_id INT, score FLOAT, status TEXT)`)
	if indexed {
		mustExec(t, db, `CREATE INDEX idx_city ON jobs (city)`)
		mustExec(t, db, `CREATE ORDERED INDEX idx_salary ON jobs (salary)`)
		mustExec(t, db, `CREATE INDEX idx_apps_job ON apps (job_id)`)
	}
	rng := rand.New(rand.NewSource(seed))
	titles := []string{"Data Scientist", "ML Engineer", "Analyst", "it's odd", ""}
	cities := []string{"Oakland", "Seattle", "Austin", "San Jose"}
	sizes := []string{"large", "mid", "small"}
	statuses := []string{"applied", "offer", "rejected"}
	for i := 0; i < 8; i++ {
		mustExec(t, db, `INSERT INTO companies VALUES (?, ?, ?)`,
			i, fmt.Sprintf("co%d", i), sizes[rng.Intn(len(sizes))])
	}
	for i := 0; i < 60; i++ {
		var city any = cities[rng.Intn(len(cities))]
		if rng.Intn(10) == 0 {
			city = nil // NULL city
		}
		var salary any = 90000 + rng.Intn(30)*1000
		if rng.Intn(12) == 0 {
			salary = nil
		}
		mustExec(t, db, `INSERT INTO jobs VALUES (?, ?, ?, ?, ?, ?)`,
			i, titles[rng.Intn(len(titles))], city, rng.Intn(10), salary, rng.Intn(2) == 0)
	}
	for i := 0; i < 120; i++ {
		var score any = float64(rng.Intn(1000)) / 10
		if rng.Intn(9) == 0 {
			score = nil
		}
		mustExec(t, db, `INSERT INTO apps VALUES (?, ?, ?, ?)`,
			i, rng.Intn(70), score, statuses[rng.Intn(len(statuses))])
	}
	return db
}

// sameOutcome fails unless the engine's outcome of one statement (got) is the
// reference's (want): the same error text, or the same columns, rows and plan.
func sameOutcome(t testing.TB, sql string, got *Result, gotErr error, want *Result, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: compiled err = %v, reference err = %v", sql, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: compiled err %q, reference err %q", sql, gotErr, wantErr)
		}
		return
	}
	if !reflect.DeepEqual(got.Columns, want.Columns) {
		t.Fatalf("%s: columns %v vs %v", sql, got.Columns, want.Columns)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows vs %d rows\ncompiled:  %v\nreference: %v",
			sql, len(got.Rows), len(want.Rows), got.Rows, want.Rows)
	}
	for i := range got.Rows {
		if !reflect.DeepEqual(got.Rows[i], want.Rows[i]) {
			t.Fatalf("%s: row %d differs: %v vs %v", sql, i, got.Rows[i], want.Rows[i])
		}
	}
	if got.Plan != want.Plan {
		t.Fatalf("%s: plan %q vs %q", sql, got.Plan, want.Plan)
	}
}

// runBoth executes a read-only sql through the engine and through the
// reference and asserts identical outcomes. It returns the engine's result
// (nil when both failed alike) for follow-up assertions.
func runBoth(t testing.TB, db *DB, sql string, params ...any) *Result {
	t.Helper()
	got, gotErr := db.Query(sql, params...)
	want, wantErr := refRun(db, sql, params...)
	sameOutcome(t, sql, got, gotErr, want, wantErr)
	// Plan strings only render under EXPLAIN, so sweep the EXPLAIN variant of
	// every SELECT too: compiled and reference access planning must describe
	// the same path.
	if up := strings.ToUpper(strings.TrimSpace(sql)); strings.HasPrefix(up, "SELECT") {
		esql := "EXPLAIN " + sql
		gotE, gotErr := db.Query(esql, params...)
		wantE, wantErr := refRun(db, esql, params...)
		sameOutcome(t, esql, gotE, gotErr, wantE, wantErr)
	}
	return got
}

// diffCase is one statement of a differential corpus with its parameters.
type diffCase struct {
	sql    string
	params []any
}

// dialectCorpus exercises every construct of the dialect, including the
// error shapes.
var dialectCorpus = []diffCase{
	// Scans, filters, every comparison operator.
	{`SELECT id, title FROM jobs`, nil},
	{`SELECT * FROM jobs WHERE salary > 100000`, nil},
	{`SELECT id FROM jobs WHERE salary >= ? AND salary <= ?`, []any{95000, 110000}},
	{`SELECT id FROM jobs WHERE salary < 95000 OR remote = TRUE`, nil},
	{`SELECT id FROM jobs WHERE title != 'Analyst'`, nil},
	{`SELECT id FROM jobs WHERE NOT remote = TRUE AND city = 'Oakland'`, nil},
	{`SELECT id FROM jobs WHERE title LIKE '%data%'`, nil},
	{`SELECT id FROM jobs WHERE title LIKE '_L %'`, nil},
	{`SELECT id FROM jobs WHERE city IN ('Oakland', 'Austin', ?)`, []any{"Seattle"}},
	{`SELECT id FROM jobs WHERE city NOT IN ('Oakland')`, nil},
	{`SELECT id FROM jobs WHERE city IS NULL`, nil},
	{`SELECT id, salary FROM jobs WHERE salary IS NOT NULL AND salary = 99000.0`, nil},
	// Index-served predicates (EXPLAIN plans must match too).
	{`EXPLAIN SELECT id FROM jobs WHERE city = 'Oakland'`, nil},
	{`SELECT id FROM jobs WHERE city = ?`, []any{"Oakland"}},
	{`SELECT id FROM jobs WHERE salary >= 110000`, nil},
	// A constant of another class than the column's is the scan's to compare
	// (95000 > '9500' by rendering, 3 = '3'), with an index on the column
	// (salary ordered, job_id hash) as without one (id); a number of the other
	// numeric type is still the index's.
	{`SELECT COUNT(*) FROM jobs WHERE salary > '95000'`, nil},
	{`SELECT COUNT(*) FROM jobs WHERE id > '50'`, nil},
	{`SELECT id FROM apps WHERE job_id = '3'`, nil},
	{`SELECT id FROM jobs WHERE id = '3'`, nil},
	{`SELECT id FROM apps WHERE job_id = ? AND '3' = job_id`, []any{"3"}},
	{`SELECT id FROM apps WHERE job_id IN (3, '4')`, nil},
	{`SELECT id FROM apps WHERE 3.0 = job_id`, nil},
	{`SELECT id FROM jobs WHERE salary <= 99000.5`, nil},
	// Projection shapes.
	{`SELECT title AS t, city AS c FROM jobs WHERE id < 10`, nil},
	{`SELECT *, id FROM jobs WHERE id < 5`, nil},
	{`SELECT DISTINCT title FROM jobs`, nil},
	{`SELECT DISTINCT title, remote FROM jobs`, nil},
	// Aggregates: global, grouped, expressions.
	{`SELECT COUNT(*) FROM jobs`, nil},
	{`SELECT COUNT(*), COUNT(salary), COUNT(city) FROM jobs`, nil},
	{`SELECT MIN(salary), MAX(salary), AVG(salary), SUM(salary) FROM jobs`, nil},
	{`SELECT SUM(score), AVG(score) FROM apps`, nil},
	{`SELECT COUNT(*) FROM jobs WHERE id > 1000`, nil}, // empty input
	{`SELECT SUM(salary), MIN(title) FROM jobs WHERE id > 1000`, nil},
	{`SELECT city, COUNT(*) AS n FROM jobs GROUP BY city ORDER BY city`, nil},
	{`SELECT city, title, COUNT(*) AS n FROM jobs GROUP BY city, title ORDER BY city, title`, nil},
	{`SELECT status, SUM(score) FROM apps GROUP BY status ORDER BY status`, nil},
	{`SELECT SUM(title) FROM jobs`, nil},                     // non-numeric SUM error
	{`SELECT city, SUM(title) FROM jobs GROUP BY city`, nil}, // same, grouped
	// ORDER BY / LIMIT / OFFSET, output and input keys, ties.
	{`SELECT id, salary FROM jobs ORDER BY salary DESC, id ASC`, nil},
	{`SELECT id FROM jobs ORDER BY salary DESC LIMIT 5`, nil},
	{`SELECT id FROM jobs ORDER BY salary DESC LIMIT 5 OFFSET 3`, nil},
	{`SELECT title FROM jobs ORDER BY salary DESC LIMIT 4`, nil}, // unprojected key
	{`SELECT id FROM jobs ORDER BY id LIMIT 0`, nil},
	{`SELECT id FROM jobs ORDER BY id OFFSET 55`, nil},
	{`SELECT id FROM jobs ORDER BY id OFFSET 100`, nil},
	{`SELECT id FROM jobs LIMIT 7`, nil},
	{`SELECT id FROM jobs LIMIT 7 OFFSET 58`, nil},
	{`SELECT id FROM jobs LIMIT 100`, nil},
	{`SELECT DISTINCT title FROM jobs ORDER BY title LIMIT 3`, nil},
	{`SELECT DISTINCT title FROM jobs LIMIT 2`, nil},
	{`SELECT DISTINCT city FROM jobs ORDER BY salary`, nil}, // runtime row-count quirk
	{`SELECT city, COUNT(*) AS n FROM jobs GROUP BY city ORDER BY n DESC, city LIMIT 2`, nil},
	{`SELECT city FROM jobs GROUP BY city ORDER BY salary`, nil}, // agg ORDER BY error
	// Error shapes: lazy and eager resolution.
	{`SELECT nope FROM jobs`, nil},
	{`SELECT id FROM jobs WHERE nope = 1`, nil},
	{`SELECT id FROM missing`, nil},
	{`SELECT id FROM jobs WHERE title = ?`, nil}, // missing param
	{`SELECT *, COUNT(*) FROM jobs`, nil},        // star with aggregate
	{`SELECT id FROM jobs ORDER BY COUNT(id)`, nil},
	{`SELECT city, COUNT(*) FROM jobs GROUP BY nope`, nil},
}

// The shapes the compiler once left to the interpreter, with the outcomes
// recorded while it still ran them: a reference that does not resolve is
// an error only where evaluation reaches it, and the checks between the
// interpreter's phases do not depend on the rows.
var pinnedOutcomes = []struct {
	sql  string
	rows int
	err  string
}{
	{`SELECT nope FROM jobs WHERE id > 1000`, 0, ""},
	{`SELECT id FROM jobs WHERE id > 1000 AND nope = 1`, 0, ""},
	{`SELECT id FROM jobs WHERE id > 1000 ORDER BY nope`, 0, ""},
	{`SELECT COUNT(nope) FROM jobs WHERE id > 1000`, 1, ""},
	{`SELECT city, COUNT(*) FROM jobs WHERE id > 1000 GROUP BY nope`, 0, ""},
	{`SELECT DISTINCT id FROM jobs ORDER BY salary`, 60, ""},
	{`SELECT DISTINCT city FROM jobs ORDER BY salary`, 0, "relational: internal: row count mismatch in ORDER BY"},
	{`SELECT *, COUNT(*) FROM jobs WHERE id > 1000`, 0, "relational: SELECT * cannot be combined with aggregates"},
	{`SELECT city FROM jobs WHERE id > 1000 GROUP BY city ORDER BY salary`, 0, `relational: ORDER BY key "salary" must be an output column in aggregate queries`},
	// A later phase's error waits for the filter to have seen every row,
	// and a LIMIT does not hide what the rows behind it raise.
	{`SELECT id = ? FROM jobs WHERE id < 5 OR title = ?`, 0, "relational: missing parameter 2"},
	{`SELECT id FROM jobs WHERE id < 10 OR nope = 1 LIMIT 3`, 0, "relational: unknown column: nope"},
	{`SELECT id FROM jobs WHERE id < 10 LIMIT 3`, 3, ""},
}

// TestDifferentialDialectSurface pins compiled == reference on dialectCorpus.
func TestDifferentialDialectSurface(t *testing.T) {
	db := diffDB(t, 7)
	for _, c := range dialectCorpus {
		runBoth(t, db, c.sql, c.params...)
	}

	for _, c := range pinnedOutcomes {
		runBoth(t, db, c.sql)
		res, err := db.Query(c.sql)
		switch {
		case c.err != "":
			if err == nil || err.Error() != c.err {
				t.Errorf("%s: err = %v, want %q", c.sql, err, c.err)
			}
		case err != nil || len(res.Rows) != c.rows:
			t.Errorf("%s: %d rows, err %v; want %d rows", c.sql, len(res.Rows), err, c.rows)
		}
	}
}

// TestDifferentialPropertyCorpus runs the randomized property-style corpus
// (random predicates, group keys, orderings and parameters over seeded data)
// through both executors.
func TestDifferentialPropertyCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 6; trial++ {
		db := diffDB(t, int64(100+trial))
		cols := []string{"id", "title", "city", "company_id", "salary", "remote"}
		ops := []string{"=", "!=", "<", "<=", ">", ">="}
		randPred := func() (string, []any) {
			switch rng.Intn(5) {
			case 0:
				return fmt.Sprintf("salary %s ?", ops[rng.Intn(len(ops))]), []any{90000 + rng.Intn(30)*1000}
			case 1:
				return "city IN (?, ?)", []any{"Oakland", "Seattle"}
			case 2:
				return "salary >= ? AND salary <= ?", []any{92000 + rng.Intn(10)*1000, 100000 + rng.Intn(10)*1000}
			case 3:
				return "title LIKE ?", []any{"%" + string("admes"[rng.Intn(5)]) + "%"}
			default:
				return "city IS NOT NULL AND remote = ?", []any{rng.Intn(2) == 0}
			}
		}
		for q := 0; q < 40; q++ {
			pred, params := randPred()
			var sql string
			switch rng.Intn(4) {
			case 0:
				sql = fmt.Sprintf(`SELECT id, title, salary FROM jobs WHERE %s ORDER BY id`, pred)
			case 1:
				sql = fmt.Sprintf(`SELECT %s, COUNT(*) AS n, AVG(salary) AS a FROM jobs WHERE %s GROUP BY %s ORDER BY %s`,
					cols[1+rng.Intn(2)], pred, cols[1+rng.Intn(2)], cols[1+rng.Intn(2)])
				// GROUP BY column and projected column may differ: both
				// paths must agree even on the resulting error/first-row
				// semantics.
				sql = strings.ReplaceAll(sql, "GROUP BY title ORDER BY city", "GROUP BY title ORDER BY title")
				sql = strings.ReplaceAll(sql, "GROUP BY city ORDER BY title", "GROUP BY city ORDER BY city")
			case 2:
				sql = fmt.Sprintf(`SELECT DISTINCT title FROM jobs WHERE %s ORDER BY title LIMIT %d`, pred, 1+rng.Intn(5))
			default:
				sql = fmt.Sprintf(`SELECT id, company_id FROM jobs WHERE %s ORDER BY id LIMIT %d OFFSET %d`,
					pred, 1+rng.Intn(20), rng.Intn(5))
			}
			runBoth(t, db, sql, params...)
		}
	}
}

// sameTables fails unless the two databases hold the same tables in the same
// state: schema, every stored row and tombstone, data version, and every
// index entry, postings in the same order.
func sameTables(t testing.TB, after string, compiled, reference *DB) {
	t.Helper()
	if !reflect.DeepEqual(compiled.order, reference.order) {
		t.Fatalf("after %s: tables %v vs %v", after, compiled.order, reference.order)
	}
	for _, key := range compiled.order {
		c, r := compiled.tables[key], reference.tables[key]
		if c.name != r.name || !reflect.DeepEqual(c.schema, r.schema) {
			t.Fatalf("after %s: %s (%s) vs %s (%s)", after, c.name, c.schema.String(), r.name, r.schema.String())
		}
		if !reflect.DeepEqual(c.rows, r.rows) || !reflect.DeepEqual(c.live, r.live) || c.liveCnt != r.liveCnt {
			t.Fatalf("after %s: %s diverges\ncompiled:  %v %v\nreference: %v %v", after, c.name, c.rows, c.live, r.rows, r.live)
		}
		if c.dataVer != r.dataVer {
			t.Fatalf("after %s: %s data version %d vs %d", after, c.name, c.dataVer, r.dataVer)
		}
		if len(c.indexes) != len(r.indexes) {
			t.Fatalf("after %s: %s has %d indexes vs %d", after, c.name, len(c.indexes), len(r.indexes))
		}
		for col, cix := range c.indexes {
			rix := r.indexes[col]
			if rix == nil || cix.kind != rix.kind || !reflect.DeepEqual(cix.order, rix.order) {
				t.Fatalf("after %s: index on %s.%s diverges", after, c.name, col)
			}
			// An emptied posting list may linger as an empty slice.
			for k, ids := range cix.hash {
				if len(ids)+len(rix.hash[k]) > 0 && !reflect.DeepEqual(ids, rix.hash[k]) {
					t.Fatalf("after %s: index on %s.%s, key %q: postings %v vs %v", after, c.name, col, k, ids, rix.hash[k])
				}
			}
			for k, ids := range rix.hash {
				if _, ok := cix.hash[k]; !ok && len(ids) > 0 {
					t.Fatalf("after %s: index on %s.%s, key %q: postings missing vs %v", after, c.name, col, k, ids)
				}
			}
		}
	}
}

// dmlCorpus runs in order against one fixture. n and err are asserted when
// pinned: the outcome recorded while the interpreter still ran these shapes.
var dmlCorpus = []struct {
	sql    string
	params []any
	pinned bool
	n      int
	err    string
}{
	{sql: `UPDATE jobs SET salary = ? WHERE city = 'Oakland' AND salary < ?`, params: []any{123456, 100000}},
	{sql: `UPDATE jobs SET remote = TRUE, title = 'Promoted' WHERE salary > ? OR city IS NULL`, params: []any{105000}},
	{sql: `UPDATE jobs SET salary = NULL WHERE id >= 10 AND id <= 20`},
	{sql: `DELETE FROM jobs WHERE title LIKE '%analyst%' OR salary IS NULL`},
	{sql: `DELETE FROM jobs WHERE id IN (1, 3, 5, ?)`, params: []any{7}},
	{sql: `UPDATE jobs SET salary = 1 WHERE nope = 1`, pinned: true, err: "relational: unknown column: nope"},
	{sql: `UPDATE jobs SET nope = 1 WHERE id > 1000`, pinned: true, err: "relational: unknown column: jobs.nope"},
	{sql: `UPDATE jobs SET salary = nope WHERE id > 1000`, pinned: true},
	{sql: `DELETE FROM jobs WHERE id > 1000 AND nope = 2`, pinned: true},
	{sql: `DELETE FROM missing WHERE id = 1`, pinned: true, err: "relational: table not found: missing"},
	// The second row has the wrong arity: the first stays inserted.
	{sql: `INSERT INTO companies VALUES (100, 'first', 'mid'), (101, 'short')`, pinned: true, err: "relational: wrong number of values: 2 values for 3 columns"},
	{sql: `INSERT INTO companies (id, nope) VALUES (102, 'x')`},
	{sql: `INSERT INTO companies (size, id) VALUES ('small', ?), (?, 104)`, params: []any{103}},
	// Failing midway: the rows before the failing one, in id order, keep
	// their update — through an index's candidates too. The first UPDATE
	// files the lowest ids last in the index's Oakland postings, with a
	// salary the third can store as a title; the other Oakland rows fail it.
	{sql: `UPDATE jobs SET city = 'Oakland', salary = NULL WHERE id IN (0, 2, 4)`},
	{sql: `UPDATE jobs SET title = 'partial' WHERE city = 'Oakland' AND (id < 30 OR title = ?)`},
	{sql: `UPDATE jobs SET title = salary WHERE city = 'Oakland'`},
	// A predicate that can raise is evaluated on every row, not on an
	// index's candidates only.
	{sql: `DELETE FROM jobs WHERE title = ? AND city = 'Nowhere'`},
}

// TestDifferentialDML: INSERT/UPDATE/DELETE through compiled programs must
// report what the reference reports and mutate exactly the rows it mutates —
// also when the statement fails midway.
func TestDifferentialDML(t *testing.T) {
	compiled := diffDB(t, 31)
	reference := diffDB(t, 31)
	for _, m := range dmlCorpus {
		nc, errC := compiled.Exec(m.sql, m.params...)
		res, errR := refRun(reference, m.sql, m.params...)
		nr := 0
		if errR == nil {
			nr = affectedCount(res)
		}
		if (errC == nil) != (errR == nil) || nc != nr || (errC != nil && errC.Error() != errR.Error()) {
			t.Fatalf("%s: compiled (%d, %v) vs reference (%d, %v)", m.sql, nc, errC, nr, errR)
		}
		if m.pinned {
			if got := fmt.Sprint(errC); nc != m.n || (m.err == "") != (errC == nil) || (errC != nil && got != m.err) {
				t.Fatalf("%s: (%d, %v), want (%d, %q)", m.sql, nc, errC, m.n, m.err)
			}
		}
		sameTables(t, m.sql, compiled, reference)
	}
	if res, err := compiled.Query(`SELECT name FROM companies WHERE id = 100`); err != nil || len(res.Rows) != 1 {
		t.Fatalf("the row before the INSERT's failing row: %v, %v", res, err)
	}
}

// TestCompiledPlanReusedAcrossExecutions: prepared statements compile once;
// repeated executions skip parse and compile.
func TestCompiledPlanReusedAcrossExecutions(t *testing.T) {
	db := diffDB(t, 5)
	db.ResetCacheStats()
	st, err := db.Prepare(`SELECT id, title FROM jobs WHERE salary > ? ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := st.Query(90000 + i*500); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.CacheStats().Compiles; got != 1 {
		t.Fatalf("Compiles = %d after 20 prepared executions, want 1", got)
	}
	// Query traffic on the same text shares the prepared slot via the
	// statement cache: still no recompilation.
	if _, err := db.Query(`SELECT id, title FROM jobs WHERE salary > ? ORDER BY id`, 95000); err != nil {
		t.Fatal(err)
	}
	if got := db.CacheStats().Compiles; got != 1 {
		t.Fatalf("Compiles = %d after cached Query, want 1", got)
	}
}

// TestOneCompilePerShape: executions that meet a shape not yet compiled, or
// compiled against a schema that is gone, all at once compile it once between
// them — the rest wait for that program instead of building their own.
func TestOneCompilePerShape(t *testing.T) {
	db := diffDB(t, 3)
	release := func(st *Stmt) uint64 {
		t.Helper()
		before := db.CacheStats().Compiles
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 32; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				if _, err := st.Query(g); err != nil {
					t.Error(err)
				}
			}(g)
		}
		close(start)
		wg.Wait()
		return db.CacheStats().Compiles - before
	}
	// The LIMIT is part of the shape: twenty shapes never seen before.
	stmts := make([]*Stmt, 20)
	for i := range stmts {
		st, err := db.Prepare(fmt.Sprintf(`SELECT id, status FROM apps WHERE job_id = ? AND score > 1.5 ORDER BY id LIMIT %d`, i+1))
		if err != nil {
			t.Fatal(err)
		}
		stmts[i] = st
		if n := release(st); n != 1 {
			t.Fatalf("32 first executions of one shape compiled it %d times, want 1", n)
		}
	}
	mustExec(t, db, `DROP TABLE apps`)
	mustExec(t, db, `CREATE TABLE apps (id INT, job_id INT, score FLOAT, status TEXT)`)
	for _, st := range stmts {
		if n := release(st); n != 1 {
			t.Fatalf("32 executions after DROP+CREATE of the table compiled the shape %d times, want 1", n)
		}
	}
}

// TestCompiledPlanDDLInvalidation: recreating a table with a different
// column order must recompile the plan — stale offsets would silently
// return wrong columns.
func TestCompiledPlanDDLInvalidation(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE t (a INT, b TEXT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'one')`)
	st, err := db.Prepare(`SELECT b FROM t WHERE a = 1`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Query()
	if err != nil || res.Rows[0][0].S != "one" {
		t.Fatalf("pre-DDL = %v, %v", res, err)
	}
	before := db.CacheStats().Compiles

	// Swap the column order under the same names.
	mustExec(t, db, `DROP TABLE t`)
	mustExec(t, db, `CREATE TABLE t (b TEXT, a INT)`)
	mustExec(t, db, `INSERT INTO t VALUES ('two', 1)`)
	res, err = st.Query()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "two" {
		t.Fatalf("post-DDL rows = %v (stale compiled offsets?)", res.Rows)
	}
	if after := db.CacheStats().Compiles; after <= before {
		t.Fatalf("Compiles %d -> %d: recreate did not recompile", before, after)
	}

	// Dropping the table turns the plan into the not-found error.
	mustExec(t, db, `DROP TABLE t`)
	if _, err := st.Query(); err == nil || !strings.Contains(err.Error(), "table not found") {
		t.Fatalf("err = %v, want table not found", err)
	}

	// An unknown column is the compiled program's error only until the
	// schema gains the column: the recreate invalidates the program with it.
	mustExec(t, db, `CREATE TABLE h (x INT)`)
	mustExec(t, db, `INSERT INTO h VALUES (1)`)
	sth, err := db.Prepare(`SELECT y FROM h`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sth.Query(); err == nil || err.Error() != "relational: unknown column: y" {
		t.Fatalf("err = %v, want unknown column: y", err)
	}
	mustExec(t, db, `DROP TABLE h`)
	mustExec(t, db, `CREATE TABLE h (y TEXT)`)
	mustExec(t, db, `INSERT INTO h VALUES ('healed')`)
	res, err = sth.Query()
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "healed" {
		t.Fatalf("healed query = %v, %v", res, err)
	}
}

// TestCompiledIndexPickupWithoutRecompile: CREATE INDEX must not invalidate
// compiled plans (offsets are unchanged) yet the access path must start
// using the new index, because planAccess runs at execution time.
func TestCompiledIndexPickupWithoutRecompile(t *testing.T) {
	db := diffDB(t, 11)
	// Prepared as EXPLAIN so each execution reports the access path it chose
	// (plan strings render only under EXPLAIN); the property under test —
	// execution-time access planning against a fixed compiled program — is
	// identical for the plain SELECT.
	st, err := db.Prepare(`EXPLAIN SELECT id FROM apps WHERE status = 'offer'`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Query()
	if err != nil || !strings.Contains(res.Plan, "SeqScan") {
		t.Fatalf("pre-index plan = %q (%v)", res.Plan, err)
	}
	db.ResetCacheStats()
	mustExec(t, db, `CREATE INDEX idx_status ON apps (status)`)
	res, err = st.Query()
	if err != nil || !strings.Contains(res.Plan, "IndexScan") {
		t.Fatalf("post-index plan = %q (%v)", res.Plan, err)
	}
	if got := db.CacheStats().Compiles; got != 0 {
		t.Fatalf("CREATE INDEX forced %d recompiles of the prepared plan, want 0", got)
	}
}

// TestSharedPreparedStmtConcurrency races many goroutines over one shared
// prepared statement while DDL churns other tables (forcing concurrent
// recompile checks) — run under -race by tier-1.
func TestSharedPreparedStmtConcurrency(t *testing.T) {
	db := diffDB(t, 17)
	queries := []*Stmt{}
	for _, sql := range []string{
		`SELECT id, title FROM jobs WHERE salary > ? ORDER BY id LIMIT 10`,
		`SELECT city, COUNT(*) AS n FROM jobs GROUP BY city ORDER BY city`,
		`SELECT id, name FROM companies WHERE size = ?`,
	} {
		st, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, st)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				switch i % 4 {
				case 0:
					if _, err := queries[0].Query(90000 + i*100); err != nil {
						errs <- err
						return
					}
				case 1:
					if _, err := queries[1].Query(); err != nil {
						errs <- err
						return
					}
				case 2:
					if _, err := queries[2].Query("mid"); err != nil {
						errs <- err
						return
					}
				case 3:
					name := fmt.Sprintf("scratch_%d_%d", w, i)
					if _, err := db.Exec(`CREATE TABLE ` + name + ` (a INT)`); err != nil {
						errs <- err
						return
					}
					if _, err := db.Exec(`DROP TABLE ` + name); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSharedPreparedStmtAcrossTargetDDL races executions of one prepared
// statement against DROP/CREATE of its own table: every execution must see
// either a coherent old-schema or new-schema result (or a clean not-found
// error), never a torn read or panic.
func TestSharedPreparedStmtAcrossTargetDDL(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE flip (a INT, b TEXT)`)
	mustExec(t, db, `INSERT INTO flip VALUES (1, 'x')`)
	st, err := db.Prepare(`SELECT * FROM flip`)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = db.Exec(`DROP TABLE flip`)
			if i%2 == 0 {
				_, _ = db.Exec(`CREATE TABLE flip (a INT, b TEXT)`)
			} else {
				_, _ = db.Exec(`CREATE TABLE flip (b TEXT, a INT, c BOOL)`)
			}
		}
	}()
	for i := 0; i < 500; i++ {
		res, err := st.Query()
		if err != nil {
			if !strings.Contains(err.Error(), "table not found") {
				t.Fatalf("unexpected error: %v", err)
			}
			continue
		}
		if len(res.Columns) != 2 && len(res.Columns) != 3 {
			t.Fatalf("torn schema read: columns = %v", res.Columns)
		}
	}
	close(stop)
	wg.Wait()
}

// TestAppendValueKeyMatchesKeyEquivalence: the binary encoder must induce
// exactly the equality classes of Value.Key (ints unify with integral
// floats, strings with embedded NULs and tag bytes cannot collide).
func TestAppendValueKeyMatchesKeyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := []Value{
		Null, NewBool(true), NewBool(false),
		NewInt(0), NewInt(3), NewInt(-3), NewInt(1 << 40),
		NewFloat(3), NewFloat(3.5), NewFloat(-3), NewFloat(0),
		NewString(""), NewString("3"), NewString("i:3"), NewString("a\x00b"), NewString("a"), NewString("b\x00"),
	}
	for i := 0; i < 200; i++ {
		vals = append(vals, genValue(uint8(rng.Intn(5)), rng.Int63(), rng.Float64()*1e3, fmt.Sprintf("s%d\x00%d", rng.Intn(9), rng.Intn(9)), rng.Intn(2) == 0))
	}
	for _, a := range vals {
		for _, b := range vals {
			ka := string(appendValueKey(nil, a))
			kb := string(appendValueKey(nil, b))
			if (a.Key() == b.Key()) != (ka == kb) {
				t.Fatalf("key equivalence mismatch: %#v vs %#v (Key %q/%q, binary %x/%x)",
					a, b, a.Key(), b.Key(), ka, kb)
			}
		}
	}
	// Multi-value keys must not collide across value boundaries.
	r1 := Row{NewString("a\x00"), NewString("b")}
	r2 := Row{NewString("a"), NewString("\x00b")}
	if string(appendRowKey(nil, r1)) == string(appendRowKey(nil, r2)) {
		t.Fatal("row keys collide across value boundaries")
	}
}

// `city = 'Oakland' OR id = ?` with the parameter unbound raises "missing
// parameter" on exactly the rows the left side does not short-circuit.
var accumulatorCorpus = []diffCase{
	// Evaluation error inside an aggregate argument, in some groups only.
	{`SELECT city, COUNT((city = 'Oakland' OR id = ?)) FROM jobs GROUP BY city`, nil},
	{`SELECT city, COUNT((city = 'Oakland' OR id = ?)) FROM jobs WHERE city = 'Oakland' GROUP BY city`, nil},
	// ... against a WHERE error on a later row: WHERE wins.
	{`SELECT city, COUNT((city = 'Oakland' OR id = ?)) FROM jobs WHERE id < 30 OR title = ? GROUP BY city`, nil},
	{`SELECT COUNT((id < 5 OR id = ?)) FROM jobs WHERE id < 50 OR title = ?`, nil},
	// ... against a later item of the same group.
	{`SELECT city, MIN(salary), COUNT((id < 0 OR id = ?)), SUM(title) FROM jobs GROUP BY city`, nil},
	{`SELECT city, SUM(title), COUNT((id < 0 OR id = ?)) FROM jobs GROUP BY city`, nil},
	// A missing parameter inside SUM(?): over zero rows, over one row, grouped.
	{`SELECT SUM(?) FROM jobs WHERE id > 1000`, nil},
	{`SELECT SUM(?), COUNT(*) FROM jobs WHERE id = 3`, nil},
	{`SELECT SUM(?) FROM jobs WHERE id = 3`, []any{7}},
	{`SELECT city, SUM(?) FROM jobs WHERE id > 1000 GROUP BY city`, nil},
	{`SELECT city, AVG(?) FROM jobs GROUP BY city ORDER BY city`, []any{2.5}},
	// SUM over a non-numeric value, then an evaluation error on a later
	// row: `remote = TRUE OR id = ?` is a BOOL where it short-circuits.
	{`SELECT SUM((remote = TRUE OR id = ?)) FROM jobs`, nil},
	{`SELECT city, AVG((remote = TRUE OR id = ?)) FROM jobs GROUP BY city`, nil},
	{`SELECT SUM((remote = TRUE OR id = ?)) FROM jobs WHERE remote = TRUE`, nil},
	{`SELECT SUM(title), COUNT((id < 0 OR id = ?)) FROM jobs`, nil},
	// Nested aggregate: an evaluation error on every row, none over zero rows.
	{`SELECT MAX(COUNT(id)) FROM jobs`, nil},
	{`SELECT MAX(COUNT(id)) FROM jobs WHERE id > 1000`, nil},
	// Global aggregate over empty input: one row, a non-aggregate item NULL.
	{`SELECT COUNT(*), SUM(salary), MIN(title), title FROM jobs WHERE id > 1000`, nil},
	// Mixed items: a column beside expressions over several aggregates of it.
	{`SELECT city, MIN(salary) < MAX(salary), COUNT(salary) = COUNT(*) FROM jobs GROUP BY city ORDER BY city`, nil},
	{`SELECT salary, MIN(salary) = MAX(salary) AND COUNT(salary) = COUNT(*) AS same FROM jobs GROUP BY salary ORDER BY salary`, nil},
	{`SELECT title, city, AVG(salary) > MIN(salary) OR salary IS NULL FROM jobs GROUP BY title ORDER BY title`, nil},
}

// TestDifferentialAccumulatorOrder pins the shapes whose order of events
// changed when aggregates started folding during the scan: the compiled
// engine evaluates an aggregate's argument while later rows are still to be
// filtered, and every aggregate of a group at once, yet must report what the
// interpreter reports — a WHERE error at any row first, then group by group,
// items left to right, rows in order, SUM's type error after every evaluation
// error.
func TestDifferentialAccumulatorOrder(t *testing.T) {
	for _, seed := range []int64{41, 42, 43} {
		db := diffDB(t, seed)
		for _, c := range accumulatorCorpus {
			runBoth(t, db, c.sql, c.params...)
		}
	}
}

// FuzzSQLDifferential: arbitrary SQL text with a small parameter vector gives,
// when it parses, the same outcome from the engine (DB.Query: fingerprint,
// shape-keyed cache, compiled program) as from the reference interpreter —
// columns, rows, error text and, for a SELECT, the EXPLAIN string — a mutation
// applied to twin databases leaves them in the same state, and nothing
// panics. Text that does not parse — the constructs the dialect refuses
// (rejectedConstructs) among it — is refused by both with the same error:
// they share the parser. Seeds: the differential corpora above and the
// rejected texts, unbound and bound; findings are checked in under
// testdata/fuzz/FuzzSQLDifferential.
func FuzzSQLDifferential(f *testing.F) {
	seed := func(sql string) {
		f.Add(sql, uint8(0), int64(0), int64(0), "")
		f.Add(sql, uint8(3), int64(95000), int64(110000), "Oakland")
	}
	for _, c := range dialectCorpus {
		seed(c.sql)
	}
	for _, c := range accumulatorCorpus {
		seed(c.sql)
	}
	for _, c := range pinnedOutcomes {
		seed(c.sql)
	}
	for _, c := range dmlCorpus {
		seed(c.sql)
	}
	for _, c := range rejectedConstructs {
		seed(c.sql)
	}
	seed(`CREATE TABLE scratch (a INT, b TEXT)`)
	seed(`CREATE ORDERED INDEX idx_score ON apps (score)`)
	seed(`DROP TABLE apps`)
	// Past maxAutoParams literals: slots first, the tail inline in the shape.
	seed(bigIn(selIDs, 80, 69, 9))
	seed(bigIn(`UPDATE jobs SET salary = 1 WHERE`, 80, 69, 9))

	// Reads share one fixture; every mutation gets fresh twins restored from
	// its snapshot.
	shared := diffDB(f, 7)
	var snap bytes.Buffer
	if err := shared.Snapshot(&snap); err != nil {
		f.Fatal(err)
	}
	twin := func(t *testing.T) *DB {
		db := NewDB()
		if err := db.Restore(bytes.NewReader(snap.Bytes())); err != nil {
			t.Fatal(err)
		}
		return db
	}
	f.Fuzz(func(t *testing.T, sql string, n uint8, a, b int64, s string) {
		params := []any{a, b, s}[:n%4]
		st, err := Parse(sql)
		if err != nil {
			if _, qerr := shared.Query(sql, params...); qerr == nil || qerr.Error() != err.Error() {
				t.Fatalf("%q: Parse reports %q, Query %v", sql, err, qerr)
			}
			return
		}
		if _, ok := st.(*SelectStmt); ok {
			runBoth(t, shared, sql, params...)
			return
		}
		compiled, reference := twin(t), twin(t)
		got, gotErr := compiled.Query(sql, params...)
		want, wantErr := refRun(reference, sql, params...)
		sameOutcome(t, sql, got, gotErr, want, wantErr)
		sameTables(t, sql, compiled, reference)
	})
}
