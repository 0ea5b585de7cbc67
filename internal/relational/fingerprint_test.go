package relational

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func fpOf(t testing.TB, sql string) (string, []Value) {
	t.Helper()
	var fp fingerprint
	if !fingerprintStmt(&fp, sql) {
		t.Fatalf("fingerprint bailed on %q", sql)
	}
	return string(fp.key), append([]Value(nil), fp.lits...)
}

// Law 1: texts differing only in extractable literals share one shape key,
// and the literal values come out in token order.
func TestFingerprintLiteralVariantsShareKey(t *testing.T) {
	groups := [][]string{
		{
			`SELECT id FROM jobs WHERE city = 'Oakland' AND salary > 95000`,
			`SELECT id FROM jobs WHERE city = 'Seattle' AND salary > 120000`,
			`select id from jobs where city = 'X' and salary > 1 -- comment`,
			"SELECT  id\nFROM jobs\tWHERE city = 'spaced'  AND salary > 2",
		},
		{
			`INSERT INTO jobs VALUES (1, 'a', 90000)`,
			`INSERT INTO jobs VALUES (2, 'it''s', 120000)`,
		},
		{
			`UPDATE jobs SET title = 'x', salary = 1 WHERE id = 2`,
			`UPDATE jobs SET title = 'y', salary = 9 WHERE id = 4`,
		},
		{
			`DELETE FROM jobs WHERE salary BETWEEN 1 AND 2`,
			`DELETE FROM jobs WHERE salary BETWEEN 90000 AND 110000`,
		},
		{
			`SELECT city, COUNT(*) FROM jobs GROUP BY city HAVING COUNT(*) > 2`,
			`SELECT city, COUNT(*) FROM jobs GROUP BY city HAVING COUNT(*) > 99`,
		},
	}
	for _, g := range groups {
		k0, _ := fpOf(t, g[0])
		for _, sql := range g[1:] {
			k, _ := fpOf(t, sql)
			if k != k0 {
				t.Errorf("shape keys differ:\n%q\n%q", g[0], sql)
			}
		}
	}
	_, lits := fpOf(t, `UPDATE jobs SET title = 'x', salary = 7 WHERE id = 42`)
	want := []Value{NewString("x"), NewInt(7), NewInt(42)}
	if !reflect.DeepEqual(lits, want) {
		t.Errorf("extracted literals = %v, want %v", lits, want)
	}
}

// Law 2: structurally different statements never share a key — including the
// near-miss shapes that would collide under naive concatenation.
func TestFingerprintStructuralKeysDistinct(t *testing.T) {
	stmts := []string{
		`SELECT id FROM jobs WHERE city = 'x'`,
		`SELECT id FROM jobs WHERE city = ?`, // explicit param != auto literal
		`SELECT id FROM jobs WHERE city != 'x'`,
		`SELECT title FROM jobs WHERE city = 'x'`,
		`SELECT id FROM sites WHERE city = 'x'`,
		`SELECT id FROM jobs`,
		`SELECT 1 FROM jobs`, // projection literals inline
		`SELECT 2 FROM jobs`,
		`SELECT 'a' FROM jobs`, // inline strings are length-prefixed...
		`SELECT 'ab' FROM jobs`,
		`SELECT 'a', 'b' FROM jobs`, // ...so adjacency cannot collide
		`SELECT ab FROM jobs`,       // token boundaries are separator-marked
		`SELECT a b FROM jobs`,
		`SELECT a.b FROM jobs`,
		`SELECT id FROM jobs ORDER BY salary LIMIT 5`, // ORDER/LIMIT inline
		`SELECT id FROM jobs ORDER BY salary LIMIT 10`,
		`SELECT id FROM jobs ORDER BY salary DESC LIMIT 5`,
		`SELECT id FROM jobs ORDER BY city LIMIT 5`,
		`SELECT id FROM jobs LIMIT 5 OFFSET 3`,
		`SELECT id FROM jobs LIMIT 5 OFFSET 4`,
		`UPDATE jobs SET salary = 1 WHERE id = 2`,
		`DELETE FROM jobs WHERE id = 2`,
		`INSERT INTO jobs VALUES (1)`,
		`INSERT INTO jobs (id) VALUES (1)`,
		`EXPLAIN SELECT id FROM jobs WHERE city = 'x'`,
		`SELECT id FROM jobs WHERE city IN ('a')`,
		`SELECT id FROM jobs WHERE city IN ('a', 'b')`, // arity shapes the IN list
	}
	seen := map[string]string{}
	for _, sql := range stmts {
		k, _ := fpOf(t, sql)
		if prev, dup := seen[k]; dup {
			t.Errorf("shape key collision:\n%q\n%q", prev, sql)
		}
		seen[k] = sql
	}
}

// Bail cases: statements the fingerprint pass refuses get exact-text keys.
func TestFingerprintBail(t *testing.T) {
	var fp fingerprint
	bail := []string{
		``,
		`   `,
		`-- just a comment`,
		`CREATE TABLE t (a INT)`,
		`CREATE INDEX ix ON t (a)`,
		`DROP TABLE t`,
		`foo bar`,              // leading identifier
		`42`,                   // leading number
		`SELECT 'unterminated`, // lexical error
		`SELECT id FROM jobs WHERE x = 99999999999999999999999999`, // int overflow
		`EXPLAIN`,         // EXPLAIN with no statement keyword
		`EXPLAIN EXPLAIN`, // never reaches a statement keyword
	}
	// A giant IN list blows the auto-param bound.
	var sb strings.Builder
	sb.WriteString(`SELECT id FROM jobs WHERE id IN (0`)
	for i := 1; i <= maxAutoParams; i++ {
		fmt.Fprintf(&sb, ", %d", i)
	}
	sb.WriteString(`)`)
	bail = append(bail, sb.String())
	for _, sql := range bail {
		if fingerprintStmt(&fp, sql) {
			t.Errorf("fingerprint accepted %q", sql)
		}
	}
	// One literal under the bound still fingerprints.
	under := `SELECT id FROM jobs WHERE id IN (0` + strings.Repeat(", 1", maxAutoParams-1) + `)`
	if !fingerprintStmt(&fp, under) {
		t.Errorf("fingerprint bailed under the auto-param bound")
	}
}

// After warm-up the fingerprint sweep is allocation-free (pool-resident
// scratch, substring tokens, no per-statement garbage).
func TestFingerprintZeroAllocWarm(t *testing.T) {
	const sql = `SELECT id, title FROM jobs WHERE city = 'Oakland' AND salary > 95000 AND id IN (1, 2, 3) ORDER BY salary DESC LIMIT 10`
	fp := &fingerprint{}
	fingerprintStmt(fp, sql) // warm the scratch buffers
	allocs := testing.AllocsPerRun(100, func() {
		if !fingerprintStmt(fp, sql) {
			t.Fatal("bailed")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm fingerprint sweep allocates %v times per run, want 0", allocs)
	}
}

// DB-level sharing: literal variants hit one cached shape, results stay
// correct per-variant, and the counters attribute traffic correctly.
func TestShapeCacheSharing(t *testing.T) {
	db := stmtTestDB(t)
	db.SetStmtCacheCapacity(0)
	db.SetStmtCacheCapacity(DefaultStmtCacheCapacity)
	db.ResetCacheStats()
	for i := 0; i < 10; i++ {
		res, err := db.Query(fmt.Sprintf(`SELECT title FROM jobs WHERE id = %d`, i))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].S != fmt.Sprintf("title%d", i%5) {
			t.Fatalf("id %d: rows = %v", i, res.Rows)
		}
	}
	stats := db.CacheStats()
	if stats.Misses != 1 || stats.ShapeHits != 9 || stats.Hits != 9 {
		t.Errorf("10 literal variants: %+v, want 1 miss + 9 shape hits", stats)
	}
	if stats.Size != 1 {
		t.Errorf("size = %d, want 1 shared entry", stats.Size)
	}
	if stats.Compiles > 1 {
		t.Errorf("compiles = %d, want at most 1 shared compilation", stats.Compiles)
	}

	// Explicit '?' params and auto literals mix in one statement.
	for i := 0; i < 4; i++ {
		res, err := db.Query(`SELECT id FROM jobs WHERE city = 'Oakland' AND id < ?`, 3*i)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Rows {
			if r[0].I >= int64(3*i) {
				t.Fatalf("explicit bound ignored: %v with bound %d", r, 3*i)
			}
		}
	}

	// Every statement kind NL2Q-style text comes in — literals inlined, never
	// the same text twice — collapses onto one shape per template: the misses
	// are the templates, however many variants run.
	templates := []func(i int) string{
		func(i int) string {
			return fmt.Sprintf(`SELECT id AS job_id, title AS job_title FROM jobs WHERE city = 'c%d' AND salary > %d AND id >= 0 ORDER BY id ASC LIMIT 5`, i, 90000+i)
		},
		func(i int) string {
			return fmt.Sprintf(`SELECT id, city FROM jobs WHERE salary BETWEEN %d AND %d AND city != 'nowhere' LIMIT 10`, 90000+i, 99000+i)
		},
		func(i int) string {
			return fmt.Sprintf(`SELECT COUNT(*) AS n, MIN(salary) AS lo, AVG(salary) AS mean FROM jobs WHERE city = 'c%d' AND salary >= %d`, i, 90000+i)
		},
		func(i int) string {
			return fmt.Sprintf(`SELECT id, title FROM jobs WHERE id IN (%d, %d, %d) ORDER BY id ASC`, i, i+1, i+2)
		},
		func(i int) string {
			return fmt.Sprintf(`EXPLAIN SELECT id FROM jobs WHERE city = 'c%d' AND salary > %d LIMIT 5`, i, 90000+i)
		},
		func(i int) string {
			return fmt.Sprintf(`UPDATE jobs SET salary = %d WHERE id = %d AND title != 'x%d'`, 50000+i, i, i)
		},
		func(i int) string {
			return fmt.Sprintf(`DELETE FROM jobs WHERE id = %d AND city = 'nowhere%d'`, 1000+i, i)
		},
	}
	db.ResetCacheStats()
	const variants = 20
	for i := 0; i < variants; i++ {
		for _, tmpl := range templates {
			if _, err := db.Query(tmpl(i)); err != nil {
				t.Fatalf("%s: %v", tmpl(i), err)
			}
		}
	}
	stats = db.CacheStats()
	if n := uint64(len(templates)); stats.Misses != n || stats.ShapeHits != n*(variants-1) || stats.ExactFallbacks != 0 {
		t.Errorf("%d variants of %d templates: %+v, want %d misses, the rest shape hits", variants, n, stats, n)
	}
	// The shared UPDATE plan bound each variant's own literals.
	res, err := db.Query(`SELECT id FROM jobs WHERE salary < 60000 ORDER BY id`)
	if err != nil || len(res.Rows) != variants {
		t.Fatalf("%d rows carry an UPDATE variant's salary (err %v), want %d", len(res.Rows), err, variants)
	}
}

// Counter taxonomy: DDL is uncacheable (not a miss), fingerprint bails fall
// back to exact keys, parse errors count nothing.
func TestShapeCacheCounterTaxonomy(t *testing.T) {
	db := stmtTestDB(t)
	db.ResetCacheStats()
	if _, err := db.Exec(`CREATE TABLE tax (a INT)`); err != nil {
		t.Fatal(err)
	}
	stats := db.CacheStats()
	if stats.Uncacheable != 1 || stats.Misses != 0 {
		t.Errorf("DDL: %+v, want 1 uncacheable and 0 misses", stats)
	}

	// A >maxAutoParams IN list bails to exact keying but still caches.
	var sb strings.Builder
	sb.WriteString(`SELECT id FROM jobs WHERE id IN (0`)
	for i := 1; i <= maxAutoParams; i++ {
		fmt.Fprintf(&sb, ", %d", i)
	}
	sb.WriteString(`)`)
	db.ResetCacheStats()
	for i := 0; i < 3; i++ {
		if _, err := db.Query(sb.String()); err != nil {
			t.Fatal(err)
		}
	}
	stats = db.CacheStats()
	if stats.ExactFallbacks != 3 || stats.Misses != 1 || stats.Hits != 2 || stats.ShapeHits != 0 {
		t.Errorf("oversized IN list: %+v, want 1 miss + 2 exact hits, all fallbacks", stats)
	}

	db.ResetCacheStats()
	if _, err := db.Query(`SELECT FROM WHERE`); err == nil {
		t.Fatal("bad statement parsed")
	}
	stats = db.CacheStats()
	if stats.Misses != 0 && stats.Hits != 0 && stats.Uncacheable != 0 {
		t.Errorf("parse error counted: %+v", stats)
	}
}

// SetShapeCacheEnabled(false) reverts to exact-text keying: literal variants
// stop sharing.
func TestShapeCacheDisabled(t *testing.T) {
	db := stmtTestDB(t)
	db.SetShapeCacheEnabled(false)
	defer db.SetShapeCacheEnabled(true)
	db.SetStmtCacheCapacity(0)
	db.SetStmtCacheCapacity(DefaultStmtCacheCapacity)
	db.ResetCacheStats()
	for i := 0; i < 5; i++ {
		if _, err := db.Query(fmt.Sprintf(`SELECT title FROM jobs WHERE id = %d`, i)); err != nil {
			t.Fatal(err)
		}
	}
	stats := db.CacheStats()
	if stats.ShapeHits != 0 || stats.Misses != 5 || stats.Size != 5 {
		t.Errorf("disabled shape keying: %+v, want 5 exact misses", stats)
	}
}

// Missing explicit parameters must report the same user-visible ordinal
// through the shape-keyed path as through a cold exact parse — auto literal
// slots must not renumber the error.
func TestShapeKeyedMissingParamErrorParity(t *testing.T) {
	cases := []struct {
		sql    string
		params []any
	}{
		// Auto literal before the unsupplied '?': the error must still carry
		// the explicit ordinal 1, not the unified slot number.
		{`SELECT id FROM jobs WHERE city = 'Oakland' AND id < ?`, nil},
		// First '?' supplied, second missing: ordinal 2.
		{`SELECT id FROM jobs WHERE salary > ? AND id < ?`, []any{0}},
	}
	for _, c := range cases {
		shaped := stmtTestDB(t)
		_, shapedErr := shaped.Query(c.sql, c.params...)
		exact := stmtTestDB(t)
		exact.SetShapeCacheEnabled(false)
		_, exactErr := exact.Query(c.sql, c.params...)
		if shapedErr == nil || exactErr == nil {
			t.Fatalf("%s: expected missing-parameter errors, got %v / %v", c.sql, shapedErr, exactErr)
		}
		if shapedErr.Error() != exactErr.Error() {
			t.Fatalf("%s: error parity: shape-keyed %q vs exact %q", c.sql, shapedErr, exactErr)
		}
	}
}

// The decisive law: shape-keyed execution is byte-identical — columns, rows,
// plans and errors — to exact-keyed execution over a corpus of literal
// variants.
func TestDifferentialShapeVsExact(t *testing.T) {
	shaped := diffDB(t, 19)
	exact := diffDB(t, 19)
	exact.SetShapeCacheEnabled(false)
	shaped.ResetCacheStats() // fixture population traffic is not under test

	templates := []string{
		`SELECT id, title FROM jobs WHERE city = '%s' ORDER BY id`,
		`SELECT id FROM jobs WHERE salary > %d AND remote = TRUE ORDER BY id`,
		`SELECT id, salary FROM jobs WHERE salary BETWEEN %d AND 110000 ORDER BY id`,
		`SELECT id FROM jobs WHERE city IN ('%s', 'Austin') ORDER BY id`,
		`EXPLAIN SELECT id FROM jobs WHERE city = '%s'`,
		`EXPLAIN SELECT id FROM jobs WHERE salary >= %d`,
		`SELECT city, COUNT(*) AS n FROM jobs WHERE salary > %d GROUP BY city HAVING COUNT(*) > 1 ORDER BY city`,
		`SELECT j.title, c.name FROM jobs j JOIN companies c ON j.company_id = c.id WHERE c.size = '%s' ORDER BY j.title, c.name`,
		`SELECT id FROM jobs WHERE title = '%s'`,
		`SELECT DISTINCT title FROM jobs WHERE salary > %d ORDER BY title LIMIT 3`,
	}
	strArgs := []string{"Oakland", "Seattle", "Austin", "San Jose", "mid", "large", "it's odd", ""}
	intArgs := []int{90000, 95000, 100000, 105000, 111000}

	run := func(sql string) {
		t.Helper()
		got, gotErr := shaped.Query(sql)
		want, wantErr := exact.Query(sql)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: shaped err = %v, exact err = %v", sql, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s: shaped err %q, exact err %q", sql, gotErr, wantErr)
			}
			return
		}
		if !reflect.DeepEqual(got.Columns, want.Columns) || len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s:\nshaped: %v %v\nexact:  %v %v", sql, got.Columns, got.Rows, want.Columns, want.Rows)
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
	for _, tpl := range templates {
		if strings.Contains(tpl, "%s") {
			for _, a := range strArgs {
				run(fmt.Sprintf(tpl, strings.ReplaceAll(a, "'", "''")))
			}
		} else {
			for _, a := range intArgs {
				run(fmt.Sprintf(tpl, a))
			}
		}
	}
	// Literal variants really did share: far fewer misses than statements.
	stats := shaped.CacheStats()
	if stats.ShapeHits == 0 || stats.Misses > uint64(len(templates)) {
		t.Errorf("shape sharing ineffective: %+v over %d templates", stats, len(templates))
	}

	// DML variants: mutate both databases through their own paths, then the
	// full table states must agree.
	dml := []string{
		`UPDATE jobs SET salary = 123456 WHERE city = 'Oakland' AND salary < 100000`,
		`UPDATE jobs SET salary = 140000 WHERE city = 'Seattle' AND salary < 95000`,
		`UPDATE jobs SET title = 'promoted ''again''' WHERE id = 7`,
		`DELETE FROM jobs WHERE id IN (1, 3, 5)`,
		`DELETE FROM jobs WHERE id IN (2, 4, 6)`,
		`INSERT INTO jobs VALUES (900, 'shaped', 'Reno', 1, 90001, TRUE)`,
		`INSERT INTO jobs VALUES (901, 'exact', 'Reno', 2, 90002, FALSE)`,
	}
	for _, sql := range dml {
		na, errA := shaped.Exec(sql)
		nb, errB := exact.Exec(sql)
		if (errA == nil) != (errB == nil) || na != nb {
			t.Fatalf("%s: shaped (%d, %v) vs exact (%d, %v)", sql, na, errA, nb, errB)
		}
		run(`SELECT * FROM jobs ORDER BY id`)
	}
}
