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
			`DELETE FROM jobs WHERE salary >= 1 AND salary <= 2`,
			`DELETE FROM jobs WHERE salary >= 90000 AND salary <= 110000`,
		},
		{
			`SELECT city, COUNT(*) FROM jobs WHERE salary > 2 GROUP BY city`,
			`SELECT city, COUNT(*) FROM jobs WHERE salary > 99 GROUP BY city`,
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

const selIDs = `SELECT id FROM jobs WHERE`

// bigIn is `<head> id IN (...)` over n number literals: literal i is 100+i (an
// id no fixture row has), except literal at, which is v. at = -1 swaps none.
func bigIn(head string, n, at, v int) string {
	var sb strings.Builder
	sb.WriteString(head)
	sb.WriteString(` id IN (`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(`, `)
		}
		if i == at {
			fmt.Fprint(&sb, v)
		} else {
			fmt.Fprint(&sb, 100+i)
		}
	}
	sb.WriteString(`)`)
	return sb.String()
}

// Bail cases: texts the fingerprint pass refuses have no shape; they are DDL
// or text Parse refuses too, and run uncached.
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
	for _, sql := range bail {
		if fingerprintStmt(&fp, sql) {
			t.Errorf("fingerprint accepted %q", sql)
		}
		if st, err := Parse(sql); err == nil && stmtTable(st) != "" {
			t.Errorf("fingerprint refused %q, which parses to a cacheable %T", sql, st)
		}
	}
	// A giant IN list is a shape like any other: the first maxAutoParams
	// literals are slots, the rest stay inline in the key.
	key, lits := fpOf(t, bigIn(selIDs, 80, -1, 0))
	if len(lits) != maxAutoParams || lits[2].I != 102 || lits[maxAutoParams-1].I != 100+maxAutoParams-1 {
		t.Errorf("80-literal list extracted %d literals (%v), want the first %d", len(lits), lits, maxAutoParams)
	}
	if k, lits := fpOf(t, bigIn(selIDs, 80, 2, 5)); k != key || lits[2].I != 5 {
		t.Errorf("lists differing in an extracted literal: keys differ or literal 3 = %v", lits[2])
	}
	if k, _ := fpOf(t, bigIn(selIDs, 80, 69, 5)); k == key {
		t.Errorf("lists differing in an inline literal (the 70th) share a key")
	}
	if k, _ := fpOf(t, strings.Replace(bigIn(selIDs, 80, -1, 0), `179`, `'179'`, 1)); k == key {
		t.Errorf("an inline string and the number it spells share a key")
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
			return fmt.Sprintf(`SELECT id, city FROM jobs WHERE salary >= %d AND salary <= %d AND city != 'nowhere' LIMIT 10`, 90000+i, 99000+i)
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
	if n := uint64(len(templates)); stats.Misses != n || stats.ShapeHits != n*(variants-1) {
		t.Errorf("%d variants of %d templates: %+v, want %d misses, the rest shape hits", variants, n, stats, n)
	}
	// The shared UPDATE plan bound each variant's own literals.
	res, err := db.Query(`SELECT id FROM jobs WHERE salary < 60000 ORDER BY id`)
	if err != nil || len(res.Rows) != variants {
		t.Fatalf("%d rows carry an UPDATE variant's salary (err %v), want %d", len(res.Rows), err, variants)
	}

	// Oversized literal lists are shapes too: the first maxAutoParams
	// literals bind per execution, the rest are part of the shape. Each text
	// returns what the reference returns for it — the one row its swapped-in
	// literal names.
	same := func(sql string, wantID int64, params ...any) error {
		t.Helper()
		got, gotErr := db.Query(sql, params...)
		want, wantErr := refRun(db, sql, params...)
		sameOutcome(t, sql, got, gotErr, want, wantErr)
		if gotErr == nil && (len(got.Rows) != 1 || got.Rows[0][0].I != wantID) {
			t.Fatalf("%s: rows %v, want id %d", sql, got.Rows, wantID)
		}
		return gotErr
	}
	db.ResetCacheStats()
	same(bigIn(selIDs, 80, 2, 5), 5)
	same(bigIn(selIDs, 80, 2, 7), 7)
	stats = db.CacheStats()
	if stats.Misses != 1 || stats.ShapeHits != 1 || stats.Compiles != 1 {
		t.Errorf("80-literal lists differing in the 3rd literal: %+v, want 1 miss, 1 shape hit, 1 compile", stats)
	}
	size := stats.Size
	same(bigIn(selIDs, 80, 69, 9), 9)
	same(bigIn(selIDs, 80, 69, 11), 11)
	stats = db.CacheStats()
	if stats.Misses != 3 || stats.ShapeHits != 1 || stats.Size != size+2 {
		t.Errorf("80-literal lists differing in the 70th literal: %+v, want an entry each (size %d)", stats, size+2)
	}
	// Explicit '?' among 80 literals: each binds to its own ordinal, and a
	// missing one is reported by the number the user sees, though the second
	// '?' is unified slot 66.
	mixed := strings.Replace(bigIn(selIDs, 80, -1, 0), `(100, `, `(?, 100, `, 1) + ` AND salary > ?`
	same(mixed, 4, 4, 0)
	same(mixed, 4, 4, 50003) // the UPDATE variants above left row 4 at 50004
	for n, want := range []string{"relational: missing parameter 1", "relational: missing parameter 2"} {
		if err := same(mixed, 0, []any{4, 0}[:n]...); err == nil || err.Error() != want {
			t.Errorf("%d of 2 parameters: err %v, want %q", n, err, want)
		}
	}
}

// Counter taxonomy: DDL is uncacheable (not a miss), an oversized literal
// list is a miss and then hits, parse errors count nothing.
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

	// A >maxAutoParams IN list is cached under a shape key like any other.
	big := bigIn(selIDs, maxAutoParams+1, -1, 0)
	db.ResetCacheStats()
	for i := 0; i < 3; i++ {
		if _, err := db.Query(big); err != nil {
			t.Fatal(err)
		}
	}
	stats = db.CacheStats()
	if stats.Misses != 1 || stats.Hits != 2 || stats.ShapeHits != 2 || stats.Uncacheable != 0 {
		t.Errorf("oversized IN list: %+v, want 1 miss + 2 shape hits", stats)
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

// Missing explicit parameters must report the same user-visible ordinal
// through the shape-keyed path as the reference gives the plainly parsed text
// — auto literal slots must not renumber the error.
func TestShapeKeyedMissingParamErrorParity(t *testing.T) {
	cases := []struct {
		sql    string
		params []any
		want   string
	}{
		// Auto literal before the unsupplied '?': the error must still carry
		// the explicit ordinal 1, not the unified slot number.
		{`SELECT id FROM jobs WHERE city = 'Oakland' AND id < ?`, nil, "relational: missing parameter 1"},
		// First '?' supplied, second missing: ordinal 2.
		{`SELECT id FROM jobs WHERE salary > ? AND id < ?`, []any{0}, "relational: missing parameter 2"},
	}
	for _, c := range cases {
		db := stmtTestDB(t)
		runBoth(t, db, c.sql, c.params...)
		if _, err := db.Query(c.sql, c.params...); err == nil || err.Error() != c.want {
			t.Fatalf("%s: err %v, want %q", c.sql, err, c.want)
		}
	}
}

// The decisive law: shape-keyed execution is byte-identical — columns, rows,
// plans and errors — to the reference interpreter running the plainly parsed
// text (refRun: no fingerprint, no extraction, no cache), over a corpus of
// literal variants.
func TestDifferentialShapeVsExact(t *testing.T) {
	shaped := diffDB(t, 19)
	reference := diffDB(t, 19)
	shaped.ResetCacheStats() // fixture population traffic is not under test

	templates := []string{
		`SELECT id, title FROM jobs WHERE city = '%s' ORDER BY id`,
		`SELECT id FROM jobs WHERE salary > %d AND remote = TRUE ORDER BY id`,
		`SELECT id, salary FROM jobs WHERE salary >= %d AND salary <= 110000 ORDER BY id`,
		`SELECT id FROM jobs WHERE city IN ('%s', 'Austin') ORDER BY id`,
		`EXPLAIN SELECT id FROM jobs WHERE city = '%s'`,
		`EXPLAIN SELECT id FROM jobs WHERE salary >= %d`,
		`SELECT city, COUNT(*) AS n FROM jobs WHERE salary > %d GROUP BY city ORDER BY city`,
		`SELECT name FROM companies WHERE size = '%s' ORDER BY name`,
		`SELECT id FROM jobs WHERE title = '%s'`,
		`SELECT DISTINCT title FROM jobs WHERE salary > %d ORDER BY title LIMIT 3`,
	}
	strArgs := []string{"Oakland", "Seattle", "Austin", "San Jose", "mid", "large", "it's odd", ""}
	intArgs := []int{90000, 95000, 100000, 105000, 111000}

	run := func(sql string) {
		t.Helper()
		got, gotErr := shaped.Query(sql)
		want, wantErr := refRun(shaped, sql)
		sameOutcome(t, sql, got, gotErr, want, wantErr)
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

	// DML variants: the shape cache mutates one database, the reference its
	// twin; the full table states must agree.
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
		got, gotErr := shaped.Query(sql)
		want, wantErr := refRun(reference, sql)
		sameOutcome(t, sql, got, gotErr, want, wantErr)
		sameTables(t, sql, shaped, reference)
		run(`SELECT * FROM jobs ORDER BY id`)
	}
}
