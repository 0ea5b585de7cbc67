package relational

import (
	"fmt"
	"testing"
)

func benchDB(b *testing.B, rows int, withIndex bool) *DB {
	b.Helper()
	db := NewDB()
	if _, err := db.Exec(`CREATE TABLE jobs (id INT, title TEXT, city TEXT, salary INT)`); err != nil {
		b.Fatal(err)
	}
	if withIndex {
		if _, err := db.Exec(`CREATE INDEX ic ON jobs (city)`); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Exec(`CREATE ORDERED INDEX isal ON jobs (salary)`); err != nil {
			b.Fatal(err)
		}
	}
	cities := []string{"San Francisco", "Oakland", "Seattle", "New York", "Austin"}
	titles := []string{"Data Scientist", "ML Engineer", "Analyst"}
	for i := 0; i < rows; i++ {
		if _, err := db.Exec(`INSERT INTO jobs VALUES (?, ?, ?, ?)`,
			i, titles[i%len(titles)], cities[i%len(cities)], 90000+(i%160)*1000); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

func BenchmarkInsert(b *testing.B) {
	db := NewDB()
	if _, err := db.Exec(`CREATE TABLE t (a INT, s TEXT)`); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(`INSERT INTO t VALUES (?, ?)`, i, "payload"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPointQuerySeqScan(b *testing.B) {
	db := benchDB(b, 5000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(`SELECT id FROM jobs WHERE city = 'Oakland' LIMIT 5`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPointQueryHashIndex(b *testing.B) {
	db := benchDB(b, 5000, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(`SELECT id FROM jobs WHERE city = 'Oakland' LIMIT 5`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRangeQueryOrderedIndex(b *testing.B) {
	db := benchDB(b, 5000, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(`SELECT id FROM jobs WHERE salary >= 200000 AND salary <= 210000`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroupByAggregate(b *testing.B) {
	db := benchDB(b, 5000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(`SELECT city, AVG(salary) FROM jobs GROUP BY city`); err != nil {
			b.Fatal(err)
		}
	}
}

// benchIDIndexedDB builds a jobs table with a hash index on id so point
// queries isolate the parse-versus-execute split the statement cache
// amortizes.
func benchIDIndexedDB(b *testing.B, rows int) *DB {
	b.Helper()
	db := benchDB(b, rows, false)
	if _, err := db.Exec(`CREATE INDEX iid ON jobs (id)`); err != nil {
		b.Fatal(err)
	}
	return db
}

const pointQuery = `SELECT title FROM jobs WHERE id = ? LIMIT 1`

// BenchmarkPointQueryUncached is the re-parse baseline: every call lexes and
// parses the SQL text again (statement cache disabled).
func BenchmarkPointQueryUncached(b *testing.B) {
	db := benchIDIndexedDB(b, 5000)
	db.SetStmtCacheCapacity(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(pointQuery, i%5000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPointQueryCached exercises the transparent statement cache that
// Query consults by default.
func BenchmarkPointQueryCached(b *testing.B) {
	db := benchIDIndexedDB(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(pointQuery, i%5000); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	stats := db.CacheStats()
	b.ReportMetric(stats.HitRate()*100, "hit%")
}

// BenchmarkPointQueryPrepared uses the explicit prepared-statement handle:
// parse once, execute b.N times.
func BenchmarkPointQueryPrepared(b *testing.B) {
	db := benchIDIndexedDB(b, 5000)
	st, err := db.Prepare(pointQuery)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Query(i % 5000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertUncached is the re-parse baseline for BenchmarkInsert
// (which runs with the default statement cache): together they measure the
// DML write path with and without parse amortization.
func BenchmarkInsertUncached(b *testing.B) {
	db := NewDB()
	if _, err := db.Exec(`CREATE TABLE t (a INT, s TEXT)`); err != nil {
		b.Fatal(err)
	}
	db.SetStmtCacheCapacity(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(`INSERT INTO t VALUES (?, ?)`, i, "payload"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseSelect(b *testing.B) {
	const q = `SELECT city, COUNT(*) AS n, AVG(salary) FROM jobs WHERE salary > 100000 AND title LIKE '%data%' GROUP BY city ORDER BY n DESC LIMIT 10`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- compiled vs interpreted executor benchmarks ----
//
// The same statements on the same data: the *Compiled variants go through
// DB.Query (statement cache, compiled program), the *Interpreted ones hand the
// parsed statement to the test-only reference interpreter (interp_test.go), so
// the delta is the cost of per-row column resolution, AST dispatch and
// stringly hash keys that prepare-time compilation removes. Run with
// -benchmem: the compiled variants should show both lower ns/op and lower
// allocs/op.

const benchFilteredScan = `SELECT id, title, salary FROM jobs WHERE id >= ? AND title LIKE '%engineer%'`
const benchGroupBy = `SELECT city, COUNT(*) AS n, AVG(salary) AS avg_sal FROM jobs GROUP BY city`

func benchSelect(b *testing.B, sql string, compiled bool, args ...any) {
	b.Helper()
	benchSelectOn(b, benchDB(b, 5000, false), sql, compiled, args...)
}

func benchSelectOn(b *testing.B, db *DB, sql string, compiled bool, args ...any) {
	b.Helper()
	run := func() (*Result, error) { return db.Query(sql, args...) }
	if !compiled {
		ref, err := refStmt(db, sql)
		if err != nil {
			b.Fatal(err)
		}
		run = func() (*Result, error) { return ref(args...) }
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilteredScanInterpreted(b *testing.B) {
	benchSelect(b, benchFilteredScan, false, 2500)
}

func BenchmarkFilteredScanCompiled(b *testing.B) {
	benchSelect(b, benchFilteredScan, true, 2500)
}

func BenchmarkGroupByInterpreted(b *testing.B) {
	benchSelect(b, benchGroupBy, false)
}

func BenchmarkGroupByCompiled(b *testing.B) {
	benchSelect(b, benchGroupBy, true)
}

// BenchmarkTopKOrderByLimit isolates the bounded-heap ORDER BY + LIMIT
// against the interpreted full sort.
func BenchmarkTopKOrderByLimitInterpreted(b *testing.B) {
	benchSelect(b, `SELECT id, title FROM jobs ORDER BY salary DESC LIMIT 10`, false)
}

func BenchmarkTopKOrderByLimitCompiled(b *testing.B) {
	benchSelect(b, `SELECT id, title FROM jobs ORDER BY salary DESC LIMIT 10`, true)
}

// ---- tokenizer / fingerprint / shape-cache benchmarks ----

const benchTokenizeStmt = `SELECT id, title, salary FROM jobs WHERE city = 'Oakland' AND salary >= 95000 OR id IN (1, 2, 3) ORDER BY salary DESC LIMIT 10`

// BenchmarkTokenize sweeps one statement through the streaming tokenizer.
// The acceptance bar is 0 allocs/op: token texts are substrings of the
// source or interned keyword spellings.
func BenchmarkTokenize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tz := newTokenizer(benchTokenizeStmt)
		for {
			tok, err := tz.next()
			if err != nil {
				b.Fatal(err)
			}
			if tok.kind == tokEOF {
				break
			}
		}
	}
}

// BenchmarkFingerprint produces the shape key plus extracted literals for one
// statement. With pooled scratch the steady state is 0 allocs/op (amortized
// O(1) per statement).
func BenchmarkFingerprint(b *testing.B) {
	fp := fpScratch.Get().(*fingerprint)
	defer fpScratch.Put(fp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !fingerprintStmt(fp, benchTokenizeStmt) {
			b.Fatal("fingerprint bailed")
		}
	}
}

// BenchmarkPointQueryShapeKeyed sends literal-inlined texts (a different
// literal every call, as NLQ-generated SQL does) through the shape-keyed
// cache: one parse serves every variant.
func BenchmarkPointQueryShapeKeyed(b *testing.B) {
	db := benchIDIndexedDB(b, 5000)
	queries := make([]string, 512)
	for i := range queries {
		queries[i] = fmt.Sprintf(`SELECT title FROM jobs WHERE id = %d LIMIT 1`, i%5000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(db.CacheStats().HitRate()*100, "hit%")
}
