package relational

import (
	"strings"
	"testing"
)

// rejectedConstructs: statements in the constructs the dialect gave up
// because nothing in the program emits them (ARCHITECTURE.md, "Dialect"),
// each with the name its parse error carries. The first of every construct is
// a minimal statement; the rest are the texts the differential corpora held
// while the constructs existed, kept as seeds of FuzzSQLDifferential.
var rejectedConstructs = []struct {
	sql       string
	construct string
}{
	{`SELECT title FROM jobs JOIN companies ON company_id = size`, "JOIN"},
	{`SELECT title FROM jobs INNER JOIN companies ON company_id = size`, "JOIN"},
	{`SELECT title FROM jobs LEFT JOIN companies ON company_id = size`, "LEFT JOIN"},
	{`SELECT id FROM jobs j`, "table alias"},
	{`SELECT id FROM jobs AS j WHERE id = 1`, "table alias"},
	{`SELECT jobs.title FROM jobs`, "qualified column reference"},
	{`SELECT id FROM jobs WHERE jobs.salary > 1 ORDER BY id`, "qualified column reference"},
	{`SELECT city, COUNT(*) FROM jobs GROUP BY city HAVING COUNT(*) > 2`, "HAVING"},
	{`SELECT id FROM jobs WHERE salary BETWEEN 95000 AND 105000`, "BETWEEN"},
	{`SELECT id FROM jobs WHERE salary NOT BETWEEN 95000 AND 105000`, "NOT BETWEEN"},
	{`SELECT COUNT(DISTINCT city) FROM jobs`, "COUNT(DISTINCT)"},
	{`SELECT city, AVG(DISTINCT salary) FROM jobs GROUP BY city`, "AVG(DISTINCT)"},
	// Mutations: what a write-ahead log of an older build could hold.
	{`UPDATE jobs SET salary = NULL WHERE id BETWEEN 10 AND 20`, "BETWEEN"},
	{`DELETE FROM jobs WHERE salary NOT BETWEEN 1 AND 2`, "NOT BETWEEN"},

	{`SELECT id FROM jobs WHERE salary BETWEEN ? AND ?`, "BETWEEN"},
	{`EXPLAIN SELECT id FROM jobs WHERE salary BETWEEN 100000 AND 104000`, "BETWEEN"},
	{`SELECT j.title, c.name FROM jobs j JOIN companies c ON j.company_id = c.id`, "qualified column reference"},
	{`SELECT j.title, c.name FROM jobs j JOIN companies c ON c.id = j.company_id WHERE c.size = 'mid'`, "qualified column reference"},
	{`SELECT j.id, c.name FROM jobs j LEFT JOIN companies c ON j.company_id = c.id ORDER BY j.id`, "qualified column reference"},
	{`SELECT a.id, j.title, c.name FROM apps a JOIN jobs j ON a.job_id = j.id JOIN companies c ON j.company_id = c.id WHERE a.score > ?`, "qualified column reference"},
	{`SELECT id FROM jobs j JOIN companies c ON j.company_id = c.id`, "table alias"},
	{`SELECT j.title FROM jobs j JOIN companies c ON j.nope = c.id`, "qualified column reference"},
	{`SELECT c.size, COUNT(*) AS n FROM jobs j JOIN companies c ON j.company_id = c.id GROUP BY c.size ORDER BY n DESC, size`, "qualified column reference"},
	{`SELECT c.size, MAX(j.salary) >= AVG(j.salary), COUNT(DISTINCT j.city) FROM jobs j LEFT JOIN companies c ON j.company_id = c.id GROUP BY c.size ORDER BY size`, "qualified column reference"},
	{`SELECT city, AVG(salary) AS a FROM jobs GROUP BY city HAVING COUNT(*) >= 5 ORDER BY city`, "HAVING"},
	{`SELECT city, COUNT(*) AS n FROM jobs GROUP BY city HAVING AVG(salary) > ? ORDER BY n DESC, city`, "HAVING"},
	{`SELECT city, SUM(title) FROM jobs GROUP BY city HAVING COUNT((id < 0 OR id = ?)) > 0`, "HAVING"},
	{`SELECT city, COUNT((city = 'Oakland' OR id = ?)) FROM jobs GROUP BY city HAVING city = 'Oakland'`, "HAVING"},
	{`SELECT city, SUM(title) FROM jobs GROUP BY city HAVING COUNT(*) > 1000`, "HAVING"},
	{`SELECT city FROM jobs GROUP BY city HAVING MAX(salary) > 110000 ORDER BY city`, "HAVING"},
	{`SELECT city, COUNT(*) AS n FROM jobs GROUP BY city HAVING SUM(DISTINCT salary) > ? AND MIN(title) < 'M' ORDER BY city`, "HAVING"},
	{`SELECT title FROM jobs GROUP BY title HAVING NOT COUNT(salary) = COUNT(*)`, "HAVING"},
	{`SELECT COUNT(*) FROM jobs WHERE id > 1000 HAVING SUM(?) > 5`, "HAVING"},
	{`SELECT COUNT(*) FROM jobs HAVING COUNT(*) > 1000`, "HAVING"},
	{`SELECT city, COUNT(*) FROM jobs WHERE id > 1000 GROUP BY city HAVING COUNT(*) > 5`, "HAVING"},
	{`SELECT COUNT(DISTINCT salary), SUM(DISTINCT salary) FROM jobs`, "COUNT(DISTINCT)"},
	{`SELECT COUNT(salary), AVG(DISTINCT salary), COUNT(DISTINCT salary) FROM jobs`, "AVG(DISTINCT)"},
	{`SELECT city, COUNT(DISTINCT title), AVG(DISTINCT salary), SUM(DISTINCT company_id) FROM jobs GROUP BY city ORDER BY city`, "COUNT(DISTINCT)"},
	{`SELECT status, MIN(DISTINCT score), MAX(DISTINCT score) FROM apps GROUP BY status ORDER BY status`, "MIN(DISTINCT)"},
	{`SELECT COUNT(DISTINCT city), COUNT(DISTINCT remote) FROM jobs WHERE city IS NULL`, "COUNT(DISTINCT)"},
}

// TestRejectedConstructs: a statement in a construct the dialect does not
// have is refused at every door — Query, Exec, Prepare and WAL Apply — with
// the parser's error naming the construct, and leaves nothing behind in the
// statement cache. The compiled engine and the reference cannot disagree
// here: both reach the text through the same Parse.
func TestRejectedConstructs(t *testing.T) {
	db := diffDB(t, 7)
	size := db.CacheStats().Size
	for _, c := range rejectedConstructs {
		want := "relational: " + c.construct + " is not supported"
		_, parseErr := Parse(c.sql)
		if parseErr == nil || !strings.HasPrefix(parseErr.Error(), want+" (at ") {
			t.Fatalf("%s: Parse err = %v, want %q", c.sql, parseErr, want)
		}
		_, qErr := db.Query(c.sql, 1, 2)
		_, eErr := db.Exec(c.sql, 1, 2)
		_, pErr := db.Prepare(c.sql)
		_, rErr := refRun(db, c.sql, 1, 2)
		for door, err := range map[string]error{"Query": qErr, "Exec": eErr, "Prepare": pErr, "reference": rErr} {
			if err == nil || err.Error() != parseErr.Error() {
				t.Errorf("%s: %s err = %v, want %v", c.sql, door, err, parseErr)
			}
		}
		// A log record holding the text stops recovery instead of being skipped.
		err := db.Apply(appendWALRecord(nil, c.sql, []Value{NewInt(1), NewInt(2)}))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Apply err = %v, want one naming %q", c.sql, err, c.construct)
		}
	}
	if got := db.CacheStats().Size; got != size {
		t.Errorf("statement cache holds %d entries after the refused texts, had %d", got, size)
	}
	// The keywords stay reserved: none of them reads as an identifier.
	for _, kw := range []string{"JOIN", "INNER", "LEFT", "HAVING", "BETWEEN"} {
		if _, err := Parse(`SELECT ` + kw + ` FROM jobs`); err == nil {
			t.Errorf("%s parsed as a column name", kw)
		}
		tz := newTokenizer(kw)
		if tok, err := tz.next(); err != nil || tok.kind != tokKeyword {
			t.Errorf("%s tokenizes as %v (%v), want a keyword", kw, tok.kind, err)
		}
	}
}
