package relational

import (
	"errors"
	"strings"
	"testing"
)

// newJobsDB builds the canonical JOBS/COMPANIES fixture used across tests,
// mirroring the paper's HR scenario.
func newJobsDB(t testing.TB) *DB {
	t.Helper()
	db := NewDB()
	mustExec(t, db, `CREATE TABLE jobs (id INT, title TEXT, city TEXT, company_id INT, salary INT, remote BOOL)`)
	mustExec(t, db, `CREATE TABLE companies (id INT, name TEXT, size TEXT)`)
	rows := []string{
		`(1, 'Data Scientist', 'San Francisco', 1, 180000, FALSE)`,
		`(2, 'Senior Data Scientist', 'Oakland', 1, 210000, TRUE)`,
		`(3, 'ML Engineer', 'San Jose', 2, 190000, FALSE)`,
		`(4, 'Data Analyst', 'New York', 3, 120000, FALSE)`,
		`(5, 'Data Scientist', 'Palo Alto', 2, 185000, TRUE)`,
		`(6, 'Software Engineer', 'San Francisco', 3, 175000, FALSE)`,
		`(7, 'Research Scientist', 'Berkeley', 2, 200000, FALSE)`,
		`(8, 'Data Scientist', 'Seattle', 3, 170000, TRUE)`,
	}
	mustExec(t, db, `INSERT INTO jobs VALUES `+strings.Join(rows, ", "))
	mustExec(t, db, `INSERT INTO companies VALUES (1, 'Acme AI', 'large'), (2, 'DataWorks', 'mid'), (3, 'BigCorp', 'large')`)
	return db
}

func mustExec(t testing.TB, db *DB, sql string, params ...any) int {
	t.Helper()
	n, err := db.Exec(sql, params...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return n
}

func mustQuery(t testing.TB, db *DB, sql string, params ...any) *Result {
	t.Helper()
	res, err := db.Query(sql, params...)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return res
}

func TestCreateInsertSelect(t *testing.T) {
	db := newJobsDB(t)
	res := mustQuery(t, db, `SELECT title, city FROM jobs WHERE id = 1`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].S != "Data Scientist" || res.Rows[0][1].S != "San Francisco" {
		t.Fatalf("row = %v", res.Rows[0])
	}
	if res.Columns[0] != "title" || res.Columns[1] != "city" {
		t.Fatalf("cols = %v", res.Columns)
	}
}

func TestSelectStar(t *testing.T) {
	db := newJobsDB(t)
	res := mustQuery(t, db, `SELECT * FROM companies`)
	if len(res.Columns) != 3 || len(res.Rows) != 3 {
		t.Fatalf("star = %v rows=%d", res.Columns, len(res.Rows))
	}
}

func TestWhereOperators(t *testing.T) {
	db := newJobsDB(t)
	cases := []struct {
		sql  string
		want int
	}{
		{`SELECT id FROM jobs WHERE salary > 180000`, 4},
		{`SELECT id FROM jobs WHERE salary >= 180000`, 5},
		{`SELECT id FROM jobs WHERE salary < 150000`, 1},
		{`SELECT id FROM jobs WHERE salary != 120000`, 7},
		{`SELECT id FROM jobs WHERE remote = TRUE`, 3},
		{`SELECT id FROM jobs WHERE title = 'Data Scientist' AND city = 'Seattle'`, 1},
		{`SELECT id FROM jobs WHERE city = 'Oakland' OR city = 'Berkeley'`, 2},
		{`SELECT id FROM jobs WHERE NOT remote = TRUE`, 5},
		{`SELECT id FROM jobs WHERE salary >= 170000 AND salary <= 190000`, 5},
		{`SELECT id FROM jobs WHERE NOT (salary >= 170000 AND salary <= 190000)`, 3},
		{`SELECT id FROM jobs WHERE city IN ('San Francisco', 'Oakland', 'Palo Alto')`, 4},
		{`SELECT id FROM jobs WHERE city NOT IN ('San Francisco', 'Oakland', 'Palo Alto')`, 4},
		{`SELECT id FROM jobs WHERE title LIKE '%data%'`, 5},
		{`SELECT id FROM jobs WHERE title LIKE 'data sc%'`, 3},
		{`SELECT id FROM jobs WHERE title NOT LIKE '%data%'`, 3},
		{`SELECT id FROM jobs WHERE title LIKE '_L Engineer'`, 1},
	}
	for _, c := range cases {
		res := mustQuery(t, db, c.sql)
		if len(res.Rows) != c.want {
			t.Errorf("%s: rows = %d, want %d", c.sql, len(res.Rows), c.want)
		}
	}
}

func TestIsNull(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE t (a INT, b TEXT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'x'), (2, NULL)`)
	res := mustQuery(t, db, `SELECT a FROM t WHERE b IS NULL`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Fatalf("IS NULL = %v", res.Rows)
	}
	res = mustQuery(t, db, `SELECT a FROM t WHERE b IS NOT NULL`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("IS NOT NULL = %v", res.Rows)
	}
	// Comparisons with NULL are never true.
	res = mustQuery(t, db, `SELECT a FROM t WHERE b = NULL`)
	if len(res.Rows) != 0 {
		t.Fatalf("= NULL matched %v", res.Rows)
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	db := newJobsDB(t)
	res := mustQuery(t, db, `SELECT id, salary FROM jobs ORDER BY salary DESC LIMIT 3`)
	if len(res.Rows) != 3 {
		t.Fatalf("limit rows = %d", len(res.Rows))
	}
	if res.Rows[0][1].I != 210000 || res.Rows[2][1].I != 190000 {
		t.Fatalf("order = %v", res.Rows)
	}
	res = mustQuery(t, db, `SELECT id FROM jobs ORDER BY id ASC LIMIT 2 OFFSET 3`)
	if len(res.Rows) != 2 || res.Rows[0][0].I != 4 || res.Rows[1][0].I != 5 {
		t.Fatalf("offset = %v", res.Rows)
	}
	// Multi-key ordering with ties.
	res = mustQuery(t, db, `SELECT title, id FROM jobs ORDER BY title ASC, id DESC`)
	for i := 1; i < len(res.Rows); i++ {
		a, b := res.Rows[i-1], res.Rows[i]
		if a[0].S == b[0].S && a[1].I < b[1].I {
			t.Fatalf("tie-break wrong at %d: %v", i, res.Rows)
		}
	}
	// OFFSET beyond result set.
	res = mustQuery(t, db, `SELECT id FROM jobs OFFSET 100`)
	if len(res.Rows) != 0 {
		t.Fatalf("offset beyond end = %v", res.Rows)
	}
}

func TestDistinct(t *testing.T) {
	db := newJobsDB(t)
	res := mustQuery(t, db, `SELECT DISTINCT title FROM jobs WHERE title LIKE '%data scientist%'`)
	if len(res.Rows) != 2 {
		t.Fatalf("distinct = %v", res.Rows)
	}
}

func TestAggregates(t *testing.T) {
	db := newJobsDB(t)
	res := mustQuery(t, db, `SELECT COUNT(*) AS n, MIN(salary), MAX(salary), AVG(salary) FROM jobs`)
	if res.Rows[0][0].I != 8 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	if res.Rows[0][1].I != 120000 || res.Rows[0][2].I != 210000 {
		t.Fatalf("min/max = %v", res.Rows[0])
	}
	if res.Columns[0] != "n" {
		t.Fatalf("alias = %v", res.Columns)
	}
	res = mustQuery(t, db, `SELECT SUM(salary) FROM jobs WHERE city = 'San Francisco'`)
	if res.Rows[0][0].I != 355000 {
		t.Fatalf("sum = %v", res.Rows[0][0])
	}
	// Aggregate over empty input yields one row with NULL/0.
	res = mustQuery(t, db, `SELECT COUNT(*), SUM(salary) FROM jobs WHERE id = 999`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 0 || !res.Rows[0][1].IsNull() {
		t.Fatalf("empty agg = %v", res.Rows)
	}
}

func TestGroupBy(t *testing.T) {
	db := newJobsDB(t)
	res := mustQuery(t, db, `SELECT company_id, COUNT(*) AS n, AVG(salary) AS avg_sal FROM jobs GROUP BY company_id ORDER BY company_id`)
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %v", res.Rows)
	}
	if res.Rows[0][0].I != 1 || res.Rows[0][1].I != 2 {
		t.Fatalf("group 1 = %v", res.Rows[0])
	}
}

func TestParams(t *testing.T) {
	db := newJobsDB(t)
	res := mustQuery(t, db, `SELECT id FROM jobs WHERE title = ? AND salary > ?`, "Data Scientist", 175000)
	if len(res.Rows) != 2 {
		t.Fatalf("param rows = %v", res.Rows)
	}
	if _, err := db.Query(`SELECT id FROM jobs WHERE title = ?`); err == nil {
		t.Fatal("expected missing-parameter error")
	}
}

func TestIndexUseEquality(t *testing.T) {
	db := newJobsDB(t)
	mustExec(t, db, `CREATE INDEX idx_city ON jobs (city)`)
	res := mustQuery(t, db, `EXPLAIN SELECT id FROM jobs WHERE city = 'San Francisco'`)
	plan := res.Rows[0][0].S
	if !strings.Contains(plan, "IndexScan(jobs.city") {
		t.Fatalf("plan = %q, want IndexScan", plan)
	}
	// Same rows with and without the index.
	r1 := mustQuery(t, db, `SELECT id FROM jobs WHERE city = 'San Francisco' ORDER BY id`)
	if len(r1.Rows) != 2 || r1.Rows[0][0].I != 1 || r1.Rows[1][0].I != 6 {
		t.Fatalf("indexed result = %v", r1.Rows)
	}
}

func TestIndexUseIn(t *testing.T) {
	db := newJobsDB(t)
	mustExec(t, db, `CREATE INDEX idx_city ON jobs (city)`)
	res := mustQuery(t, db, `EXPLAIN SELECT id FROM jobs WHERE city IN ('Oakland', 'Berkeley')`)
	if !strings.Contains(res.Rows[0][0].S, "IN [2 values]") {
		t.Fatalf("plan = %q", res.Rows[0][0].S)
	}
	r := mustQuery(t, db, `SELECT id FROM jobs WHERE city IN ('Oakland', 'Berkeley') ORDER BY id`)
	if len(r.Rows) != 2 || r.Rows[0][0].I != 2 || r.Rows[1][0].I != 7 {
		t.Fatalf("IN via index = %v", r.Rows)
	}
}

func TestOrderedIndexRange(t *testing.T) {
	db := newJobsDB(t)
	mustExec(t, db, `CREATE ORDERED INDEX idx_salary ON jobs (salary)`)
	res := mustQuery(t, db, `EXPLAIN SELECT id FROM jobs WHERE salary >= 190000`)
	if !strings.Contains(res.Rows[0][0].S, "IndexRange(jobs.salary >=") {
		t.Fatalf("plan = %q", res.Rows[0][0].S)
	}
	r := mustQuery(t, db, `SELECT id FROM jobs WHERE salary >= 190000 ORDER BY id`)
	if len(r.Rows) != 3 {
		t.Fatalf("range = %v", r.Rows)
	}
	res = mustQuery(t, db, `EXPLAIN SELECT id FROM jobs WHERE salary >= 170000 AND salary <= 190000`)
	if !strings.Contains(res.Rows[0][0].S, "IndexRange(jobs.salary") {
		t.Fatalf("plan = %q", res.Rows[0][0].S)
	}
	r = mustQuery(t, db, `SELECT id FROM jobs WHERE salary >= 170000 AND salary <= 190000`)
	if len(r.Rows) != 5 {
		t.Fatalf("two-sided range via index = %v", r.Rows)
	}
}

func TestHashIndexNoRange(t *testing.T) {
	db := newJobsDB(t)
	mustExec(t, db, `CREATE INDEX idx_salary ON jobs (salary)`)
	res := mustQuery(t, db, `EXPLAIN SELECT id FROM jobs WHERE salary > 150000`)
	if !strings.Contains(res.Rows[0][0].S, "SeqScan") {
		t.Fatalf("hash index must not serve ranges: %q", res.Rows[0][0].S)
	}
}

func TestIndexMaintainedByUpdateDelete(t *testing.T) {
	db := newJobsDB(t)
	mustExec(t, db, `CREATE INDEX idx_city ON jobs (city)`)
	if n := mustExec(t, db, `UPDATE jobs SET city = 'Fremont' WHERE id = 1`); n != 1 {
		t.Fatalf("update affected %d", n)
	}
	r := mustQuery(t, db, `SELECT id FROM jobs WHERE city = 'San Francisco'`)
	if len(r.Rows) != 1 || r.Rows[0][0].I != 6 {
		t.Fatalf("after update = %v", r.Rows)
	}
	r = mustQuery(t, db, `SELECT id FROM jobs WHERE city = 'Fremont'`)
	if len(r.Rows) != 1 || r.Rows[0][0].I != 1 {
		t.Fatalf("moved row = %v", r.Rows)
	}
	if n := mustExec(t, db, `DELETE FROM jobs WHERE city = 'Fremont'`); n != 1 {
		t.Fatalf("delete affected %d", n)
	}
	r = mustQuery(t, db, `SELECT id FROM jobs WHERE city = 'Fremont'`)
	if len(r.Rows) != 0 {
		t.Fatalf("after delete = %v", r.Rows)
	}
	info, err := db.Table("jobs")
	if err != nil || info.Rows != 7 {
		t.Fatalf("row count = %+v err=%v", info, err)
	}
}

func TestUpdateAllAndDeleteAll(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE t (a INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1), (2), (3)`)
	if n := mustExec(t, db, `UPDATE t SET a = 9`); n != 3 {
		t.Fatalf("update all = %d", n)
	}
	if n := mustExec(t, db, `DELETE FROM t`); n != 3 {
		t.Fatalf("delete all = %d", n)
	}
	r := mustQuery(t, db, `SELECT COUNT(*) FROM t`)
	if r.Rows[0][0].I != 0 {
		t.Fatalf("count = %v", r.Rows)
	}
}

func TestInsertColumnList(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE t (a INT, b TEXT, c BOOL)`)
	mustExec(t, db, `INSERT INTO t (b, a) VALUES ('x', 1)`)
	r := mustQuery(t, db, `SELECT a, b, c FROM t`)
	if r.Rows[0][0].I != 1 || r.Rows[0][1].S != "x" || !r.Rows[0][2].IsNull() {
		t.Fatalf("insert with column list = %v", r.Rows[0])
	}
}

func TestTypeCoercion(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE t (a INT, b FLOAT)`)
	mustExec(t, db, `INSERT INTO t VALUES (3.0, 4)`) // int<->float lossless
	r := mustQuery(t, db, `SELECT a, b FROM t`)
	if r.Rows[0][0].T != TInt || r.Rows[0][0].I != 3 {
		t.Fatalf("a = %+v", r.Rows[0][0])
	}
	if r.Rows[0][1].T != TFloat || r.Rows[0][1].F != 4 {
		t.Fatalf("b = %+v", r.Rows[0][1])
	}
	if _, err := db.Exec(`INSERT INTO t VALUES ('nope', 1)`); err == nil {
		t.Fatal("expected type mismatch")
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (3.5, 1)`); err == nil {
		t.Fatal("expected lossy float->int rejection")
	}
}

func TestErrors(t *testing.T) {
	db := newJobsDB(t)
	if _, err := db.Query(`SELECT id FROM missing`); !errors.Is(err, ErrTableNotFound) {
		t.Fatalf("err = %v", err)
	}
	if _, err := db.Query(`SELECT nope FROM jobs`); !errors.Is(err, ErrColumnUnknown) {
		t.Fatalf("err = %v", err)
	}
	if _, err := db.Exec(`CREATE TABLE jobs (a INT)`); !errors.Is(err, ErrTableExists) {
		t.Fatalf("err = %v", err)
	}
	if _, err := db.Exec(`INSERT INTO jobs VALUES (1)`); !errors.Is(err, ErrArity) {
		t.Fatalf("err = %v", err)
	}
	if _, err := db.Exec(`CREATE TABLE bad (a INT, A TEXT)`); err == nil {
		t.Fatal("expected duplicate column error")
	}
	if _, err := db.Query(`SELECT * FROM jobs WHERE`); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := db.Query(`SELECT id FRM jobs`); err == nil {
		t.Fatal("expected parse error for FRM")
	}
	if _, err := db.Query(`EXPLAIN DELETE FROM jobs`); err == nil {
		t.Fatal("EXPLAIN non-select must fail")
	}
	mustExec(t, db, `CREATE INDEX i1 ON jobs (city)`)
	if _, err := db.Exec(`CREATE INDEX i2 ON jobs (city)`); !errors.Is(err, ErrIndexExists) {
		t.Fatalf("err = %v", err)
	}
	if _, err := db.Exec(`CREATE INDEX i3 ON jobs (nope)`); !errors.Is(err, ErrColumnUnknown) {
		t.Fatalf("err = %v", err)
	}
	if err := db.DropTable("missing"); !errors.Is(err, ErrTableNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestDropTable(t *testing.T) {
	db := newJobsDB(t)
	mustExec(t, db, `DROP TABLE companies`)
	if _, err := db.Query(`SELECT * FROM companies`); !errors.Is(err, ErrTableNotFound) {
		t.Fatalf("err = %v", err)
	}
	if len(db.Tables()) != 1 {
		t.Fatalf("tables = %v", db.Tables())
	}
}

func TestTablesInfo(t *testing.T) {
	db := newJobsDB(t)
	mustExec(t, db, `CREATE ORDERED INDEX idx_salary ON jobs (salary)`)
	infos := db.Tables()
	if len(infos) != 2 || infos[0].Name != "jobs" {
		t.Fatalf("infos = %+v", infos)
	}
	if infos[0].Rows != 8 {
		t.Fatalf("rows = %d", infos[0].Rows)
	}
	if len(infos[0].Indexes) != 1 || infos[0].Indexes[0].Kind != OrderedIndex {
		t.Fatalf("indexes = %+v", infos[0].Indexes)
	}
	if got := infos[0].Schema.String(); !strings.Contains(got, "title TEXT") {
		t.Fatalf("schema = %q", got)
	}
}

func TestResultStringAndMaps(t *testing.T) {
	db := newJobsDB(t)
	res := mustQuery(t, db, `SELECT id, title FROM jobs WHERE id = 1`)
	s := res.String()
	if !strings.Contains(s, "Data Scientist") || !strings.Contains(s, "id") {
		t.Fatalf("render = %q", s)
	}
	maps := res.Maps()
	if len(maps) != 1 || maps[0]["title"] != "Data Scientist" || maps[0]["id"] != int64(1) {
		t.Fatalf("maps = %v", maps)
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewFloat(2.0), 0},
		{NewFloat(2.5), NewInt(2), 1},
		{NewString("a"), NewString("b"), -1},
		{NewBool(false), NewBool(true), -1},
		{Null, NewInt(0), -1},
		{Null, Null, 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if Equal(Null, Null) {
		t.Fatal("NULL must not equal NULL")
	}
	if !Equal(NewInt(3), NewFloat(3)) {
		t.Fatal("3 must equal 3.0")
	}
}

func TestValueKeyIntFloatUnified(t *testing.T) {
	if NewInt(3).Key() != NewFloat(3.0).Key() {
		t.Fatal("integral float and int must share hash keys")
	}
	if NewFloat(3.5).Key() == NewInt(3).Key() {
		t.Fatal("3.5 must not collide with 3")
	}
}

func TestFromGo(t *testing.T) {
	if FromGo(nil).T != TNull {
		t.Fatal("nil")
	}
	if v := FromGo(42); v.T != TInt || v.I != 42 {
		t.Fatal("int")
	}
	if v := FromGo(4.5); v.T != TFloat {
		t.Fatal("float")
	}
	if v := FromGo("x"); v.T != TString {
		t.Fatal("string")
	}
	if v := FromGo(true); v.T != TBool {
		t.Fatal("bool")
	}
	if v := FromGo([]int{1}); v.T != TString {
		t.Fatal("fallback")
	}
	if v := FromGo(NewInt(7)); v.I != 7 {
		t.Fatal("passthrough")
	}
}

func TestLikeMatcher(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"Data Scientist", "%scientist%", true},
		{"Data Scientist", "data%", true},
		{"Data Scientist", "%data", false},
		{"abc", "a_c", true},
		{"abc", "a_d", false},
		{"abc", "%%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "abc", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q,%q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestStringEscapes(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE t (a TEXT)`)
	mustExec(t, db, `INSERT INTO t VALUES ('it''s fine')`)
	r := mustQuery(t, db, `SELECT a FROM t WHERE a = 'it''s fine'`)
	if len(r.Rows) != 1 || r.Rows[0][0].S != "it's fine" {
		t.Fatalf("escape = %v", r.Rows)
	}
}

func TestComments(t *testing.T) {
	db := newJobsDB(t)
	r := mustQuery(t, db, "SELECT id FROM jobs -- trailing comment\nWHERE id = 1")
	if len(r.Rows) != 1 {
		t.Fatalf("comment handling = %v", r.Rows)
	}
}

func TestOrderByInputColumnNotProjected(t *testing.T) {
	db := newJobsDB(t)
	res := mustQuery(t, db, `SELECT title FROM jobs ORDER BY salary DESC LIMIT 1`)
	if res.Rows[0][0].S != "Senior Data Scientist" {
		t.Fatalf("order by unprojected = %v", res.Rows)
	}
}

func TestConcurrentReadsAndWrites(t *testing.T) {
	db := newJobsDB(t)
	done := make(chan error, 2)
	go func() {
		for i := 0; i < 200; i++ {
			if _, err := db.Exec(`INSERT INTO jobs VALUES (?, 'Bulk Role', 'Remote', 1, 100000, TRUE)`, 1000+i); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < 200; i++ {
			if _, err := db.Query(`SELECT COUNT(*) FROM jobs WHERE title = 'Bulk Role'`); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	r := mustQuery(t, db, `SELECT COUNT(*) FROM jobs WHERE title = 'Bulk Role'`)
	if r.Rows[0][0].I != 200 {
		t.Fatalf("final count = %v", r.Rows[0][0])
	}
}
