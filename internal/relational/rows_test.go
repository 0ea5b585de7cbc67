package relational

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// Stored rows are immutable and shared: an UPDATE installs a copy, so whatever
// holds a row past the table's read lock — a group's first row, a snapshot, a
// `SELECT *` result — reads one version of it.

// TestConcurrentUpdateReaders runs readers that keep stored rows past the read
// lock (GROUP BY, SELECT *), on the compiled executor and on
// the reference interpreter, beside a writer issuing indexed and unindexed
// UPDATEs and DELETEs on both. When UPDATE wrote cells in place this failed
// under -race (`make race`).
func TestConcurrentUpdateReaders(t *testing.T) {
	db := diffDB(t, 19)

	// A result taken before an UPDATE keeps reading the old values after it.
	before := mustQuery(t, db, `SELECT * FROM jobs WHERE id < 10`)
	want := make([]Row, len(before.Rows))
	for i, r := range before.Rows {
		want[i] = CloneRow(r)
	}
	if n := mustExec(t, db, `UPDATE jobs SET salary = 1, title = 'rewritten', remote = FALSE WHERE id < 10`); n != len(want) {
		t.Fatalf("UPDATE touched %d rows, want %d", n, len(want))
	}
	if !reflect.DeepEqual(before.Rows, want) {
		t.Fatalf("a SELECT * result changed under a later UPDATE:\n got %v\nwant %v", before.Rows, want)
	}
	if got := mustQuery(t, db, `SELECT salary FROM jobs WHERE id = 3`); got.Rows[0][0].I != 1 {
		t.Fatalf("the UPDATE is not visible to a later read: %v", got.Rows)
	}

	readers := []string{
		`SELECT city, AVG(salary), MIN(title), COUNT(company_id) FROM jobs GROUP BY city`,
		`SELECT * FROM jobs WHERE salary > 1`,
	}
	const rounds = 200
	var wg sync.WaitGroup
	for _, sql := range readers {
		for _, read := range []func() (*Result, error){
			func() (*Result, error) { return db.Query(sql) },
			func() (*Result, error) { return refRun(db, sql) },
		} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					res, err := read()
					if err != nil {
						t.Errorf("%s: %v", sql, err)
						return
					}
					// Read every cell after the statement has returned.
					for _, r := range res.Rows {
						for _, v := range r {
							_ = v.String()
						}
					}
				}
			}()
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			var err error
			switch i % 4 {
			case 0: // unindexed predicate, compiled
				_, err = db.Exec(`UPDATE jobs SET salary = ?, company_id = ? WHERE id = ?`, 90000+i, i%8, i%60)
			case 1: // index-served predicate, rewriting the indexed columns
				_, err = db.Exec(`UPDATE jobs SET salary = ?, city = 'Austin' WHERE city = 'Oakland' AND id < ?`, 95000+i, i%60)
			case 2: // the reference interpreter
				_, err = refRun(db, `UPDATE jobs SET salary = ?, company_id = ? WHERE id = ?`, 97000+i, i%8, (i+7)%60)
			default:
				_, err = db.Exec(`DELETE FROM jobs WHERE id = ?`, 59-i/4%20)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestIndexViewBesideWriter: an access path is a view of index storage, good
// only under the read lock it was planned under. Four readers loop a range
// group-by (a run of the ordered index), a hash-equality select (the posting
// list itself) and an IN select (merged postings) while a writer rewrites the
// indexed columns, inserts and deletes on the same table and a CREATE INDEX
// lands mid-run. Every returned row satisfies its statement's predicate, and
// on every other round — taken under a gate the writer holds around each of
// its statements, so that the table stands still: gate first, then the
// table's lock, on both sides — the result is the reference interpreter's,
// which plans by copied id lists. Under -race (`make race`) a view read
// outside its lock is a report.
func TestIndexViewBesideWriter(t *testing.T) {
	db := allocDB(t, 2000, 0)
	mustExec(t, db, `CREATE ORDERED INDEX isal ON jobs (salary)`)
	mustExec(t, db, `CREATE INDEX icity ON jobs (city)`)
	cities := []string{"San Francisco", "Oakland", "Seattle", "New York", "Austin"}

	statements := []struct {
		sql  string
		args func(i int) []any
		// holds reports whether a returned row satisfies the predicate.
		holds func(r Row, args []any) bool
	}{
		{`SELECT city, COUNT(*), MIN(salary), AVG(salary) FROM jobs WHERE salary > ? GROUP BY city`,
			func(i int) []any { return []any{100000 + i%7*20000} },
			func(r Row, args []any) bool { return r[1].I > 0 && r[2].I > int64(args[0].(int)) }},
		{`SELECT id, city, salary FROM jobs WHERE city = ?`,
			func(i int) []any { return []any{cities[i%len(cities)]} },
			func(r Row, args []any) bool { return r[1].S == args[0].(string) }},
		{`SELECT id, title FROM jobs WHERE title IN (?, ?)`,
			func(i int) []any { return []any{"Analyst", []string{"ML Engineer", "Rewritten"}[i%2]} },
			func(r Row, args []any) bool { return r[1].S == args[0].(string) || r[1].S == args[1].(string) }},
	}

	const rounds = 150
	var gate sync.RWMutex
	var wg sync.WaitGroup
	for reader := 0; reader < 4; reader++ {
		wg.Add(1)
		go func(reader int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				st := statements[(i+reader)%len(statements)]
				args := st.args(i)
				if i%2 == 0 {
					res, err := db.Query(st.sql, args...)
					if err != nil {
						t.Errorf("%s %v: %v", st.sql, args, err)
						return
					}
					// The first column is a row's id or a group's key: a view
					// that moved under the scan shows one twice.
					seen := map[string]bool{}
					for _, r := range res.Rows {
						if key := r[0].String(); !st.holds(r, args) || seen[key] {
							t.Errorf("%s %v returned %v", st.sql, args, r)
							return
						} else {
							seen[key] = true
						}
					}
					continue
				}
				gate.RLock()
				got, gotErr := db.Query(st.sql, args...)
				want, wantErr := refRun(db, st.sql, args...)
				gate.RUnlock()
				if gotErr != nil || wantErr != nil || !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Errorf("%s %v beside the writer:\n engine:   %v, %v\nreference: %v, %v", st.sql, args, got, gotErr, want, wantErr)
					return
				}
			}
		}(reader)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			var err error
			gate.Lock()
			switch {
			case i == rounds/2:
				_, err = db.Exec(`CREATE INDEX ititle ON jobs (title)`)
			case i%5 == 0: // through the ordered index, rewriting its column
				_, err = db.Exec(`UPDATE jobs SET salary = ? WHERE salary > ? AND id < ?`, 90000+i*700, 240000-i*100, 40*i)
			case i%5 == 1: // through the hash index, rewriting its column and the IN column
				_, err = db.Exec(`UPDATE jobs SET city = ?, title = 'Rewritten' WHERE city = ? AND id < ?`, cities[(i+1)%5], cities[i%5], 10*i)
			case i%5 == 2:
				_, err = db.Exec(`INSERT INTO jobs VALUES (?, 'Analyst', ?, ?)`, 2000+i, cities[i%5], 95000+i*1000)
			case i%5 == 3:
				_, err = db.Exec(`DELETE FROM jobs WHERE city = ? AND id < ?`, cities[i%5], 4*i)
			default:
				_, err = db.Exec(`DELETE FROM jobs WHERE title IN ('Analyst') AND salary > ?`, 245000-i*100)
			}
			gate.Unlock()
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestGroupByAllocationsIndependentOfRows: a compiled GROUP BY keeps an
// accumulator per group and no row but each group's first, so ten times the
// rows in the same groups cost the same number of allocations.
func TestGroupByAllocationsIndependentOfRows(t *testing.T) {
	const sql = `SELECT city, COUNT(*), AVG(salary), MIN(title), COUNT(title) FROM jobs WHERE salary >= 90000 GROUP BY city`
	allocs := func(rows int) float64 {
		db := allocDB(t, rows, 0)
		st, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if res, err := st.Query(); err != nil || len(res.Rows) != 5 {
				t.Fatalf("%d groups, err %v", len(res.Rows), err)
			}
		})
	}
	small, large := allocs(500), allocs(5000)
	if d := large - small; d > 2 || d < -2 {
		t.Fatalf("GROUP BY allocates %.0f objects over 500 rows and %.0f over 5000: it grows with its input", small, large)
	}
}

// TestIndexedSelectAllocationsIndependentOfMatches: an index-served SELECT
// reads the index's own storage under the lock it planned under — a run of the
// ordered entries, the hash posting list — instead of a copy of the matching
// ids, so what it allocates, in objects and in bytes, does not depend on how
// many entries match.
func TestIndexedSelectAllocationsIndependentOfMatches(t *testing.T) {
	db := allocDB(t, 5000, 0)
	mustExec(t, db, `CREATE ORDERED INDEX isal ON jobs (salary)`)
	mustExec(t, db, `CREATE INDEX icity ON jobs (city)`)
	mustExec(t, db, `UPDATE jobs SET city = 'Few' WHERE id < 50`)
	mustExec(t, db, `UPDATE jobs SET city = 'Many' WHERE id >= 500`)
	// cost is what one execution allocates — objects, bytes — checked to meet
	// at least min and at most max index entries.
	cost := func(sql, where, tail string, arg any, min, max int64) (float64, float64) {
		if n := mustQuery(t, db, `SELECT COUNT(*) FROM jobs WHERE `+where, arg).Rows[0][0].I; n < min || n > max {
			t.Fatalf("%s %v: %d matches, want %d to %d", where, arg, n, min, max)
		}
		st, err := db.Prepare(sql + ` WHERE ` + where + tail)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := st.Query(arg); err != nil {
				t.Fatal(err)
			}
		}
		objects := testing.AllocsPerRun(50, run)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 50; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return objects, float64(after.TotalAlloc-before.TotalAlloc) / 50
	}
	for _, c := range []struct {
		sql, where, tail string
		few, many        any
	}{
		{`SELECT title, AVG(salary) FROM jobs`, `salary > ?`, ` GROUP BY title`, 247000, 105000},
		{`SELECT COUNT(*) FROM jobs`, `city = ?`, ``, "Few", "Many"},
	} {
		fewObjects, fewBytes := cost(c.sql, c.where, c.tail, c.few, 50, 100)
		manyObjects, manyBytes := cost(c.sql, c.where, c.tail, c.many, 4000, 4500)
		if fewObjects != manyObjects || manyBytes-fewBytes > 512 {
			t.Fatalf("%s WHERE %s allocates %.0f objects, %.0f bytes for %v and %.0f objects, %.0f bytes for %v: it grows with the matches",
				c.sql, c.where, fewObjects, fewBytes, c.few, manyObjects, manyBytes, c.many)
		}
	}
}

// TestCompiledAllocatesLessThanInterpreter: on the shapes the agents lean on —
// a multi-predicate filtered scan over a wide table and a two-key GROUP BY —
// the compiled program allocates fewer objects per execution than the
// reference interpreter on the same statement and data.
func TestCompiledAllocatesLessThanInterpreter(t *testing.T) {
	db := allocDB(t, 1200, 12)
	for _, sql := range []string{
		`SELECT id, padab, padal, city FROM jobs WHERE padal >= 0 AND salary < 200000 AND title != 'Analyst' AND city != 'Austin'`,
		`SELECT city, title, COUNT(*) AS n, AVG(salary) AS a, MIN(id) AS lo, MAX(padaf) AS hi FROM jobs GROUP BY city, title`,
	} {
		st, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refStmt(db, sql)
		if err != nil {
			t.Fatal(err)
		}
		allocs := func(run func() (*Result, error)) float64 {
			return testing.AllocsPerRun(5, func() {
				if res, err := run(); err != nil || len(res.Rows) == 0 {
					t.Fatalf("%s: %v", sql, err)
				}
			})
		}
		// Both sides start from a parsed statement.
		interp := allocs(func() (*Result, error) { return ref() })
		if comp := allocs(func() (*Result, error) { return st.Query() }); comp >= interp {
			t.Errorf("%s: compiled %.0f allocs/op, interpreted %.0f: no reduction", sql, comp, interp)
		}
	}
}

// TestSelectStarSharesStoredRows: `SELECT * … WHERE` returns the stored rows
// themselves — no Value arena — so what it allocates does not depend on how
// wide the table is.
func TestSelectStarSharesStoredRows(t *testing.T) {
	const sql = `SELECT * FROM jobs WHERE salary >= 150000`
	bytesPerRun := func(pad int) (float64, *Result) {
		db := allocDB(t, 2000, pad)
		st, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.Query()
		if err != nil {
			t.Fatal(err)
		}
		const runs = 20
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			if _, err := st.Query(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / runs, res
	}
	narrow, res := bytesPerRun(0)
	wide, wideRes := bytesPerRun(36)
	if len(res.Rows) == 0 || len(res.Rows) != len(wideRes.Rows) || len(wideRes.Rows[0]) != len(res.Rows[0])+36 {
		t.Fatalf("fixture: %d rows of %d cells vs %d rows of %d cells", len(res.Rows), len(res.Rows[0]), len(wideRes.Rows), len(wideRes.Rows[0]))
	}
	// One 40-cell Value row is ~2 KB; a copy of each result row would put the
	// wide table far beyond this.
	if wide > narrow*1.1+1024 {
		t.Fatalf("SELECT * allocates %.0f B over 4-column rows and %.0f B over 40-column rows: it copies cells", narrow, wide)
	}
}

// allocDB builds a jobs table of the given size whose rows fall into five
// city groups, with pad extra INT columns.
func allocDB(t testing.TB, rows, pad int) *DB {
	t.Helper()
	schema := Schema{Columns: []Column{{Name: "id", Type: TInt}, {Name: "title", Type: TString}, {Name: "city", Type: TString}, {Name: "salary", Type: TInt}}}
	for i := 0; i < pad; i++ {
		schema.Columns = append(schema.Columns, Column{Name: "pad" + string(rune('a'+i/26)) + string(rune('a'+i%26)), Type: TInt})
	}
	db := NewDB()
	if err := db.CreateTable("jobs", schema); err != nil {
		t.Fatal(err)
	}
	cities := []string{"San Francisco", "Oakland", "Seattle", "New York", "Austin"}
	titles := []string{"Data Scientist", "ML Engineer", "Analyst"}
	for i := 0; i < rows; i++ {
		row := Row{NewInt(int64(i)), NewString(titles[i%len(titles)]), NewString(cities[i%len(cities)]), NewInt(int64(90000 + i%160*1000))}
		for j := 0; j < pad; j++ {
			row = append(row, NewInt(int64(j)))
		}
		if err := db.Insert("jobs", row); err != nil {
			t.Fatal(err)
		}
	}
	return db
}
