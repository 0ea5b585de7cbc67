package relational

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func stmtTestDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	mustExec := func(sql string, params ...any) {
		t.Helper()
		if _, err := db.Exec(sql, params...); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec(`CREATE TABLE jobs (id INT, title TEXT, city TEXT, salary INT)`)
	cities := []string{"San Francisco", "Oakland", "Seattle"}
	for i := 0; i < 30; i++ {
		mustExec(`INSERT INTO jobs VALUES (?, ?, ?, ?)`,
			i, fmt.Sprintf("title%d", i%5), cities[i%len(cities)], 90000+i*1000)
	}
	return db
}

// Cached re-execution must return exactly what a fresh parse returns.
func TestStmtCacheResultsMatchFreshParse(t *testing.T) {
	queries := []string{
		`SELECT id, title FROM jobs WHERE city = 'Oakland' ORDER BY id`,
		`SELECT city, COUNT(*) AS n, AVG(salary) AS avg_salary FROM jobs GROUP BY city ORDER BY city`,
		`SELECT * FROM jobs WHERE salary >= 95000 AND salary <= 105000 ORDER BY id`,
	}
	cached := stmtTestDB(t)
	for _, q := range queries {
		// Warm the cache, then query again through the cached path.
		if _, err := cached.Query(q); err != nil {
			t.Fatalf("warm %s: %v", q, err)
		}
		got, err := cached.Query(q)
		if err != nil {
			t.Fatalf("cached %s: %v", q, err)
		}
		fresh := stmtTestDB(t) // cold cache: first execution parses freshly
		want, err := fresh.Query(q)
		if err != nil {
			t.Fatalf("fresh %s: %v", q, err)
		}
		if !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("%s: cached result differs from fresh parse\ncached: %v\nfresh:  %v", q, got, want)
		}
	}
	stats := cached.CacheStats()
	if stats.Hits == 0 {
		t.Errorf("expected cache hits, got %+v", stats)
	}
}

func TestPrepareQueryAndExec(t *testing.T) {
	db := stmtTestDB(t)
	st, err := db.Prepare(`SELECT title FROM jobs WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if st.SQL() != `SELECT title FROM jobs WHERE id = ?` {
		t.Errorf("SQL() = %q", st.SQL())
	}
	for i := 0; i < 5; i++ {
		res, err := st.Query(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].S != fmt.Sprintf("title%d", i%5) {
			t.Fatalf("id %d: got %v", i, res.Rows)
		}
	}
	ins, err := db.Prepare(`INSERT INTO jobs VALUES (?, ?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := ins.Exec(1000, "prepared", "Austin", 123456)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("affected = %d, want 1", n)
	}
	res, err := db.Query(`SELECT title FROM jobs WHERE id = 1000`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "prepared" {
		t.Fatalf("prepared insert not visible: %v", res.Rows)
	}
}

func TestStmtCacheCounters(t *testing.T) {
	db := stmtTestDB(t)
	db.ResetCacheStats()
	const q = `SELECT id FROM jobs WHERE city = 'Seattle'`
	for i := 0; i < 4; i++ {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	stats := db.CacheStats()
	if stats.Misses != 1 || stats.Hits != 3 {
		t.Errorf("hits/misses = %d/%d, want 3/1 (%+v)", stats.Hits, stats.Misses, stats)
	}
	if got, want := stats.HitRate(), 0.75; got != want {
		t.Errorf("HitRate() = %v, want %v", got, want)
	}

	// A mix of parameterized texts, interleaved the way an agent suite fires
	// them turn after turn: each text misses once, whatever its parameters.
	mix := []string{
		`SELECT title, city, salary FROM jobs WHERE id = ?`,
		`SELECT city, COUNT(*) AS n FROM jobs WHERE salary > ? GROUP BY city ORDER BY city`,
		`SELECT id, title FROM jobs WHERE salary < ? ORDER BY salary DESC LIMIT 10`,
		`SELECT id FROM jobs WHERE city = ? LIMIT 10`,
	}
	db.ResetCacheStats()
	const turns = 200
	for i := 0; i < turns; i++ {
		var arg any = 90000 + i%30*1000
		if i%len(mix) == 3 {
			arg = "Seattle"
		}
		if _, err := db.Query(mix[i%len(mix)], arg); err != nil {
			t.Fatal(err)
		}
	}
	stats = db.CacheStats()
	if stats.Misses != uint64(len(mix)) || stats.Hits != uint64(turns-len(mix)) {
		t.Errorf("%d turns over %d texts: hits/misses = %d/%d, want %d/%d", turns, len(mix), stats.Hits, stats.Misses, turns-len(mix), len(mix))
	}
}

// DDL must flush the altered table's cached statements so no stale plan
// survives a schema change: the same SQL text must observe a table recreated
// with a different shape, and a new index must show up in the chosen access
// path. (Every statement cached here touches jobs, so the jobs DDL empties
// the cache; see TestStmtCachePerTableInvalidation for selectivity.)
func TestStmtCacheDDLInvalidation(t *testing.T) {
	db := stmtTestDB(t)
	const q = `SELECT id FROM jobs WHERE id = 3`
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("EXPLAIN " + q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "SeqScan") {
		t.Fatalf("pre-index plan = %q, want SeqScan", res.Plan)
	}
	before := db.CacheStats()
	if _, err := db.Exec(`CREATE INDEX i_id ON jobs (id)`); err != nil {
		t.Fatal(err)
	}
	after := db.CacheStats()
	if after.Invalidations <= before.Invalidations {
		t.Errorf("CREATE INDEX did not invalidate: %+v -> %+v", before, after)
	}
	if after.Size != 0 {
		t.Errorf("cache size after DDL = %d, want 0", after.Size)
	}
	if _, err = db.Query(q); err != nil {
		t.Fatal(err)
	}
	res, err = db.Query("EXPLAIN " + q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "IndexScan") {
		t.Errorf("post-index plan = %q, want IndexScan", res.Plan)
	}

	// Recreate the table with a different schema under the same name: the
	// cached SELECT text must run against the new shape.
	wide, err := db.Query(`SELECT * FROM jobs WHERE id = 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(wide.Columns) != 4 {
		t.Fatalf("old schema width = %d, want 4", len(wide.Columns))
	}
	if _, err := db.Exec(`DROP TABLE jobs`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE jobs (id INT, note TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO jobs VALUES (3, 'fresh')`); err != nil {
		t.Fatal(err)
	}
	wide, err = db.Query(`SELECT * FROM jobs WHERE id = 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(wide.Columns) != 2 || wide.Rows[0][1].S != "fresh" {
		t.Errorf("recreated schema: columns=%v rows=%v", wide.Columns, wide.Rows)
	}
}

// DDL invalidation is per table: altering one table must flush only the
// statements referencing it, leaving other tables' hot statements resident.
func TestStmtCachePerTableInvalidation(t *testing.T) {
	db := stmtTestDB(t)
	if _, err := db.Exec(`CREATE TABLE users (id INT, name TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO users VALUES (1, 'ada')`); err != nil {
		t.Fatal(err)
	}
	const jobsQ = `SELECT id FROM jobs WHERE id = 3`
	const usersQ = `SELECT name FROM users WHERE id = 1`
	for _, q := range []string{jobsQ, usersQ} { // warm both
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}

	// DDL on jobs: the users statement must survive, the jobs one must not.
	if _, err := db.Exec(`CREATE INDEX i_jobs_id ON jobs (id)`); err != nil {
		t.Fatal(err)
	}
	db.ResetCacheStats()
	if _, err := db.Query(usersQ); err != nil {
		t.Fatal(err)
	}
	if stats := db.CacheStats(); stats.Hits != 1 || stats.Misses != 0 {
		t.Errorf("users statement flushed by jobs DDL: %+v", stats)
	}
	db.ResetCacheStats()
	if _, err := db.Query(jobsQ); err != nil {
		t.Fatal(err)
	}
	if stats := db.CacheStats(); stats.Misses != 1 {
		t.Errorf("jobs statement survived jobs DDL: %+v", stats)
	}
	res, err := db.Query("EXPLAIN " + jobsQ)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "IndexScan") {
		t.Errorf("reparsed jobs plan = %q, want IndexScan", res.Plan)
	}
}

func TestStmtCacheLRUEviction(t *testing.T) {
	db := stmtTestDB(t)
	db.SetStmtCacheCapacity(0) // drop statements cached during setup
	db.SetStmtCacheCapacity(2)
	db.ResetCacheStats()
	// Structurally distinct statements: literal-only variants would collapse
	// onto one shape key and never fill the cache.
	queries := []string{
		`SELECT id FROM jobs WHERE id = 0`,
		`SELECT title FROM jobs WHERE id = 0`,
		`SELECT city FROM jobs WHERE id = 0`,
	}
	for _, q := range queries {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	stats := db.CacheStats()
	if stats.Size != 2 {
		t.Errorf("size = %d, want 2", stats.Size)
	}
	if stats.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", stats.Evictions)
	}
	// The first query's shape was evicted (LRU); the other two are resident.
	db.ResetCacheStats()
	for _, q := range queries {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	stats = db.CacheStats()
	if stats.Misses == 0 {
		t.Errorf("expected a miss for the evicted entry, got %+v", stats)
	}
}

func TestStmtCacheDisabled(t *testing.T) {
	db := stmtTestDB(t)
	db.SetStmtCacheCapacity(0)
	db.ResetCacheStats()
	const q = `SELECT id FROM jobs WHERE id = 1`
	for i := 0; i < 3; i++ {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	stats := db.CacheStats()
	if stats.Hits != 0 || stats.Size != 0 {
		t.Errorf("disabled cache recorded hits/entries: %+v", stats)
	}
}

// Concurrent Query/Exec/Prepare traffic mixed with DDL invalidations must be
// race-free (run under -race) and always observe coherent results.
func TestStmtCacheConcurrency(t *testing.T) {
	db := stmtTestDB(t)
	var wg sync.WaitGroup
	const workers = 8
	errs := make(chan error, workers*4)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch i % 4 {
				case 0:
					if _, err := db.Query(`SELECT id, title FROM jobs WHERE city = 'Oakland'`); err != nil {
						errs <- err
						return
					}
				case 1:
					st, err := db.Prepare(`SELECT COUNT(*) AS n FROM jobs WHERE salary > ?`)
					if err != nil {
						errs <- err
						return
					}
					if _, err := st.Query(100000); err != nil {
						errs <- err
						return
					}
				case 2:
					if _, err := db.Exec(`INSERT INTO jobs VALUES (?, ?, ?, ?)`,
						1000+w*100+i, "w", "Austin", 100000); err != nil {
						errs <- err
						return
					}
				case 3:
					// DDL on a private table to exercise invalidation
					// concurrently with cached reads.
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

func TestOnWriteHookFiresForMutations(t *testing.T) {
	db := NewDB()
	var writes []string
	db.OnWrite(func(table string) { writes = append(writes, table) })

	if _, err := db.Exec(`CREATE TABLE w (id INT, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO w VALUES (1, 'a')`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`UPDATE w SET v = 'b' WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	// Reads never notify — including through a prepared statement.
	stmt, err := db.Prepare(`SELECT * FROM w WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query(1); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`DELETE FROM w WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	want := []string{"w", "w", "w", "w"} // create, insert, update, delete
	if len(writes) != len(want) {
		t.Fatalf("writes = %v", writes)
	}
	for i, w := range want {
		if writes[i] != w {
			t.Fatalf("writes = %v, want %v", writes, want)
		}
	}
	// A failing statement must not notify.
	before := len(writes)
	if _, err := db.Exec(`INSERT INTO missing VALUES (1)`); err == nil {
		t.Fatal("insert into missing table succeeded")
	}
	if len(writes) != before {
		t.Fatalf("failed statement notified: %v", writes)
	}
}
