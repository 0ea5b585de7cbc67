package dataplan

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"blueprint/internal/nlq"
	"blueprint/internal/relational"
)

// oracleTarget is BuildTarget as it was before table profiles: the catalog
// plus one SELECT DISTINCT per text column, run now. Its hints are put into
// the grounding order (longest value, schema column order, value).
func oracleTarget(db *relational.DB, table string) (nlq.Target, error) {
	info, err := db.Table(table)
	if err != nil {
		return nlq.Target{}, err
	}
	tgt := nlq.Target{Table: info.Name, Hints: []nlq.Hint{}}
	for _, c := range info.Schema.Columns {
		tgt.Columns = append(tgt.Columns, c.Name)
		switch c.Type {
		case relational.TInt, relational.TFloat:
			tgt.NumericColumns = append(tgt.NumericColumns, c.Name)
		case relational.TString:
			tgt.TextColumns = append(tgt.TextColumns, c.Name)
			res, err := db.Query(fmt.Sprintf("SELECT DISTINCT %s FROM %s LIMIT 64", c.Name, info.Name))
			if err != nil {
				return nlq.Target{}, err
			}
			var vals []string
			for _, row := range res.Rows {
				if !row[0].IsNull() {
					vals = append(vals, row[0].S)
				}
			}
			sort.Strings(vals)
			for _, v := range vals {
				tgt.Hints = append(tgt.Hints, nlq.Hint{Column: c.Name, Value: v})
			}
		}
	}
	sort.SliceStable(tgt.Hints, func(i, j int) bool { return len(tgt.Hints[i].Value) > len(tgt.Hints[j].Value) })
	if len(tgt.TextColumns) > 0 {
		tgt.DefaultTextColumn = tgt.TextColumns[0]
	}
	return tgt, nil
}

// Equal-length values of two columns ("Analyst", "Seattle") used to reach
// Compile through a map and an unstable sort, so the WHERE conjuncts came out
// in either order. The order is fixed when the profile is built: one
// utterance gives one SQL text, across rebuilds too.
func TestCompileIsDeterministicAcrossProfileRebuilds(t *testing.T) {
	db := relational.NewDB()
	for _, s := range []string{
		`CREATE TABLE jobs (id INT, city TEXT, title TEXT, salary INT)`,
		`INSERT INTO jobs VALUES (1, 'Seattle', 'Analyst', 1), (2, 'Oakland', 'Curator', 2), (3, 'Chicago', 'Plumber', 3)`,
	} {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	const want = `SELECT * FROM jobs WHERE city = 'Seattle' AND title = 'Analyst'`
	for i := 0; i < 200; i++ {
		if i%10 == 0 { // a write: the next BuildTarget rebuilds the profile
			if _, err := db.Exec(`UPDATE jobs SET salary = ? WHERE id = 1`, i); err != nil {
				t.Fatal(err)
			}
		}
		tgt, err := BuildTarget(db, "jobs")
		if err != nil {
			t.Fatal(err)
		}
		c, err := nlq.Compile("analyst jobs in seattle", tgt)
		if err != nil {
			t.Fatal(err)
		}
		if c.SQL != want {
			t.Fatalf("compile %d: sql = %q, want %q", i, c.SQL, want)
		}
	}
	if cs := db.CacheStats(); cs.ProfileBuilds != 20 || cs.ProfileHits != 180 {
		t.Fatalf("ProfileBuilds=%d ProfileHits=%d, want 20 and 180", cs.ProfileBuilds, cs.ProfileHits)
	}
}

// walSink captures the records a durable DB would log.
type walSink struct{ recs [][]byte }

func (s *walSink) LogMutation(apply func() ([]byte, error)) error {
	rec, err := apply()
	if rec != nil {
		s.recs = append(s.recs, append([]byte(nil), rec...))
	}
	return err
}

// Writers change their table in every way the engine offers while readers
// call BuildTarget on both tables; after each committed write the writer's
// next BuildTarget must equal the oracle. Run under -race (make race).
func TestBuildTargetSeesEveryCommittedWrite(t *testing.T) {
	const schema = ` (id INT, title TEXT, city TEXT, salary INT)`
	db := relational.NewDB()
	tables := []string{"jobs_a", "jobs_b"}
	for _, tbl := range tables {
		if _, err := db.Exec(`CREATE TABLE ` + tbl + schema); err != nil {
			t.Fatal(err)
		}
	}
	// Restore replaces every table, so it excludes the other writer's
	// write-then-compare step; readers are never excluded.
	var restoring sync.RWMutex
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup

	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, tbl := range tables {
					tgt, err := BuildTarget(db, tbl)
					if errors.Is(err, relational.ErrTableNotFound) {
						continue // between a writer's DROP and CREATE
					}
					if err != nil {
						t.Error(err)
						return
					}
					for i := 1; i < len(tgt.Hints); i++ {
						if len(tgt.Hints[i].Value) > len(tgt.Hints[i-1].Value) {
							t.Errorf("%s: hints out of grounding order: %v", tbl, tgt.Hints)
							return
						}
					}
				}
			}
		}()
	}

	for w, tbl := range tables {
		writers.Add(1)
		go func(w int, tbl string) {
			defer writers.Done()
			fail := func(op string, err error) bool {
				if err != nil {
					t.Errorf("%s %s: %v", tbl, op, err)
				}
				return err != nil
			}
			var stmts [3]*relational.Stmt // INSERT, UPDATE, DELETE
			for i, sql := range []string{
				`INSERT INTO ` + tbl + ` VALUES (?, ?, ?, ?)`,
				`UPDATE ` + tbl + ` SET title = ? WHERE id = ?`,
				`DELETE FROM ` + tbl + ` WHERE id = ?`,
			} {
				var err error
				if stmts[i], err = db.Prepare(sql); fail("prepare", err) {
					return
				}
			}
			ins, upd, del := stmts[0], stmts[1], stmts[2]
			// The twin logs what db then replays through Apply.
			twin, sink := relational.NewDB(), &walSink{}
			if _, err := twin.Exec(`CREATE TABLE ` + tbl + schema); fail("twin", err) {
				return
			}
			twin.SetDurable(sink)

			next := 0 // ids are never reused; values repeat so hints come and go
			val := func(kind string, n int) string { return fmt.Sprintf("%s-%d-%d", kind, w, n%17) }
			for round := 0; round < 400; round++ {
				next++
				id := next
				old := 1 + (round*7)%next
				var op string
				var err error
				restoring.RLock()
				switch round % 10 {
				case 0:
					op = "Exec INSERT"
					_, err = db.Exec(fmt.Sprintf(`INSERT INTO %s VALUES (%d, '%s', '%s', %d)`, tbl, id, val("title", id), val("city", id), id))
				case 1:
					op = "prepared INSERT"
					_, err = ins.Query(id, val("title", id), val("city", id), id)
				case 2:
					op = "DB.Insert"
					err = db.Insert(tbl, relational.Row{relational.NewInt(int64(id)), relational.NewString(val("title", id)), relational.Null, relational.NewInt(1)})
				case 3:
					op = "Exec UPDATE"
					_, err = db.Exec(`UPDATE `+tbl+` SET city = ? WHERE id <= ?`, val("moved", round), old)
				case 4:
					op = "prepared UPDATE"
					_, err = upd.Query(val("retitled", round), old)
				case 5:
					op = "Exec DELETE"
					_, err = db.Exec(`DELETE FROM `+tbl+` WHERE id = ?`, old)
				case 6:
					op = "prepared DELETE"
					_, err = del.Query(old)
				case 7:
					op = "WAL Apply"
					if _, err = twin.Exec(`INSERT INTO `+tbl+` VALUES (?, ?, ?, ?)`, id, val("logged", id), val("city", id), id); err == nil {
						err = db.Apply(sink.recs[len(sink.recs)-1])
					}
				case 8:
					op = "DROP+CREATE"
					if _, err = db.Exec(`DROP TABLE ` + tbl); err == nil {
						_, err = db.Exec(`CREATE TABLE ` + tbl + schema)
					}
				case 9:
					op = "Restore"
					restoring.RUnlock()
					restoring.Lock()
					var snap bytes.Buffer
					if err = db.Snapshot(&snap); err == nil {
						// A write after the snapshot that Restore must take back.
						if _, err = db.Exec(`INSERT INTO `+tbl+` VALUES (?, 'rolled back', 'nowhere', 0)`, id); err == nil {
							_, _ = BuildTarget(db, tbl)
							err = db.Restore(&snap)
						}
					}
					restoring.Unlock()
					restoring.RLock()
				}
				if !fail(op, err) {
					got, gerr := BuildTarget(db, tbl)
					want, werr := oracleTarget(db, tbl)
					if !fail(op+": BuildTarget", gerr) && !fail(op+": oracle", werr) && !reflect.DeepEqual(got, want) {
						t.Errorf("%s after %s (round %d):\n got %+v\nwant %+v", tbl, op, round, got, want)
						err = errors.New("stale")
					}
				}
				restoring.RUnlock()
				if err != nil || t.Failed() {
					return
				}
			}
		}(w, tbl)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if cs := db.CacheStats(); cs.ProfileBuilds == 0 || cs.ProfileHits == 0 {
		t.Fatalf("ProfileBuilds=%d ProfileHits=%d: the test exercised only one path", cs.ProfileBuilds, cs.ProfileHits)
	}
}

var nl2qSeeds = []string{
	"How many jobs are in Seattle?",
	"average salary per city for salary over 140500",
	"I am looking for a data scientist position in SF bay area.",
}

// FuzzNL2Q: whatever the utterance, Compile against the fixture's jobs
// target does not panic and emits SQL the engine parses and executes. Seeds:
// the benchmark's three utterance shapes here, and under testdata/fuzz the
// numbers strconv reads and the SQL lexer does not.
func FuzzNL2Q(f *testing.F) {
	for _, u := range nl2qSeeds {
		f.Add(u)
	}
	fx := newFixture(f, 1.0)
	f.Fuzz(func(t *testing.T, utterance string) {
		c, err := nlq.Compile(utterance, fx.bind.Target)
		if err != nil {
			t.Fatalf("Compile(%q): %v", utterance, err)
		}
		if _, err := fx.db.Query(c.SQL); err != nil {
			t.Fatalf("Compile(%q) = %q: %v", utterance, c.SQL, err)
		}
	})
}
