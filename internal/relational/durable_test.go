package relational

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"blueprint/internal/durability"
)

const testSubID = 2

// openDurable builds a DB attached to a durability engine over dir and
// recovers prior state.
func openDurable(t testing.TB, dir string) (*DB, *durability.Engine) {
	t.Helper()
	db := NewDB()
	eng, err := durability.Open(dir, durability.Options{DisableFsync: true, FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(testSubID, "relational", db, durability.WithSnapshotBarrier()); err != nil {
		t.Fatal(err)
	}
	db.SetDurable(eng.Logger(testSubID))
	if err := eng.Recover(); err != nil {
		t.Fatal(err)
	}
	return db, eng
}

func seedDurable(t testing.TB, db *DB, rows int) {
	t.Helper()
	mustExec := func(sql string, params ...any) {
		if _, err := db.Exec(sql, params...); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec(`CREATE TABLE items (id INT, name TEXT, price FLOAT, active BOOL)`)
	mustExec(`CREATE INDEX idx_items_id ON items (id)`)
	mustExec(`CREATE ORDERED INDEX idx_items_price ON items (price)`)
	stmt, err := db.Prepare(`INSERT INTO items VALUES (?, ?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= rows; i++ {
		if _, err := stmt.Query(i, fmt.Sprintf("item-%d", i), float64(i)*1.5, i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(`UPDATE items SET price = 99.5, active = FALSE WHERE id <= 10`)
	mustExec(`DELETE FROM items WHERE id > ?`, rows-5)
}

// tableDump renders every live row of a table for equality checks.
func tableDump(t testing.TB, db *DB, table string) string {
	t.Helper()
	res, err := db.Query(`SELECT * FROM ` + table + ` ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	return res.String()
}

func TestDurableReplayRecoversDMLAndDDL(t *testing.T) {
	dir := t.TempDir()
	db, eng := openDurable(t, dir)
	seedDurable(t, db, 50)
	want := tableDump(t, db, "items")
	if err := eng.Close(); err != nil { // crash-style stop: no snapshot
		t.Fatal(err)
	}

	db2, eng2 := openDurable(t, dir)
	defer eng2.Close()
	if got := tableDump(t, db2, "items"); got != want {
		t.Fatalf("replayed state differs:\n got:\n%s\nwant:\n%s", got, want)
	}
	ti, err := db2.Table("items")
	if err != nil {
		t.Fatal(err)
	}
	if len(ti.Indexes) != 2 {
		t.Fatalf("replayed %d indexes, want 2", len(ti.Indexes))
	}
}

func TestDurableSnapshotRestore(t *testing.T) {
	dir := t.TempDir()
	db, eng := openDurable(t, dir)
	seedDurable(t, db, 50)
	if err := eng.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot mutations must replay on top of the restored image.
	if _, err := db.Exec(`INSERT INTO items VALUES (999, 'late', 9.5, TRUE)`); err != nil {
		t.Fatal(err)
	}
	want := tableDump(t, db, "items")
	wantVers := func(d *DB) map[string]uint64 {
		d.mu.RLock()
		defer d.mu.RUnlock()
		out := make(map[string]uint64, len(d.vers))
		for k, v := range d.vers {
			out[k] = v
		}
		return out
	}(db)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	db2, eng2 := openDurable(t, dir)
	defer eng2.Close()
	if !eng2.Stats().Recovery.SnapshotRestored {
		t.Fatal("snapshot was not restored")
	}
	if got := tableDump(t, db2, "items"); got != want {
		t.Fatalf("restored state differs:\n got:\n%s\nwant:\n%s", got, want)
	}
	gotVers := func(d *DB) map[string]uint64 {
		d.mu.RLock()
		defer d.mu.RUnlock()
		out := make(map[string]uint64, len(d.vers))
		for k, v := range d.vers {
			out[k] = v
		}
		return out
	}(db2)
	for k, v := range wantVers {
		if gotVers[k] != v {
			t.Fatalf("schema version %s = %d after restore, want %d", k, gotVers[k], v)
		}
	}
	// Indexes must be live after restore: an indexed point query plans
	// through them and returns the right row.
	res, err := db2.Query(`SELECT name FROM items WHERE id = 7`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "item-7" {
		t.Fatalf("indexed lookup after restore returned %v", res.Rows)
	}
}

func TestDurableDropTableReplay(t *testing.T) {
	dir := t.TempDir()
	db, eng := openDurable(t, dir)
	mustExec := func(sql string) {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec(`CREATE TABLE scratch (id INT)`)
	mustExec(`INSERT INTO scratch VALUES (1)`)
	mustExec(`DROP TABLE scratch`)
	mustExec(`CREATE TABLE keep (id INT)`)
	mustExec(`INSERT INTO keep VALUES (42)`)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	db2, eng2 := openDurable(t, dir)
	defer eng2.Close()
	if _, err := db2.Table("scratch"); err == nil {
		t.Fatal("dropped table resurrected by replay")
	}
	res, err := db2.Query(`SELECT id FROM keep`)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != 42 {
		t.Fatalf("keep table not recovered: %v %v", res, err)
	}
}

// TestDurablePartialFailureReplays: a multi-row INSERT that errors midway
// keeps its earlier rows in the live store; the statement is logged anyway
// and deterministic replay reproduces exactly that partial effect, so
// recovery matches the state every later statement executed against.
func TestDurablePartialFailureReplays(t *testing.T) {
	dir := t.TempDir()
	db, eng := openDurable(t, dir)
	if _, err := db.Exec(`CREATE TABLE p (id INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO p VALUES (1), ('not-an-int')`); err == nil {
		t.Fatal("mixed-type multi-row insert should fail")
	}
	if _, err := db.Exec(`INSERT INTO p VALUES (2)`); err != nil {
		t.Fatal(err)
	}
	want := tableDump(t, db, "p")
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	db2, eng2 := openDurable(t, dir)
	defer eng2.Close()
	if got := tableDump(t, db2, "p"); got != want {
		t.Fatalf("partial-failure state diverged after replay:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestDurableTornWALPrefix cuts the relational WAL at random offsets and
// asserts the recovered rows are always an exact prefix of the committed
// insert history.
func TestDurableTornWALPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const inserts = 60
	for trial := 0; trial < 10; trial++ {
		dir := t.TempDir()
		db, eng := openDurable(t, dir)
		if _, err := db.Exec(`CREATE TABLE seqd (id INT)`); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= inserts; i++ {
			if _, err := db.Exec(`INSERT INTO seqd VALUES (?)`, i); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		seg := filepath.Join(dir, "wal-00000001.log")
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(seg, rng.Int63n(fi.Size()+1)); err != nil {
			t.Fatal(err)
		}

		db2, eng2 := openDurable(t, dir)
		res, err := db2.Query(`SELECT id FROM seqd ORDER BY id`)
		if err != nil {
			// The CREATE TABLE itself may have been cut off; then the
			// table must be entirely absent.
			if _, terr := db2.Table("seqd"); terr == nil {
				t.Fatalf("trial %d: query failed (%v) but table exists", trial, err)
			}
			eng2.Close()
			continue
		}
		for i, row := range res.Rows {
			if row[0].I != int64(i+1) {
				t.Fatalf("trial %d: recovered ids are not a prefix at %d: %v", trial, i, row[0].I)
			}
		}
		if len(res.Rows) > inserts {
			t.Fatalf("trial %d: recovered more rows than committed", trial)
		}
		eng2.Close()
	}
}

// BenchmarkDurableWrite tracks the durable-write overhead: with the scratch
// encode buffer and group-committed background flush, durable-mode insert
// throughput must stay within ~2x of the in-memory path.
func BenchmarkDurableWrite(b *testing.B) {
	run := func(b *testing.B, db *DB) {
		stmt, err := db.Prepare(`INSERT INTO bench VALUES (?, ?, ?)`)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stmt.Query(i, "row-payload", float64(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("InMemory", func(b *testing.B) {
		db := NewDB()
		if _, err := db.Exec(`CREATE TABLE bench (id INT, name TEXT, score FLOAT)`); err != nil {
			b.Fatal(err)
		}
		run(b, db)
	})
	b.Run("Durable", func(b *testing.B) {
		// Production configuration: background flush loop with real
		// fsyncs, so the number includes the full durable-mode overhead.
		db := NewDB()
		eng, err := durability.Open(b.TempDir(), durability.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		if err := eng.Register(testSubID, "relational", db, durability.WithSnapshotBarrier()); err != nil {
			b.Fatal(err)
		}
		db.SetDurable(eng.Logger(testSubID))
		if err := eng.Recover(); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Exec(`CREATE TABLE bench (id INT, name TEXT, score FLOAT)`); err != nil {
			b.Fatal(err)
		}
		run(b, db)
	})
}
