package relational

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// distinctHints is the reference for TableProfile.Hints: the statement the
// NL2Q target builder used to run per text column, its NULLs dropped, then
// the grounding order (longest value, schema column order, value).
func distinctHints(t testing.TB, db *DB, table string) []ValueHint {
	t.Helper()
	info, err := db.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	var out []ValueHint
	for _, c := range info.Schema.Columns {
		if c.Type != TString {
			continue
		}
		res, err := db.Query(fmt.Sprintf("SELECT DISTINCT %s FROM %s LIMIT 64", c.Name, info.Name))
		if err != nil {
			t.Fatal(err)
		}
		var vals []string
		for _, row := range res.Rows {
			if !row[0].IsNull() {
				vals = append(vals, row[0].S)
			}
		}
		sort.Strings(vals)
		for _, v := range vals {
			out = append(out, ValueHint{Column: c.Name, Value: v})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return len(out[i].Value) > len(out[j].Value) })
	return out
}

// The profile is the first 64 distinct values in row order of every text
// column — a NULL takes one of the 64 places, tombstoned rows none — exactly
// as the DISTINCT statements return them.
func TestProfileMatchesDistinctStatements(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE t (id INT, wide TEXT, narrow TEXT, n FLOAT)`)
	for i := 0; i < 300; i++ {
		var wide any = fmt.Sprintf("w%03d", i%100) // 100 distinct: capped
		if i == 10 {
			wide = nil // a NULL among the first 64 distinct
		}
		mustExec(t, db, `INSERT INTO t VALUES (?, ?, ?, ?)`, i, wide, fmt.Sprintf("n%d", i%7), float64(i))
	}
	mustExec(t, db, `DELETE FROM t WHERE id < 5`) // w000..w004 first seen later, n0..n4 too
	p, built, err := db.Profile("T")
	if err != nil || !built {
		t.Fatalf("first Profile: built=%v err=%v", built, err)
	}
	if p.Table != "t" || len(p.Columns) != 4 {
		t.Fatalf("profile = %+v", p)
	}
	want := distinctHints(t, db, "t")
	if !reflect.DeepEqual(p.Hints, want) {
		t.Fatalf("hints differ from the DISTINCT statements:\n got %v\nwant %v", p.Hints, want)
	}
	perCol := map[string]int{}
	for _, h := range p.Hints {
		perCol[h.Column]++
	}
	if perCol["wide"] != 63 || perCol["narrow"] != 7 {
		t.Fatalf("per-column hints = %v, want wide 63 (64 minus the NULL), narrow 7", perCol)
	}
	if _, _, err := db.Profile("missing"); err == nil {
		t.Fatal("profile of a missing table")
	}
}

// Every way a table's rows can change makes the next Profile a rebuild that
// sees the change; everything else is a hit on the same profile.
func TestProfileRebuildsAfterEveryKindOfWrite(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE t (id INT, city TEXT)`)
	mustExec(t, db, `CREATE TABLE other (id INT, city TEXT)`)
	ins, err := db.Prepare(`INSERT INTO t VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	upd, err := db.Prepare(`UPDATE t SET city = ? WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	sink := &captureSink{}
	writes := []struct {
		name string
		do   func()
	}{
		{"DB.Insert", func() {
			if err := db.Insert("t", Row{NewInt(1), NewString("Oslo")}); err != nil {
				t.Fatal(err)
			}
		}},
		{"Exec INSERT", func() { mustExec(t, db, `INSERT INTO t VALUES (2, 'Bergen')`) }},
		{"compiled UPDATE", func() { mustExec(t, db, `UPDATE t SET city = 'Tromso' WHERE id = 2`) }},
		{"compiled DELETE", func() { mustExec(t, db, `DELETE FROM t WHERE id = 1`) }},
		{"prepared INSERT", func() {
			if _, err := ins.Query(3, "Narvik"); err != nil {
				t.Fatal(err)
			}
		}},
		{"prepared UPDATE", func() {
			if _, err := upd.Query("Bodo", 3); err != nil {
				t.Fatal(err)
			}
		}},
		{"snapshot", func() { // not a write to t's rows, but taken here for Restore below
			mustExec(t, db, `INSERT INTO t VALUES (4, 'Molde')`)
			if err := db.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
		}},
		{"DROP+CREATE", func() {
			mustExec(t, db, `DROP TABLE t`)
			mustExec(t, db, `CREATE TABLE t (id INT, city TEXT)`)
		}},
		{"Restore", func() {
			if err := db.Restore(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatal(err)
			}
		}},
		{"WAL Apply", func() {
			// A record as the durable engine logs it, captured from a twin.
			twin := NewDB()
			mustExec(t, twin, `CREATE TABLE t (id INT, city TEXT)`)
			twin.SetDurable(sink)
			mustExec(t, twin, `INSERT INTO t VALUES (?, ?)`, 5, "Hamar")
			if err := db.Apply(sink.last()); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, w := range writes {
		w.do()
		p, built, err := db.Profile("t")
		if err != nil || !built {
			t.Fatalf("after %s: built=%v err=%v, want a rebuild", w.name, built, err)
		}
		if want := distinctHints(t, db, "t"); !reflect.DeepEqual(p.Hints, want) {
			t.Fatalf("after %s: hints %v, want %v", w.name, p.Hints, want)
		}
		// Reads and a write to another table leave it valid.
		mustExec(t, db, `INSERT INTO other VALUES (1, 'Elsewhere')`)
		if _, err := db.Query(`SELECT * FROM t`); err != nil {
			t.Fatal(err)
		}
		if again, built, _ := db.Profile("t"); built || again != p {
			t.Fatalf("after %s: second Profile built=%v, want the cached profile", w.name, built)
		}
	}
	if cs := db.CacheStats(); cs.ProfileBuilds != uint64(len(writes)) || cs.ProfileHits != uint64(len(writes)) {
		t.Fatalf("ProfileBuilds=%d ProfileHits=%d, want %d each", cs.ProfileBuilds, cs.ProfileHits, len(writes))
	}
	if p, _, _ := db.Profile("t"); len(p.Hints) != 4 { // Tromso, Bodo and Molde from the snapshot, Hamar from the log
		t.Fatalf("final hints = %v", p.Hints)
	}
}

// captureSink is a DurabilitySink that keeps the records instead of logging.
type captureSink struct{ recs [][]byte }

func (c *captureSink) LogMutation(apply func() ([]byte, error)) error {
	rec, err := apply()
	if rec != nil {
		c.recs = append(c.recs, append([]byte(nil), rec...))
	}
	return err
}

func (c *captureSink) last() []byte { return c.recs[len(c.recs)-1] }
