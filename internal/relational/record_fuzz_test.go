package relational

import (
	"bytes"
	"testing"

	"blueprint/internal/durability"
)

// FuzzRelationalRecord hands the relational decoders arbitrary bytes: as one
// log record to Apply and as a snapshot to Restore, each on a fresh DB.
// Neither panics: a count that claims more elements than bytes remain is an
// error, not a make. Seeds are records and a snapshot the encoders wrote,
// a record and a snapshot that claim 2^62 elements (also checked in under
// testdata/fuzz/FuzzRelationalRecord, so plain `go test` replays them), and a
// record holding a cell of a type no cell has.
func FuzzRelationalRecord(f *testing.F) {
	db := NewDB()
	params := [][]Value{nil, {NewInt(7), NewString("Oakland")}, {NewFloat(1.5), NewBool(true), Null}}
	for i, sql := range []string{
		`CREATE TABLE jobs (id INT, city TEXT, salary FLOAT, open BOOL)`,
		`INSERT INTO jobs (id, city) VALUES (?, ?)`,
		`UPDATE jobs SET salary = ?, open = ? WHERE city IS NULL OR id = 1`,
	} {
		if _, err := db.Exec(sql, valuesAny(params[i])...); err != nil {
			f.Fatal(err)
		}
		f.Add(appendWALRecord(nil, sql, params[i]))
	}
	if _, err := db.Exec(`CREATE ORDERED INDEX idx_salary ON jobs (salary)`); err != nil {
		f.Fatal(err)
	}
	var snap bytes.Buffer
	if err := db.Snapshot(&snap); err != nil {
		f.Fatal(err)
	}
	f.Add(snap.Bytes())

	hugeParams := durability.AppendUvarint(durability.AppendString([]byte{walRecordVersion}, "SELECT id FROM jobs"), 1<<62)
	if err := NewDB().Apply(hugeParams); err == nil {
		f.Fatal("a record claiming 2^62 parameters was applied")
	}
	hugeVersions := durability.AppendUvarint(durability.AppendUvarint([]byte{snapshotVersion}, 1), 1<<62)
	if err := NewDB().Restore(bytes.NewReader(hugeVersions)); err == nil {
		f.Fatal("a snapshot claiming 2^62 schema versions was restored")
	}
	// A parameter whose cell type is 9: refused, not read as NULL.
	unknownCell := appendWALRecord(nil, `SELECT id FROM jobs WHERE id = ?`, []Value{NewInt(7)})
	unknownCell[len(unknownCell)-2] = 9
	if err := NewDB().Apply(unknownCell); err == nil {
		f.Fatal("a record holding a cell of type 9 was applied")
	}
	f.Add(hugeParams)
	f.Add(hugeVersions)
	f.Add(unknownCell)
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		_ = NewDB().Apply(data)
		_ = NewDB().Restore(bytes.NewReader(data))
	})
}

// valuesAny spreads typed cells as Exec's params.
func valuesAny(vs []Value) []any {
	out := make([]any, len(vs))
	for i, v := range vs {
		out[i] = v
	}
	return out
}
