package hragents

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"blueprint/internal/agent"
	"blueprint/internal/durability"
	"blueprint/internal/relational"
)

// rowsDB holds one table whose cells cover what a ROWS payload can carry:
// NULLs, floats (integral and not), booleans, and strings JSON must escape.
func rowsDB(t testing.TB) *relational.DB {
	t.Helper()
	db := relational.NewDB()
	if _, err := db.Exec(`CREATE TABLE t (id INT, name TEXT, score FLOAT, ok BOOL)`); err != nil {
		t.Fatal(err)
	}
	names := []any{"plain", `quo"te\`, "<b>&amp;</b>", "snow ☃  ", nil, "", "tab\there", "last"}
	for i, name := range names {
		var score any = float64(i) + 0.25*float64(i%4)
		if i == 2 {
			score = nil
		}
		var ok any = i%2 == 0
		if i == 3 {
			ok = nil
		}
		if _, err := db.Exec(`INSERT INTO t VALUES (?, ?, ?, ?)`, i, name, score, ok); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// rowsStatements give 0, 1, 5 and 6+ rows, an aggregate row, and a column
// name used twice (a column->value map keeps the last one).
var rowsStatements = []string{
	`SELECT * FROM t WHERE id > 100`,
	`SELECT * FROM t WHERE id = 4`,
	`SELECT * FROM t WHERE id < 5`,
	`SELECT * FROM t`,
	`SELECT name, score FROM t WHERE id < 6 ORDER BY score DESC`,
	`SELECT ok, COUNT(*) AS n, AVG(score) FROM t GROUP BY ok`,
	`SELECT id, name AS id, score FROM t`,
}

// executeSQL runs the SQL executor's processor and returns its ROWS output
// beside the same result as a generic object built from Result.Maps.
func executeSQL(t testing.TB, s *Suite, sql string) (typed any, mapForm map[string]any) {
	t.Helper()
	out, err := s.sqlExecutorProc()(context.Background(), agent.Invocation{Inputs: map[string]any{"SQL": sql}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Ent.DB.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	return out.Values["ROWS"], map[string]any{"columns": res.Columns, "rows": res.Maps(), "sql": sql}
}

// The typed ROWS payload JSON-encodes to exactly the bytes of its
// generic-object form, which is what PayloadString, memo keys and the HTTP
// stream views are specified to see.
func TestQueryRowsEncodesAsTheMapForm(t *testing.T) {
	a := newApp(t, 1.0)
	a.suite.Ent.DB = rowsDB(t)
	for _, sql := range rowsStatements {
		typed, mapForm := executeSQL(t, a.suite, sql)
		rows, ok := typed.(*QueryRows)
		if !ok {
			t.Fatalf("%s: ROWS is a %T, want *QueryRows", sql, typed)
		}
		want, err := json.Marshal(mapForm)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []any{rows, *rows, map[string]any{"ROWS": rows}} {
			got, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			if _, wrapped := v.(map[string]any); wrapped {
				got = bytes.TrimSuffix(bytes.TrimPrefix(got, []byte(`{"ROWS":`)), []byte(`}`))
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: %T encodes as\n%s\nwant the map form\n%s", sql, v, got, want)
			}
		}
	}
}

// A ROWS payload logged by durability's value codec recovers as the
// *QueryRows that was logged, cell for cell, and the query summarizer says
// the same about it. A row not as wide as its columns is refused, not logged
// out of step.
func TestQueryRowsRecoverTyped(t *testing.T) {
	a := newApp(t, 1.0)
	a.suite.Ent.DB = rowsDB(t)
	summarize := func(rows any) string {
		t.Helper()
		out, err := a.suite.querySummarizerProc()(context.Background(), agent.Invocation{Inputs: map[string]any{"ROWS": rows}})
		if err != nil {
			t.Fatal(err)
		}
		return out.Values["SUMMARY"].(string)
	}
	for _, sql := range rowsStatements {
		typed, _ := executeSQL(t, a.suite, sql)
		b, err := durability.AppendValue(nil, typed)
		if err != nil {
			t.Fatal(err)
		}
		d := durability.NewDec(b)
		back := d.Value()
		if d.Err() != nil || d.Len() != 0 || !reflect.DeepEqual(back, typed) {
			t.Fatalf("%s: logged as %q, recovered as %#v (%v, %d bytes left), want %#v", sql, b, back, d.Err(), d.Len(), typed)
		}
		if got, want := summarize(back), summarize(typed); got != want {
			t.Fatalf("%s: summary of the recovered payload\n%s\nof the live one\n%s", sql, got, want)
		}
	}
	for _, q := range []*QueryRows{{}, {Columns: []string{}, Rows: []relational.Row{}}} {
		b, _ := durability.AppendValue(nil, q)
		if back := durability.NewDec(b).Value(); !reflect.DeepEqual(back, q) {
			t.Fatalf("%#v recovered as %#v", q, back)
		}
	}
	ragged := &QueryRows{Columns: []string{"id", "name"}, Rows: []relational.Row{{relational.NewInt(1)}}}
	if _, err := durability.AppendValue(nil, ragged); err == nil {
		t.Fatal("a row of 1 cell under 2 columns was logged")
	}
}

// BenchmarkRowsHandoff is one SQL executor -> query summarizer hand-off of a
// 400-row result: the executor's output becoming the summarizer's input (the
// row count and the rows it quotes).
func BenchmarkRowsHandoff(b *testing.B) {
	a := newApp(b, 1.0)
	exec := a.suite.sqlExecutorProc()
	inv := agent.Invocation{Inputs: map[string]any{"SQL": `SELECT * FROM applications WHERE id <= 400`}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := exec(context.Background(), inv)
		if err != nil {
			b.Fatal(err)
		}
		if n, shown := describeRows(out.Values["ROWS"]); n != 400 || len(shown) != summaryRows {
			b.Fatalf("%d rows, %d shown", n, len(shown))
		}
	}
}
