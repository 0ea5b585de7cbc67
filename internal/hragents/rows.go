package hragents

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"blueprint/internal/durability"
	"blueprint/internal/nlq"
	"blueprint/internal/relational"
)

// QueryRows is the SQL executor's ROWS output: a statement's result in the
// engine's own row format — the column names once, the rows as the engine
// returned them (each as wide as Columns, and read-only: a `SELECT *` shares
// them with the table) and the SQL text. It crosses the stream hop as this
// value, and the write-ahead log keeps it as this value: it is registered
// with durability's value codec, its cells written by the relational
// engine's own cell codec, so a recovered ROWS payload is a *QueryRows too.
// What needs JSON (a memo key, PayloadString, a stream view) gets, through
// MarshalJSON, the object {"columns":[…],"rows":[{column: value}…],"sql":"…"}.
type QueryRows struct {
	Columns []string
	Rows    []relational.Row
	SQL     string
}

func init() { durability.RegisterValue(durability.TagQueryRows, appendQueryRows, decodeQueryRows) }

// appendQueryRows writes q as the durability value codec logs it: the SQL,
// the columns, then the rows, each as len(Columns) cells; a nil slice and
// an empty one each recover as themselves.
func appendQueryRows(b []byte, q *QueryRows) ([]byte, error) {
	b = durability.AppendString(b, q.SQL)
	b = durability.AppendStrings(b, q.Columns)
	b = durability.AppendOptCount(b, len(q.Rows), q.Rows == nil)
	for _, row := range q.Rows {
		if len(row) != len(q.Columns) {
			return b, fmt.Errorf("hragents: a row of %d cells under %d columns", len(row), len(q.Columns))
		}
		for _, v := range row {
			b = relational.AppendCell(b, v)
		}
	}
	return b, nil
}

// decodeQueryRows reads what appendQueryRows wrote. Every cell takes a byte,
// so rows claiming more cells than bytes remain latch d's error.
func decodeQueryRows(d *durability.Dec) *QueryRows {
	q := &QueryRows{SQL: d.String(), Columns: d.Strings()}
	n, w := d.OptCount(), len(q.Columns)
	if n > 0 && w > 0 && n > d.Len()/w {
		d.Failf("hragents: %d rows of %d cells in %d bytes", n, w, d.Len())
		return q
	}
	if n >= 0 {
		q.Rows = make([]relational.Row, n)
	}
	cells := make([]relational.Value, max(n, 0)*w)
	for i := range q.Rows {
		q.Rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
		for j := range q.Rows[i] {
			q.Rows[i][j] = relational.DecodeCell(d)
		}
	}
	return q
}

// cellOrder lists the cell positions of a row in the order a column->value
// map of it is rendered: by column name, a repeated name keeping its last
// cell.
func (q *QueryRows) cellOrder() []int {
	last := make(map[string]int, len(q.Columns))
	for j, c := range q.Columns {
		last[c] = j
	}
	order := make([]int, 0, len(last))
	for _, j := range last {
		order = append(order, j)
	}
	sort.Slice(order, func(a, b int) bool { return q.Columns[order[a]] < q.Columns[order[b]] })
	return order
}

// MarshalJSON renders {"columns": Columns, "rows": (*relational.Result).Maps(),
// "sql": SQL}.
func (q QueryRows) MarshalJSON() ([]byte, error) {
	return json.Marshal(map[string]any{
		"columns": q.Columns, "rows": (&relational.Result{Columns: q.Columns, Rows: q.Rows}).Maps(), "sql": q.SQL,
	})
}

// AppendJSONHead appends MarshalJSON's output to b, or a prefix of it that
// leaves b longer than n bytes (streams.JSONHeader): it renders the first
// row, then twice as many, until the rows rendered make the prefix, so a
// flow step of a 4 000-row result costs what one of a few rows does.
func (q *QueryRows) AppendJSONHead(b []byte, n int) ([]byte, error) {
	if q == nil {
		return append(b, "null"...), nil
	}
	sql, err := json.Marshal(q.SQL)
	if err != nil {
		return b, err
	}
	for k := 1; k < len(q.Rows); k *= 2 {
		j, err := QueryRows{Columns: q.Columns, Rows: q.Rows[:k], SQL: q.SQL}.MarshalJSON()
		if err != nil {
			return b, err
		}
		// Up to the ']' closing its k rows, j is the whole rendering's head.
		if head := j[:len(j)-len(`],"sql":}`)-len(sql)]; len(b)+len(head) > n {
			return append(b, head...), nil
		}
	}
	j, err := q.MarshalJSON()
	return append(b, j...), err
}

// summaryRows is how many result rows the query summarizer quotes.
const summaryRows = 5

// describeRows reads what the query summarizer says about a ROWS payload,
// the executor's *QueryRows: the row count and the first summaryRows rows,
// each rendered as nlq.FormatRow renders its column->value map.
func describeRows(payload any) (n int, shown []string) {
	p, ok := payload.(*QueryRows)
	if !ok {
		return 0, nil
	}
	order := p.cellOrder()
	for _, row := range p.Rows[:min(len(p.Rows), summaryRows)] {
		var b strings.Builder
		for i, j := range order {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(p.Columns[j])
			b.WriteString(": ")
			b.WriteString(nlq.FormatValue(row[j].Go()))
		}
		shown = append(shown, b.String())
	}
	return len(p.Rows), shown
}
