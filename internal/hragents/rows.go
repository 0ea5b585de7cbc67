package hragents

import (
	"encoding/json"
	"sort"
	"strconv"
	"strings"

	"blueprint/internal/nlq"
	"blueprint/internal/relational"
)

// QueryRows is the SQL executor's ROWS output: a statement's result in the
// engine's own row format — the column names once, the rows as the engine
// returned them (each as wide as Columns, and read-only: a `SELECT *` shares
// them with the table) and the SQL text. It crosses the stream hop as this
// value; what needs bytes (the write-ahead log, a memo key, a stream view)
// gets, through MarshalJSON, the object
// {"columns":[…],"rows":[{column: value}…],"sql":"…"} — which is also the
// form a consumer meets after a recovery (a generic map).
type QueryRows struct {
	Columns []string
	Rows    []relational.Row
	SQL     string
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

// MarshalJSON renders the bytes encoding/json produces for
// {"columns": Columns, "rows": (*relational.Result).Maps(), "sql": SQL}.
func (q QueryRows) MarshalJSON() ([]byte, error) {
	cols, err := json.Marshal(q.Columns)
	if err != nil {
		return nil, err
	}
	order := q.cellOrder()
	keys := make([][]byte, len(order))
	for i, j := range order {
		k, err := json.Marshal(q.Columns[j])
		if err != nil {
			return nil, err
		}
		keys[i] = append(k, ':')
	}
	b := make([]byte, 0, 64+len(cols)+len(q.SQL)+len(q.Rows)*len(cols)*2)
	b = append(b, `{"columns":`...)
	b = append(b, cols...)
	b = append(b, `,"rows":[`...)
	for ri, row := range q.Rows {
		if ri > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		for i, j := range order {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, keys[i]...)
			if b, err = appendCellJSON(b, row[j]); err != nil {
				return nil, err
			}
		}
		b = append(b, '}')
	}
	b = append(b, `],"sql":`...)
	sql, err := json.Marshal(q.SQL)
	if err != nil {
		return nil, err
	}
	b = append(b, sql...)
	return append(b, '}'), nil
}

// appendCellJSON appends v as encoding/json renders v.Go().
func appendCellJSON(b []byte, v relational.Value) ([]byte, error) {
	switch v.T {
	case relational.TInt:
		return strconv.AppendInt(b, v.I, 10), nil
	case relational.TBool:
		return strconv.AppendBool(b, v.B), nil
	case relational.TString, relational.TFloat:
		// Escaping and float formatting are encoding/json's own.
		enc, err := json.Marshal(v.Go())
		return append(b, enc...), err
	default:
		return append(b, "null"...), nil
	}
}

// summaryRows is how many result rows the query summarizer quotes.
const summaryRows = 5

// describeRows reads what the query summarizer says about a ROWS payload:
// the row count and the first summaryRows rows, each rendered as
// nlq.FormatRow renders its column->value map. The live payload is the
// executor's *QueryRows; one that has been through a log, or came from an
// external producer, is the generic object.
func describeRows(payload any) (n int, shown []string) {
	switch p := payload.(type) {
	case *QueryRows:
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
	case map[string]any:
		rows, _ := p["rows"].([]any)
		for _, r := range rows[:min(len(rows), summaryRows)] {
			if m, ok := r.(map[string]any); ok {
				shown = append(shown, nlq.FormatRow(m))
			} else {
				shown = append(shown, nlq.FormatValue(r))
			}
		}
		return len(rows), shown
	}
	return 0, nil
}
