// Package nlq implements the blueprint's natural-language/query bridges:
// an intent classifier, NL2Q (a semantic parser compiling natural-language
// questions to the relational engine's SQL dialect against a discovered
// table), and Q2NL (the operator the data planner injects to turn a query
// fragment into a natural-language prompt for an LLM data source, §V-G).
//
// NL2Q is deliberately rule-based rather than LLM-backed: the paper's case
// study treats NL2Q as a registered enterprise model ("the NL2Q agent
// identifies a suitable database query", §VI), and a deterministic parser
// both reproduces that role and keeps every experiment reproducible.
package nlq

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Intents used across the case study (§VI: the Intent Classifier responds
// with the identified intent; "open_query" is the catch-all).
var StandardIntents = []string{
	"job_search", "summarize", "rank", "profile", "career_advice", "smalltalk", "open_query",
}

// Target describes the table NL2Q compiles against, as discovered from the
// data registry.
type Target struct {
	// Table is the SQL table name.
	Table string
	// Columns are the table's column names.
	Columns []string
	// NumericColumns flags which columns support comparisons.
	NumericColumns []string
	// TextColumns flags which columns hold text (LIKE-able).
	TextColumns []string
	// Hints is the gazetteer of known column values, letting the parser
	// ground multiword values like "San Francisco". Compile tries them in
	// slice order and keeps the first match per column, so the order must
	// put longer values first ("San Francisco" before "Francisco") and be
	// the same on every call: it fixes the order of the WHERE conjuncts.
	Hints []Hint
	// DefaultTextColumn receives unattached quoted phrases.
	DefaultTextColumn string
}

// Hint is one known (column, value) pair of a Target's gazetteer.
type Hint struct {
	Column, Value string
}

// Compiled is the result of NL2Q.
type Compiled struct {
	// SQL is the generated statement.
	SQL string
	// Confidence in [0,1] grows with the number of grounded fragments.
	Confidence float64
	// Explanation lists the recognized fragments, for transparency.
	Explanation []string
}

// Compile translates a natural-language question into SQL against the
// target. It recognizes aggregates (count/average/sum/min/max), column
// comparisons, grounded values, grouping ("per <col>"), ordering
// ("top N by <col>", "sorted by"), and limits.
func Compile(query string, tgt Target) (Compiled, error) {
	if tgt.Table == "" {
		return Compiled{}, fmt.Errorf("nlq: target table required")
	}
	q := strings.ToLower(query)
	q = strings.TrimSuffix(strings.TrimSpace(q), "?")
	var (
		where    []string
		explain  []string
		groupBy  string
		orderBy  string
		desc     bool
		limit    = -1
		selectCl = "*"
		grounded = 0
	)

	has := func(col string) bool {
		for _, c := range tgt.Columns {
			if strings.EqualFold(c, col) {
				return true
			}
		}
		return false
	}
	isNumeric := func(col string) bool {
		for _, c := range tgt.NumericColumns {
			if strings.EqualFold(c, col) {
				return true
			}
		}
		return false
	}

	// --- Aggregates ---
	aggDetected := false
	switch {
	case strings.Contains(q, "how many") || strings.HasPrefix(q, "count") || strings.Contains(q, "number of"):
		selectCl = "COUNT(*) AS n"
		aggDetected = true
		explain = append(explain, "aggregate: COUNT(*)")
		grounded++
	default:
		for _, agg := range []struct{ cue, fn string }{
			{"average", "AVG"}, {"avg", "AVG"}, {"mean", "AVG"},
			{"total", "SUM"}, {"sum of", "SUM"},
			{"highest", "MAX"}, {"maximum", "MAX"},
			{"lowest", "MIN"}, {"minimum", "MIN"},
		} {
			if idx := strings.Index(q, agg.cue); idx >= 0 {
				col := firstColumnAfter(q[idx:], tgt.Columns)
				if col != "" && isNumeric(col) {
					selectCl = fmt.Sprintf("%s(%s) AS %s_%s", agg.fn, col, strings.ToLower(agg.fn), col)
					aggDetected = true
					explain = append(explain, fmt.Sprintf("aggregate: %s(%s)", agg.fn, col))
					grounded++
					break
				}
			}
		}
	}

	// --- Grouping: "per <col>" / "by <col>" with an aggregate ---
	if aggDetected {
		for _, cue := range []string{" per ", " by ", " for each ", " grouped by "} {
			if idx := strings.Index(q, cue); idx >= 0 {
				col := firstColumnAfter(q[idx:], tgt.Columns)
				if col != "" {
					groupBy = col
					selectCl = col + ", " + selectCl
					explain = append(explain, "group by: "+col)
					grounded++
					break
				}
			}
		}
	}

	// --- Numeric comparisons ---
	for _, cmp := range []struct{ cue, op string }{
		{"greater than or equal to", ">="}, {"less than or equal to", "<="},
		{"at least", ">="}, {"at most", "<="},
		{"more than", ">"}, {"greater than", ">"}, {"over", ">"}, {"above", ">"},
		{"less than", "<"}, {"under", "<"}, {"below", "<"},
		{"equal to", "="}, {"exactly", "="},
	} {
		idx := 0
		rest := q
		for {
			i := strings.Index(rest, cmp.cue)
			if i < 0 {
				break
			}
			abs := idx + i
			num, ok := firstNumberAfter(q[abs+len(cmp.cue):])
			if ok {
				col := lastNumericColumnBefore(q[:abs], tgt)
				if col == "" {
					col = firstColumnAfter(q[abs:], tgt.Columns)
					if col != "" && !isNumeric(col) {
						col = ""
					}
				}
				if col != "" {
					cond := fmt.Sprintf("%s %s %s", col, cmp.op, num)
					if !slices.Contains(where, cond) {
						where = append(where, cond)
						explain = append(explain, "filter: "+cond)
						grounded++
					}
				}
			}
			idx = abs + len(cmp.cue)
			rest = q[idx:]
		}
	}

	// --- Grounded values from hints (multiword capable) ---
	used := map[string]bool{}
	for _, h := range tgt.Hints {
		if used[h.Column] {
			continue
		}
		if strings.Contains(q, strings.ToLower(h.Value)) {
			where = append(where, fmt.Sprintf("%s = '%s'", h.Column, escape(h.Value)))
			explain = append(explain, fmt.Sprintf("filter: %s = %s (grounded)", h.Column, h.Value))
			used[h.Column] = true
			grounded++
		}
	}

	// --- "with <textcol> <value>" / "<textcol> is <value>" patterns ---
	for _, col := range tgt.TextColumns {
		if used[col] {
			continue
		}
		lc := strings.ToLower(col)
		for _, pat := range []string{lc + " is ", lc + " = ", "with " + lc + " ", lc + " of "} {
			if idx := strings.Index(q, pat); idx >= 0 {
				val := firstWordAfter(q[idx+len(pat):])
				if val != "" {
					where = append(where, fmt.Sprintf("%s = '%s'", col, escape(val)))
					explain = append(explain, fmt.Sprintf("filter: %s = %s", col, val))
					used[col] = true
					grounded++
					break
				}
			}
		}
	}

	// --- Quoted phrases -> LIKE on default text column ---
	for _, phrase := range quotedPhrases(query) {
		col := tgt.DefaultTextColumn
		if col == "" && len(tgt.TextColumns) > 0 {
			col = tgt.TextColumns[0]
		}
		if col != "" {
			where = append(where, fmt.Sprintf("%s LIKE '%%%s%%'", col, escape(phrase)))
			explain = append(explain, fmt.Sprintf("filter: %s LIKE %%%s%%", col, phrase))
			grounded++
		}
	}

	// --- Ordering: "top N by col", "sorted by col", "best" ---
	if idx := strings.Index(q, "top "); idx >= 0 {
		if num, ok := firstNumberAfter(q[idx+4:]); ok {
			if n, err := strconv.Atoi(num); err == nil {
				limit = n
				explain = append(explain, fmt.Sprintf("limit: %d", n))
				grounded++
			}
		}
		if col := firstColumnAfter(q[idx:], tgt.Columns); col != "" && isNumeric(col) {
			orderBy, desc = col, true
			explain = append(explain, "order: "+col+" desc")
		}
	}
	for _, cue := range []string{"sorted by ", "ordered by ", "order by "} {
		if idx := strings.Index(q, cue); idx >= 0 {
			if col := firstColumnAfter(q[idx:], tgt.Columns); col != "" {
				orderBy = col
				desc = strings.Contains(q[idx:], "desc") || strings.Contains(q[idx:], "highest")
				explain = append(explain, "order: "+col)
				grounded++
			}
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "SELECT %s FROM %s", selectCl, tgt.Table)
	if len(where) > 0 {
		sb.WriteString(" WHERE " + strings.Join(where, " AND "))
	}
	if groupBy != "" {
		sb.WriteString(" GROUP BY " + groupBy)
	}
	if orderBy != "" {
		sb.WriteString(" ORDER BY " + orderBy)
		if desc {
			sb.WriteString(" DESC")
		}
	}
	if limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", limit)
	}

	conf := 0.2 + 0.2*float64(grounded)
	if conf > 0.95 {
		conf = 0.95
	}
	_ = has
	return Compiled{SQL: sb.String(), Confidence: conf, Explanation: explain}, nil
}

func escape(s string) string { return strings.ReplaceAll(s, "'", "''") }

// firstColumnAfter finds the first known column name appearing in text.
func firstColumnAfter(text string, columns []string) string {
	best, bestIdx := "", len(text)+1
	for _, c := range columns {
		idx := strings.Index(text, strings.ToLower(c))
		if idx >= 0 && idx < bestIdx {
			best, bestIdx = c, idx
		}
	}
	return best
}

// lastNumericColumnBefore finds the numeric column mentioned closest to the
// end of text.
func lastNumericColumnBefore(text string, tgt Target) string {
	best, bestIdx := "", -1
	for _, c := range tgt.NumericColumns {
		idx := strings.LastIndex(text, strings.ToLower(c))
		if idx > bestIdx {
			best, bestIdx = c, idx
		}
	}
	return best
}

// firstNumberAfter returns the first number among the next four words as a
// literal the SQL lexer accepts: unsigned decimal digits with at most one
// '.', integers within int64. Plain integers pass verbatim; anything else
// strconv reads as a finite non-negative number ("1e5", "+5", ".5", "180k")
// is rewritten in that form, and the rest ("inf", "nan", "-5") is skipped.
func firstNumberAfter(text string) (string, bool) {
	fields := strings.Fields(text)
	for _, f := range fields[:min(len(fields), 4)] {
		f = strings.TrimRight(strings.Trim(f, ",;:$"), ".")
		f = strings.ReplaceAll(f, ",", "")
		if _, err := strconv.ParseUint(f, 10, 63); err == nil {
			return f, true
		}
		n, err := strconv.ParseFloat(f, 64)
		if err != nil && strings.HasSuffix(f, "k") { // "180k" -> 180000
			n, err = strconv.ParseFloat(strings.TrimSuffix(f, "k"), 64)
			n *= 1000
		}
		if err != nil || math.IsNaN(n) || math.IsInf(n, 0) || math.Signbit(n) {
			continue
		}
		lit := strconv.FormatFloat(n, 'f', -1, 64)
		if _, err := strconv.ParseInt(lit, 10, 64); err == nil || strings.Contains(lit, ".") {
			return lit, true
		}
	}
	return "", false
}

func firstWordAfter(text string) string {
	fields := strings.Fields(text)
	if len(fields) == 0 {
		return ""
	}
	return strings.Trim(fields[0], ",.;:'\"")
}

func quotedPhrases(text string) []string {
	var out []string
	for {
		i := strings.IndexByte(text, '\'')
		if i < 0 {
			break
		}
		j := strings.IndexByte(text[i+1:], '\'')
		if j < 0 {
			break
		}
		out = append(out, text[i+1:i+1+j])
		text = text[i+j+2:]
	}
	return out
}

// Q2NL renders a structured sub-query as a natural-language prompt for an
// LLM data source — the operator the data planner injects when a query
// fragment cannot be answered from enterprise data (§V-G, Fig. 7).
func Q2NL(operation, argument string) string {
	switch operation {
	case "cities_in_region":
		return "list the cities in the " + argument
	case "related_titles":
		return "list the titles related to " + argument
	case "skills_for_title":
		return "list the skills for a " + argument
	default:
		return "list " + operation + " for " + argument
	}
}
