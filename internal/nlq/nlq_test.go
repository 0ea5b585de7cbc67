package nlq

import (
	"strings"
	"testing"

	"blueprint/internal/relational"
)

// jobsTarget mirrors the hr.jobs table.
func jobsTarget() Target {
	return Target{
		Table:          "jobs",
		Columns:        []string{"id", "title", "city", "company_id", "salary", "remote"},
		NumericColumns: []string{"id", "salary", "company_id"},
		TextColumns:    []string{"title", "city"},
		// Grounding order: longest value first, then schema column, then value.
		Hints: []Hint{
			{"title", "Senior Data Scientist"}, {"title", "Software Engineer"}, {"title", "Data Scientist"},
			{"city", "San Francisco"}, {"title", "Data Analyst"}, {"title", "ML Engineer"}, {"city", "Palo Alto"},
			{"city", "Berkeley"}, {"city", "New York"}, {"city", "San Jose"}, {"city", "Oakland"}, {"city", "Seattle"},
		},
		DefaultTextColumn: "title",
	}
}

// execDB provides end-to-end validation: compiled SQL must actually run.
func execDB(t *testing.T) *relational.DB {
	t.Helper()
	db := relational.NewDB()
	stmts := []string{
		`CREATE TABLE jobs (id INT, title TEXT, city TEXT, company_id INT, salary INT, remote BOOL)`,
		`INSERT INTO jobs VALUES
			(1, 'Data Scientist', 'San Francisco', 1, 180000, FALSE),
			(2, 'Senior Data Scientist', 'Oakland', 1, 210000, TRUE),
			(3, 'ML Engineer', 'San Jose', 2, 190000, FALSE),
			(4, 'Data Analyst', 'New York', 3, 120000, FALSE),
			(5, 'Data Scientist', 'Palo Alto', 2, 185000, TRUE)`,
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func compileAndRun(t *testing.T, query string) (*relational.Result, Compiled) {
	t.Helper()
	c, err := Compile(query, jobsTarget())
	if err != nil {
		t.Fatalf("Compile(%q): %v", query, err)
	}
	db := execDB(t)
	res, err := db.Query(c.SQL)
	if err != nil {
		t.Fatalf("generated SQL %q failed: %v", c.SQL, err)
	}
	return res, c
}

func TestCountQuery(t *testing.T) {
	res, c := compileAndRun(t, "How many jobs are in San Francisco?")
	if !strings.Contains(c.SQL, "COUNT(*)") || !strings.Contains(c.SQL, "city = 'San Francisco'") {
		t.Fatalf("sql = %q", c.SQL)
	}
	if res.Rows[0][0].I != 1 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}

func TestAverageWithGroupBy(t *testing.T) {
	res, c := compileAndRun(t, "average salary per city")
	if !strings.Contains(c.SQL, "AVG(salary)") || !strings.Contains(c.SQL, "GROUP BY city") {
		t.Fatalf("sql = %q", c.SQL)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
}

func TestNumericComparison(t *testing.T) {
	res, c := compileAndRun(t, "jobs with salary over 185000")
	if !strings.Contains(c.SQL, "salary > 185000") {
		t.Fatalf("sql = %q", c.SQL)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestNumericComparisonKSuffix(t *testing.T) {
	_, c := compileAndRun(t, "positions with salary at least 190k")
	if !strings.Contains(c.SQL, "salary >= 190000") {
		t.Fatalf("sql = %q", c.SQL)
	}
}

// Number grounding emits only literals the SQL lexer accepts (unsigned
// decimal, integers within int64): the rest is rewritten or skipped, and
// every compiled statement executes.
func TestNumberGroundingEmitsLexableLiterals(t *testing.T) {
	for _, tc := range []struct{ word, want string }{ // want "" = no salary filter
		{"185000", "salary > 185000"},
		{"$180,000", "salary > 180000"},
		{"180k", "salary > 180000"},
		{"1e5", "salary > 100000"},
		{"+5", "salary > 5"},
		{".5", "salary > 0.5"},
		{"5.", "salary > 5"},
		{"007", "salary > 007"},
		{"inf", ""},
		{"infinity", ""},
		{"nan", ""},
		{"infk", ""},
		{"1_000", "salary > 1000"},
		{"-5", ""},
		{"-0", ""},
		{"1e400", ""},
		{"1e300", ""},
		{"99999999999999999999", ""},
	} {
		_, c := compileAndRun(t, "jobs with salary over "+tc.word)
		switch {
		case tc.want == "" && strings.Contains(c.SQL, "salary >"):
			t.Errorf("over %s: sql = %q, want no salary filter", tc.word, c.SQL)
		case tc.want != "" && !strings.HasSuffix(c.SQL, "WHERE "+tc.want):
			t.Errorf("over %s: sql = %q, want ... WHERE %s", tc.word, c.SQL, tc.want)
		}
	}
	// A skipped word does not hide a number behind it.
	if _, c := compileAndRun(t, "salary over inf 190000"); !strings.Contains(c.SQL, "salary > 190000") {
		t.Errorf("sql = %q", c.SQL)
	}
}

func TestGroundedTitleAndCity(t *testing.T) {
	res, c := compileAndRun(t, "data scientist roles in Oakland")
	if !strings.Contains(c.SQL, "title = 'Data Scientist'") && !strings.Contains(c.SQL, "title = 'Senior Data Scientist'") {
		t.Fatalf("sql = %q", c.SQL)
	}
	if !strings.Contains(c.SQL, "city = 'Oakland'") {
		t.Fatalf("sql = %q", c.SQL)
	}
	_ = res
}

func TestLongestHintWins(t *testing.T) {
	_, c := compileAndRun(t, "senior data scientist openings")
	if !strings.Contains(c.SQL, "title = 'Senior Data Scientist'") {
		t.Fatalf("sql = %q (longest grounding should win)", c.SQL)
	}
}

func TestTopNOrdering(t *testing.T) {
	res, c := compileAndRun(t, "top 2 jobs by salary")
	if !strings.Contains(c.SQL, "ORDER BY salary DESC") || !strings.Contains(c.SQL, "LIMIT 2") {
		t.Fatalf("sql = %q", c.SQL)
	}
	if len(res.Rows) != 2 || res.Rows[0][4].I != 210000 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSortedBy(t *testing.T) {
	_, c := compileAndRun(t, "all jobs sorted by salary")
	if !strings.Contains(c.SQL, "ORDER BY salary") {
		t.Fatalf("sql = %q", c.SQL)
	}
}

func TestQuotedPhraseLike(t *testing.T) {
	res, c := compileAndRun(t, "find roles mentioning 'Engineer'")
	if !strings.Contains(c.SQL, "title LIKE '%Engineer%'") {
		t.Fatalf("sql = %q", c.SQL)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestConfidenceGrowsWithGrounding(t *testing.T) {
	low, err := Compile("blargh", jobsTarget())
	if err != nil {
		t.Fatal(err)
	}
	high, err := Compile("how many data scientist jobs in San Francisco with salary over 100000", jobsTarget())
	if err != nil {
		t.Fatal(err)
	}
	if high.Confidence <= low.Confidence {
		t.Fatalf("confidence: high=%v low=%v", high.Confidence, low.Confidence)
	}
	if len(high.Explanation) < 3 {
		t.Fatalf("explanation = %v", high.Explanation)
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("anything", Target{}); err == nil {
		t.Fatal("missing table accepted")
	}
}

func TestEscapeInjection(t *testing.T) {
	tgt := jobsTarget()
	tgt.Hints = append(tgt.Hints, Hint{"city", "O'Brien Town"})
	c, err := Compile("jobs in o'brien town", tgt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.SQL, "O''Brien Town") {
		t.Fatalf("sql = %q", c.SQL)
	}
	// Must still parse.
	db := execDB(t)
	if _, err := db.Query(c.SQL); err != nil {
		t.Fatalf("escaped SQL failed: %v", err)
	}
}

func TestQ2NL(t *testing.T) {
	cases := []struct{ op, arg, want string }{
		{"cities_in_region", "sf bay area", "list the cities in the sf bay area"},
		{"related_titles", "data scientist", "list the titles related to data scientist"},
		{"skills_for_title", "ml engineer", "list the skills for a ml engineer"},
		{"companies", "biotech", "list companies for biotech"},
	}
	for _, c := range cases {
		if got := Q2NL(c.op, c.arg); got != c.want {
			t.Errorf("Q2NL(%q,%q) = %q, want %q", c.op, c.arg, got, c.want)
		}
	}
}

func TestNumberParsingHelpers(t *testing.T) {
	if n, ok := firstNumberAfter(" the value 42 here"); !ok || n != "42" {
		t.Fatalf("firstNumberAfter = %v %v", n, ok)
	}
	if n, ok := firstNumberAfter("salary of $180,000 annually"); !ok || n != "180000" {
		t.Fatalf("comma number = %v %v", n, ok)
	}
	if _, ok := firstNumberAfter("no numbers here at all"); ok {
		t.Fatal("matched non-number")
	}
	if got := quotedPhrases("say 'a' and 'b c'"); len(got) != 2 || got[1] != "b c" {
		t.Fatalf("quoted = %v", got)
	}
}
