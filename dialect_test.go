package blueprint

import (
	"strings"
	"testing"
	"time"

	"blueprint/internal/agent"
	"blueprint/internal/dataplan"
	"blueprint/internal/graphstore"
	"blueprint/internal/hragents"
)

// TestEveryEmitterStaysInsideTheDialect: the relational dialect is sized to
// what the program emits (internal/relational/ARCHITECTURE.md, "Dialect"), so
// every emitter must stay inside it. One System, one session: the agent
// suite's prepared statements (parsed when the System was built), asks that
// reach every clause nlq.Compile can write, the decomposed data plan's
// IN-list select, a UI click and a write. A statement outside the dialect
// would fail its agent (an AGENT_ERROR directive and no answer).
func TestEveryEmitterStaysInsideTheDialect(t *testing.T) {
	sys := newSystem(t)
	db := sys.Enterprise.DB
	db.ResetCacheStats()
	s, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Each clause nlq.Compile writes, with the ask that makes it write it.
	for _, a := range []struct{ ask, clause string }{
		{"How many jobs are in San Francisco?", "SELECT COUNT(*) AS n FROM jobs WHERE city = 'San Francisco'"},
		{"What is the average salary of jobs in Oakland?", "AVG(salary)"},
		{"What is the total salary of jobs per city?", "SUM(salary)"},
		{"What is the highest salary of jobs in Seattle?", "MAX(salary)"},
		{"What is the lowest salary of jobs in Seattle?", "MIN(salary)"},
		{"How many jobs are there per city?", "GROUP BY city"},
		{"Show jobs with salary at least 150000", "salary >= 150000"},
		{"Show jobs with salary at most 120000", "salary <= 120000"},
		{"Show jobs with salary more than 200000", "salary > 200000"},
		{"Show jobs with salary less than 100000", "salary < 100000"},
		{"Show jobs with salary exactly 150000", "salary = 150000"},
		{"Show jobs titled 'data' in Oakland", "LIKE '%data%'"},
		{"Show the top 5 jobs by salary", "ORDER BY salary DESC LIMIT 5"},
		{"Show a list of which jobs are in Oakland, sorted by salary", "city = 'Oakland' ORDER BY salary"},
		{"Show a list of which jobs are in Oakland, sorted by salary descending", "ORDER BY salary DESC"},
	} {
		before := len(nl2qSQL(s))
		if _, err := s.Ask(a.ask, 10*time.Second); err != nil {
			t.Errorf("%q: %v", a.ask, err)
		}
		if sqls := nl2qSQL(s); len(sqls) != before+1 {
			t.Errorf("%q did not go through NL2Q", a.ask)
		} else if sql := sqls[before]; !strings.Contains(sql, a.clause) {
			t.Errorf("%q compiled to %q, which lacks %q: the ask no longer reaches that branch of nlq.Compile", a.ask, sql, a.clause)
		}
	}

	// Planned asks: the click runs the Summarizer's two prepared statements,
	// the rank ask the Ranker's. A planned ask's answer is followed by the
	// coordinator's own result on the same stream; let it land before the
	// next ask starts waiting (ROADMAP item 1).
	if out, err := s.Click(map[string]any{"action": "select_job", "job_id": 5}, 10*time.Second); err != nil || !strings.Contains(out, "Job 5") {
		t.Errorf("click: %q, %v", out, err)
	}
	for deadline := time.Now().Add(10 * time.Second); !coordinatorPublished(s); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the coordinator never published the click's result")
		}
	}
	if out, err := s.Ask("Rank the applicants for job 3", 10*time.Second); err != nil || !strings.Contains(out, "Top applicants for job 3") {
		t.Errorf("rank ask: %q, %v", out, err)
	}
	// The fourth prepared statement has no agent that runs it.
	if res, err := db.Query(`SELECT * FROM jobs WHERE id = ?`, 3); err != nil || len(res.Rows) != 1 {
		t.Errorf("job by id: %v, %v", res, err)
	}

	// The decomposed data plan (Fig. 7) combines its sources through an IN
	// list, not a join.
	tgt, err := dataplan.BuildTarget(db, "jobs")
	if err != nil {
		t.Fatal(err)
	}
	asset, err := sys.DataRegistry.Get("hr.jobs")
	if err != nil {
		t.Fatal(err)
	}
	bind := dataplan.TableBinding{Asset: asset, Target: tgt}
	const query = "data scientist position in SF bay area"
	plan, err := sys.DataPlanner.PlanDecomposed(query, bind, sys.DataPlanner.Analyze(query, bind), "taxonomy")
	if err != nil {
		t.Fatal(err)
	}
	res, err := dataplan.NewExecutor(dataplan.Sources{
		Relational: db,
		Graphs:     map[string]*graphstore.Graph{"taxonomy": sys.Enterprise.Graph},
		Model:      sys.Model,
	}).Execute(plan)
	if err != nil || len(res.Rows) == 0 {
		t.Errorf("decomposed plan: %d rows, %v\n%s", len(res.Rows), err, plan)
	}
	if !strings.Contains(plan.String(), string(dataplan.OpSelectIn)) {
		t.Errorf("the decomposed plan has no %s node:\n%s", dataplan.OpSelectIn, plan)
	}

	// The write every benchmark workload with a DataDir issues.
	if n, err := db.Exec(`UPDATE applications SET status = 'offer' WHERE id = 7`); err != nil || n != 1 {
		t.Errorf("UPDATE: %d rows, %v", n, err)
	}

	for _, m := range s.History() {
		if d := m.Directive; d != nil && d.Op == agent.OpAgentError {
			t.Errorf("%s failed: %v", d.Agent, d.Args["error"])
		}
	}
	// Every statement above had a shape: Uncacheable counts DDL (and a text
	// on which the fingerprint sweep and the parser disagree), and the run
	// issued none.
	if st := db.CacheStats(); st.Uncacheable != 0 || st.Hits+st.Misses == 0 {
		t.Errorf("cache stats after the run: %+v, want every statement shaped and cached", st)
	}
}

// coordinatorPublished reports whether the session's coordinator has put a
// plan's final outputs on the display stream.
func coordinatorPublished(s *Session) bool {
	for _, m := range s.History() {
		if m.Sender == "coordinator" && m.Directive == nil {
			return true
		}
	}
	return false
}

// nl2qSQL returns the statements the session's NL2Q agent has emitted.
func nl2qSQL(s *Session) []string {
	var out []string
	for _, m := range s.History() {
		if sql, ok := m.Payload.(string); ok && m.Sender == hragents.NL2Q {
			out = append(out, sql)
		}
	}
	return out
}
