package hragents

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"blueprint/internal/agent"
	"blueprint/internal/dataplan"
	"blueprint/internal/nlq"
	"blueprint/internal/obs"
	"blueprint/internal/planner"
	"blueprint/internal/registry"
)

// ---------------------------------------------------------------- Intent Classifier

func (s *Suite) intentClassifierSpec() registry.AgentSpec {
	return registry.AgentSpec{
		Name:        IntentClassifier,
		Description: "classifies user utterances into intents: job search, open-ended query, summarize, rank, profile, career advice",
		Inputs:      []registry.ParamSpec{{Name: "UTTERANCE", Type: "text"}},
		Outputs:     []registry.ParamSpec{{Name: "INTENT", Type: "json", Description: "intent label with the original utterance"}},
		Listen:      registry.ListenRule{IncludeTags: []string{"utterance"}},
		QoS:         registry.QoSProfile{CostPerCall: 0.0005, Latency: 10e6, Accuracy: 0.92},
	}
}

// intentClassifierProc classifies and re-emits the utterance with its
// intent, tagged "intent", which the Agentic Employer listens for (Fig. 10
// step 2).
func (s *Suite) intentClassifierProc() agent.Processor {
	return func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		utterance, _ := inv.Inputs["UTTERANCE"].(string)
		label, usage := s.Model.Classify(utterance, nlq.StandardIntents)
		return agent.Outputs{
			Values: map[string]any{"INTENT": map[string]any{"intent": label, "utterance": utterance}},
			Tags:   []string{TagIntent},
			Usage:  agent.Usage{Cost: usage.Cost, Latency: usage.Latency, Accuracy: s.Model.Config().Accuracy},
		}, nil
	}
}

// ---------------------------------------------------------------- Agentic Employer

func (s *Suite) agenticEmployerSpec() registry.AgentSpec {
	return registry.AgentSpec{
		Name:        AgenticEmployer,
		Description: "application driver for employers: first receiver of UI events and classified intents, routes work to other agents",
		Inputs:      []registry.ParamSpec{{Name: "SIGNAL", Type: "json", Description: "UI event or classified intent"}},
		Outputs: []registry.ParamSpec{
			{Name: "QUERY", Type: "text", Description: "open query forwarded to NL2Q, tagged NLQ"},
			{Name: "JOB_ID", Type: "int", Description: "selected job id"},
			{Name: "PLAN", Type: "plan", Description: "task plan for the coordinator"},
		},
		Listen: registry.ListenRule{IncludeTags: []string{"ui", TagIntent}},
		QoS:    registry.QoSProfile{CostPerCall: 0.0002, Accuracy: 0.98},
	}
}

// agenticEmployerProc is the main application logic of §VI: UI events
// become Summarizer plans (Fig. 9 step 2); open-query intents become
// NLQ-tagged messages for the NL2Q agent (Fig. 10 step 3); summarize
// intents extract the job id and plan the Summarizer; rank intents plan the
// Ranker.
func (s *Suite) agenticEmployerProc() agent.Processor {
	return func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		signal, _ := inv.Inputs["SIGNAL"].(map[string]any)
		if signal == nil {
			return agent.Outputs{}, fmt.Errorf("agentic employer: no signal payload")
		}
		if action, ok := signal["action"].(string); ok {
			return s.handleUIEvent(action, signal)
		}
		if intent, ok := signal["intent"].(string); ok {
			utterance, _ := signal["utterance"].(string)
			return s.handleIntent(intent, utterance)
		}
		return agent.Outputs{}, fmt.Errorf("agentic employer: unrecognized signal %v", signal)
	}
}

func (s *Suite) handleUIEvent(action string, event map[string]any) (agent.Outputs, error) {
	switch action {
	case "select_job":
		id := asInt(event["job_id"])
		plan := summarizerPlan(id)
		return agent.Outputs{
			Values: map[string]any{
				"JOB_ID": id,
				"PLAN":   plan,
			},
			Tags: []string{TagJobID, "plan"},
		}, nil
	default:
		return agent.Outputs{}, fmt.Errorf("agentic employer: unknown UI action %q", action)
	}
}

func (s *Suite) handleIntent(intent, utterance string) (agent.Outputs, error) {
	switch intent {
	case "summarize":
		id := extractJobID(utterance)
		plan := summarizerPlan(id)
		return agent.Outputs{
			Values: map[string]any{"JOB_ID": id, "PLAN": plan},
			Tags:   []string{TagJobID, "plan"},
		}, nil
	case "rank":
		id := extractJobID(utterance)
		plan := &planner.Plan{
			ID: fmt.Sprintf("ae-rank-%d", id), Utterance: utterance, Intent: "rank",
			Steps: []planner.Step{{
				ID: "s1", Agent: Ranker, Task: "rank applicants for a job",
				Bindings: map[string]planner.Binding{"JOB_ID": {Value: id}},
			}},
		}
		return agent.Outputs{
			Values: map[string]any{"JOB_ID": id, "PLAN": plan},
			Tags:   []string{TagJobID, "plan"},
		}, nil
	case "career_advice":
		plan := &planner.Plan{
			ID: "ae-advice", Utterance: utterance, Intent: "career_advice",
			Steps: []planner.Step{{
				ID: "s1", Agent: Advisor, Task: "provide career advice",
				Bindings: map[string]planner.Binding{"QUESTION": {Value: utterance}},
			}},
		}
		return agent.Outputs{
			Values: map[string]any{"PLAN": plan},
			Tags:   []string{"plan"},
		}, nil
	default:
		// Open-ended query: tag it NLQ; the NL2Q agent picks it up
		// (Fig. 10 step 3).
		return agent.Outputs{
			Values: map[string]any{"QUERY": utterance},
			Tags:   []string{TagNLQ},
		}, nil
	}
}

// summarizerPlan builds the one-step plan AE emits for the coordinator
// (Fig. 9: "creates a plan to invoke a Summarizer agent").
func summarizerPlan(jobID int) *planner.Plan {
	return &planner.Plan{
		ID: fmt.Sprintf("ae-summarize-%d", jobID), Utterance: fmt.Sprintf("summarize job %d", jobID), Intent: "summarize",
		Steps: []planner.Step{{
			ID: "s1", Agent: Summarizer, Task: "summarize applicants for the selected job",
			Bindings: map[string]planner.Binding{"JOB_ID": {Value: jobID}},
		}},
	}
}

// extractJobID returns the first number among the utterance's words, or 1.
func extractJobID(utterance string) int {
	for _, f := range strings.Fields(utterance) {
		if n, ok := leadingInt(strings.Trim(f, ".,?!")); ok {
			return n
		}
	}
	return 1
}

// leadingInt reads the integer a word starts with, as fmt.Sscanf(f, "%d", &n)
// does: an optional sign, then the longest run of digits, which must fit an
// int64 (an overflow rejects the word); whatever follows the run ("12th") is
// ignored.
func leadingInt(f string) (int, bool) {
	end := 0
	if end < len(f) && (f[0] == '+' || f[0] == '-') {
		end++
	}
	start := end
	for end < len(f) && '0' <= f[end] && f[end] <= '9' {
		end++
	}
	if end == start {
		return 0, false
	}
	n, err := strconv.ParseInt(f[:end], 10, 64)
	return int(n), err == nil
}

func asInt(v any) int {
	switch x := v.(type) {
	case int:
		return x
	case int64:
		return int(x)
	case float64:
		return int(x)
	default:
		return 0
	}
}

// ---------------------------------------------------------------- NL2Q

func (s *Suite) nl2qSpec() registry.AgentSpec {
	return registry.AgentSpec{
		Name:        NL2Q,
		Description: "translate a natural language question into a SQL database query over discovered enterprise tables",
		Inputs:      []registry.ParamSpec{{Name: "NLQ", Type: "text"}},
		Outputs:     []registry.ParamSpec{{Name: "SQL", Type: "text"}},
		Listen:      registry.ListenRule{IncludeTags: []string{TagNLQ}},
		QoS:         registry.QoSProfile{CostPerCall: 0.002, Accuracy: 0.85},
		Cacheable:   true,
		Reads:       []string{"hr"},
	}
}

// nl2qProc discovers the best table for the question via the data registry,
// grounds the question against its live values, and emits SQL tagged "SQL"
// (Fig. 10 step 3).
func (s *Suite) nl2qProc() agent.Processor {
	return func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		q, _ := inv.Inputs["NLQ"].(string)
		// The planning step is spanned in its own component: table discovery
		// plus NLQ->SQL compilation is where a mistranslated question goes
		// wrong, so slow-ask exemplars must be able to point at it.
		_, sp := obs.StartSpan(ctx, "planner", "nl2q")
		table := s.discoverTable(q)
		sp.SetAttr("table", table)
		prof, built, err := s.Ent.DB.Profile(table)
		if err != nil {
			sp.End()
			return agent.Outputs{}, err
		}
		// An ask that follows a write to the table pays the profile rebuild.
		profile := "hit"
		if built {
			profile = "built"
		}
		sp.SetAttr("profile", profile)
		c, err := nlq.Compile(q, dataplan.TargetOf(prof))
		sp.End()
		if err != nil {
			return agent.Outputs{}, err
		}
		return agent.Outputs{
			Values: map[string]any{"SQL": c.SQL},
			Tags:   []string{TagSQL},
			Usage:  agent.Usage{Cost: 0.002, Accuracy: c.Confidence},
		}, nil
	}
}

// discoverTable picks the relational table whose registry metadata best
// matches the question, defaulting to jobs.
func (s *Suite) discoverTable(q string) string {
	hits := s.DataReg.Discover(q, 5)
	for _, h := range hits {
		if h.Asset.Level == registry.LevelTable && h.Asset.Kind == registry.KindRelational {
			parts := strings.Split(h.Asset.Name, ".")
			return parts[len(parts)-1]
		}
	}
	return "jobs"
}

// ---------------------------------------------------------------- SQLExecutor

func (s *Suite) sqlExecutorSpec() registry.AgentSpec {
	return registry.AgentSpec{
		Name:        SQLExecutor,
		Description: "execute a SQL database query against the enterprise relational databases and return rows",
		Inputs:      []registry.ParamSpec{{Name: "SQL", Type: "text"}},
		Outputs:     []registry.ParamSpec{{Name: "ROWS", Type: "rows"}},
		Listen:      registry.ListenRule{IncludeTags: []string{TagSQL}},
		QoS:         registry.QoSProfile{CostPerCall: 0.0001, Accuracy: 1.0},
		Cacheable:   true,
		Reads:       []string{"hr"},
	}
}

// sqlExecutorProc runs the tagged SQL (Fig. 10 step: "the SQL agent (QE)
// executes the query from NLQ output").
func (s *Suite) sqlExecutorProc() agent.Processor {
	return func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		sql, _ := inv.Inputs["SQL"].(string)
		// NL2Q output is templated per session: Query serves the parse from
		// the statement cache on repeat questions.
		res, err := s.Ent.DB.QueryContext(ctx, sql)
		if err != nil {
			return agent.Outputs{}, err
		}
		return agent.Outputs{
			Values: map[string]any{"ROWS": &QueryRows{Columns: res.Columns, Rows: res.Rows, SQL: sql}},
			Tags:   []string{TagRows},
		}, nil
	}
}

// ---------------------------------------------------------------- Query Summarizer

func (s *Suite) querySummarizerSpec() registry.AgentSpec {
	return registry.AgentSpec{
		Name:        QuerySummarizer,
		Description: "summarize and explain database query results for the user utilizing LLMs",
		Inputs:      []registry.ParamSpec{{Name: "ROWS", Type: "rows"}},
		Outputs:     []registry.ParamSpec{{Name: "SUMMARY", Type: "text"}},
		Listen:      registry.ListenRule{IncludeTags: []string{TagRows}},
		QoS:         registry.QoSProfile{CostPerCall: 0.005, Accuracy: 0.9},
		Cacheable:   true,
		Reads:       []string{"gpt-sim"},
	}
}

func (s *Suite) querySummarizerProc() agent.Processor {
	return func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		n, shown := describeRows(inv.Inputs["ROWS"])
		var b strings.Builder
		fmt.Fprintf(&b, "The query returned %d rows.", n)
		for _, r := range shown {
			fmt.Fprintf(&b, " %s.", r)
		}
		if n > summaryRows {
			fmt.Fprintf(&b, " (and %d more)", n-summaryRows)
		}
		summary, usage := s.Model.Summarize(b.String(), 60)
		return agent.Outputs{
			Values:  map[string]any{"SUMMARY": summary},
			Tags:    []string{TagSummary},
			Display: summary,
			Usage:   agent.Usage{Cost: usage.Cost, Latency: usage.Latency, Accuracy: s.Model.Config().Accuracy},
		}, nil
	}
}

// ---------------------------------------------------------------- Summarizer (Fig. 9)

func (s *Suite) summarizerSpec() registry.AgentSpec {
	return registry.AgentSpec{
		Name:        Summarizer,
		Description: "summarize applicants and status for a selected job posting",
		Inputs:      []registry.ParamSpec{{Name: "JOB_ID", Type: "int"}},
		Outputs:     []registry.ParamSpec{{Name: "SUMMARY", Type: "text"}},
		QoS:         registry.QoSProfile{CostPerCall: 0.005, Accuracy: 0.9},
		Cacheable:   true,
		Reads:       []string{"hr"},
	}
}

func (s *Suite) summarizerProc() agent.Processor {
	return func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		id := asInt(inv.Inputs["JOB_ID"])
		job, err := s.stmtJobSummary.QueryContext(ctx, id)
		if err != nil {
			return agent.Outputs{}, err
		}
		if len(job.Rows) == 0 {
			return agent.Outputs{}, fmt.Errorf("summarizer: job %d not found", id)
		}
		apps, err := s.stmtAppsByJob.QueryContext(ctx, id)
		if err != nil {
			return agent.Outputs{}, err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "Job %d: %s in %s paying %s.", id, job.Rows[0][0].S, job.Rows[0][1].S, job.Rows[0][2])
		for _, r := range apps.Rows {
			fmt.Fprintf(&b, " %s applicants: %s.", r[0].S, r[1])
		}
		summary, usage := s.Model.Summarize(b.String(), 50)
		return agent.Outputs{
			Values:  map[string]any{"SUMMARY": summary},
			Tags:    []string{TagSummary},
			Display: summary,
			Usage:   agent.Usage{Cost: usage.Cost, Latency: usage.Latency, Accuracy: s.Model.Config().Accuracy},
		}, nil
	}
}

// ---------------------------------------------------------------- Profiler (Fig. 6)

func (s *Suite) profilerSpec() registry.AgentSpec {
	return registry.AgentSpec{
		Name:        Profiler,
		Description: "presents a user profile UI form to collect job seeker profile information from the user",
		Inputs:      []registry.ParamSpec{{Name: "CRITERIA", Type: "text"}},
		Outputs:     []registry.ParamSpec{{Name: "JOBSEEKER_DATA", Type: "profile"}},
		QoS:         registry.QoSProfile{CostPerCall: 0.001, Accuracy: 0.95},
		// Deliberately NOT Cacheable: presenting the profile form
		// (Outputs.Display) is a UI side effect the runtime publishes on
		// every invocation; a memo hit would skip it and the form would
		// never reach the user on warm asks.
	}
}

// profilerProc builds a job-seeker profile from the criteria: title and
// location extracted via the model, skills suggested from the knowledge
// base. The declarative UI form it would render is published to the display
// stream (§V-B: "agents can also generate UI forms ... specified
// declaratively").
func (s *Suite) profilerProc() agent.Processor {
	return func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		criteria, _ := inv.Inputs["CRITERIA"].(string)
		title, u1 := s.Model.Extract("title", criteria)
		location, u2 := s.Model.Extract("location", criteria)
		skills := s.Ent.KB.SkillsFor(title)
		profile := map[string]any{
			"criteria": criteria,
			"title":    title,
			"location": location,
			"skills":   skills,
		}
		form := fmt.Sprintf(`{"form":"profile","fields":[{"name":"title","value":%q},{"name":"location","value":%q}]}`, title, location)
		return agent.Outputs{
			Values:  map[string]any{"JOBSEEKER_DATA": profile},
			Display: form,
			Usage:   agent.Usage{Cost: u1.Cost + u2.Cost, Latency: u1.Latency + u2.Latency, Accuracy: s.Model.Config().Accuracy},
		}, nil
	}
}

// ---------------------------------------------------------------- JobMatcher (Fig. 6)

func (s *Suite) jobMatcherSpec() registry.AgentSpec {
	return registry.AgentSpec{
		Name:        JobMatcher,
		Description: "assess the match quality between a job seeker profile and specific jobs, ranking the matches",
		Inputs: []registry.ParamSpec{
			{Name: "JOBSEEKER_DATA", Type: "profile"},
			{Name: "LIMIT", Type: "int", Optional: true, Default: 10},
		},
		Outputs:   []registry.ParamSpec{{Name: "MATCHES", Type: "rows"}},
		QoS:       registry.QoSProfile{CostPerCall: 0.02, Accuracy: 0.9},
		Cacheable: true,
		// The matcher plans over hr.jobs, expands titles through the
		// taxonomy graph and scores with the LLM source (Fig. 7).
		Reads: []string{"hr", "taxonomy", "gpt-sim"},
	}
}

// jobMatcherProc retrieves candidate jobs through the data planner (the
// Fig. 7 plan: region -> LLM cities, title -> taxonomy expansion, then
// select) and scores each against the profile with the model.
func (s *Suite) jobMatcherProc() agent.Processor {
	return func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		profile, _ := inv.Inputs["JOBSEEKER_DATA"].(map[string]any)
		if profile == nil {
			return agent.Outputs{}, fmt.Errorf("jobmatcher: missing profile")
		}
		criteria, _ := profile["criteria"].(string)
		limit := asInt(inv.Inputs["LIMIT"])
		if limit <= 0 {
			limit = 10
		}
		tgt, err := dataplan.BuildTarget(s.Ent.DB, "jobs")
		if err != nil {
			return agent.Outputs{}, err
		}
		asset, err := s.DataReg.Get("hr.jobs")
		if err != nil {
			return agent.Outputs{}, err
		}
		bind := dataplan.TableBinding{Asset: asset, Target: tgt}
		// Plan as ourselves: data governance (asset grants) binds agents.
		plan, err := s.DataPlanner.PlanFor(JobMatcher, criteria, bind, "taxonomy")
		if err != nil {
			return agent.Outputs{}, err
		}
		res, err := s.exec.Execute(plan)
		if err != nil {
			return agent.Outputs{}, err
		}
		type scored struct {
			row   map[string]any
			score float64
		}
		var cands []scored
		totalCost := res.Usage.Cost
		for _, row := range res.Rows {
			desc := fmt.Sprintf("%v in %v", row["title"], row["city"])
			score, u := s.Model.Score(criteria, desc)
			totalCost += u.Cost
			cands = append(cands, scored{row: row, score: score})
		}
		sort.SliceStable(cands, func(i, j int) bool {
			if cands[i].score != cands[j].score {
				return cands[i].score > cands[j].score
			}
			return fmt.Sprint(cands[i].row["id"]) < fmt.Sprint(cands[j].row["id"])
		})
		if len(cands) > limit {
			cands = cands[:limit]
		}
		matches := make([]any, 0, len(cands))
		for _, c := range cands {
			m := map[string]any{"score": c.score}
			for k, v := range c.row {
				m[k] = v
			}
			matches = append(matches, m)
		}
		return agent.Outputs{
			Values: map[string]any{"MATCHES": matches},
			Usage:  agent.Usage{Cost: totalCost, Latency: res.Usage.Latency, Accuracy: res.Usage.Accuracy},
		}, nil
	}
}

// ---------------------------------------------------------------- Presenter (Fig. 6)

func (s *Suite) presenterSpec() registry.AgentSpec {
	return registry.AgentSpec{
		Name:        Presenter,
		Description: "present the matched jobs and results to the end user as a readable rendering",
		Inputs:      []registry.ParamSpec{{Name: "MATCHES", Type: "rows"}},
		Outputs:     []registry.ParamSpec{{Name: "RENDERED", Type: "text"}},
		QoS:         registry.QoSProfile{CostPerCall: 0.0001, Accuracy: 1.0},
		Cacheable:   true,
	}
}

func (s *Suite) presenterProc() agent.Processor {
	return func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		matches, _ := inv.Inputs["MATCHES"].([]any)
		var b strings.Builder
		if len(matches) == 0 {
			b.WriteString("No matching jobs found.")
		}
		for i, m := range matches {
			mm, _ := m.(map[string]any)
			fmt.Fprintf(&b, "%d. %v in %v — salary %v (match %.2f)\n",
				i+1, mm["title"], mm["city"], mm["salary"], toFloat(mm["score"]))
		}
		out := b.String()
		return agent.Outputs{
			Values:  map[string]any{"RENDERED": out},
			Display: out,
		}, nil
	}
}

func toFloat(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int:
		return float64(x)
	case int64:
		return float64(x)
	default:
		return 0
	}
}

// ---------------------------------------------------------------- Ranker

func (s *Suite) rankerSpec() registry.AgentSpec {
	return registry.AgentSpec{
		Name:        Ranker,
		Description: "rank and cluster applicants for a job posting using predictive model scores",
		Inputs:      []registry.ParamSpec{{Name: "JOB_ID", Type: "int"}},
		Outputs:     []registry.ParamSpec{{Name: "RANKED", Type: "rows"}},
		QoS:         registry.QoSProfile{CostPerCall: 0.003, Accuracy: 0.93},
		Cacheable:   true,
		Reads:       []string{"hr"},
	}
}

func (s *Suite) rankerProc() agent.Processor {
	return func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		id := asInt(inv.Inputs["JOB_ID"])
		res, err := s.stmtTopApps.QueryContext(ctx, id)
		if err != nil {
			return agent.Outputs{}, err
		}
		rows := res.Maps()
		var b strings.Builder
		fmt.Fprintf(&b, "Top applicants for job %d:\n", id)
		for i, r := range rows {
			fmt.Fprintf(&b, "%d. %v (status %v, score %.2f)\n", i+1, r["profile_id"], r["status"], toFloat(r["score"]))
		}
		return agent.Outputs{
			Values:  map[string]any{"RANKED": rows},
			Display: b.String(),
		}, nil
	}
}

// ---------------------------------------------------------------- Advisor

func (s *Suite) advisorSpec() registry.AgentSpec {
	return registry.AgentSpec{
		Name:        Advisor,
		Description: "provide career advice and skill recommendations for job seekers",
		Inputs:      []registry.ParamSpec{{Name: "QUESTION", Type: "text"}},
		Outputs:     []registry.ParamSpec{{Name: "ADVICE", Type: "text"}},
		QoS:         registry.QoSProfile{CostPerCall: 0.008, Accuracy: 0.88},
		Cacheable:   true,
		Reads:       []string{"gpt-sim"},
	}
}

func (s *Suite) advisorProc() agent.Processor {
	return func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		q, _ := inv.Inputs["QUESTION"].(string)
		advice, usage := s.Model.Generate("career advice: " + q)
		return agent.Outputs{
			Values:  map[string]any{"ADVICE": advice},
			Display: advice,
			Usage:   agent.Usage{Cost: usage.Cost, Latency: usage.Latency, Accuracy: s.Model.Config().Accuracy},
		}, nil
	}
}

// ---------------------------------------------------------------- Moderator

func (s *Suite) moderatorSpec() registry.AgentSpec {
	return registry.AgentSpec{
		Name:        Moderator,
		Description: "content moderation guardrail: blocks unsafe or offensive generated text before display",
		Inputs:      []registry.ParamSpec{{Name: "TEXT", Type: "text"}},
		Outputs:     []registry.ParamSpec{{Name: "VERDICT", Type: "json"}},
		QoS:         registry.QoSProfile{CostPerCall: 0.0003, Accuracy: 0.97},
		Cacheable:   true,
	}
}

var blocklist = []string{"offensive", "slur", "ssn", "password", "credit card"}

func (s *Suite) moderatorProc() agent.Processor {
	return func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		text, _ := inv.Inputs["TEXT"].(string)
		lower := strings.ToLower(text)
		for _, bad := range blocklist {
			if strings.Contains(lower, bad) {
				return agent.Outputs{
					Values: map[string]any{"VERDICT": map[string]any{"allowed": false, "reason": "matched blocklist term: " + bad}},
				}, nil
			}
		}
		return agent.Outputs{
			Values: map[string]any{"VERDICT": map[string]any{"allowed": true}},
		}, nil
	}
}
