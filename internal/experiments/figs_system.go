package experiments

import (
	"fmt"
	"sync"
	"time"

	"blueprint"
	"blueprint/internal/agent"
	"blueprint/internal/budget"
	"blueprint/internal/hragents"
	"blueprint/internal/streams"
	"blueprint/internal/trace"
)

func newSys(seed int64) (*blueprint.System, error) {
	return blueprint.New(blueprint.Config{Seed: seed, ModelAccuracy: 1.0})
}

// Fig1EndToEnd measures the full blueprint loop (Fig. 1): user utterance ->
// intent -> NL2Q -> SQL -> summary -> display, at increasing session
// concurrency.
func Fig1EndToEnd(seed int64) (*Table, error) {
	t := &Table{ID: "F1", Title: "Blueprint architecture end-to-end (Fig. 1)"}
	for _, sessions := range []int{1, 2, 4} {
		sys, err := newSys(seed)
		if err != nil {
			return nil, err
		}
		const perSession = 4
		var wg sync.WaitGroup
		start := time.Now()
		errs := make(chan error, sessions)
		for i := 0; i < sessions; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s, err := sys.StartSession(fmt.Sprintf("session:f1-%d", i))
				if err != nil {
					errs <- err
					return
				}
				defer s.Close()
				for j := 0; j < perSession; j++ {
					if _, err := s.Ask("How many jobs are in San Francisco?", 30*time.Second); err != nil {
						errs <- err
						return
					}
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			sys.Close()
			return nil, err
		}
		elapsed := time.Since(start)
		total := sessions * perSession
		stats := sys.Store.StatsSnapshot()
		sys.Close()
		t.Rows = append(t.Rows, Row{
			Series: fmt.Sprintf("sessions=%d", sessions),
			Metrics: []Metric{
				{"requests", fmt.Sprint(total)},
				{"latency/req", ms(elapsed / time.Duration(total))},
				{"throughput", fmt.Sprintf("%.1f req/s", float64(total)/elapsed.Seconds())},
				{"stream_msgs", fmt.Sprint(stats.MessagesAppended)},
			},
		})
	}
	t.Notes = append(t.Notes, "every hop flows over streams; message counts grow linearly with sessions (isolation)")
	return t, nil
}

// Fig6TaskPlan measures the Fig. 6 running example: planning latency, plan
// shape, execution cost under the coordinator.
func Fig6TaskPlan(seed int64) (*Table, error) {
	sys, err := newSys(seed)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	s, err := sys.StartSession("")
	if err != nil {
		return nil, err
	}
	defer s.Close()

	const utterance = "I am looking for a data scientist position in SF bay area."
	planStart := time.Now()
	plan, err := sys.TaskPlanner.Plan(utterance)
	if err != nil {
		return nil, err
	}
	planLatency := time.Since(planStart)

	execStart := time.Now()
	res, _, err := s.ExecuteUtterance(utterance)
	if err != nil {
		return nil, err
	}
	execLatency := time.Since(execStart)

	agents := make([]string, len(plan.Steps))
	for i, st := range plan.Steps {
		agents[i] = st.Agent
	}
	t := &Table{ID: "F6", Title: "Task plan for the running example (Fig. 6)"}
	t.Rows = []Row{
		{Series: "planning", Metrics: []Metric{
			{"latency", ms(planLatency)},
			{"steps", fmt.Sprint(len(plan.Steps))},
			{"dag", fmt.Sprint(agents)},
		}},
		{Series: "execution", Metrics: []Metric{
			{"latency", ms(execLatency)},
			{"cost", dollars(res.Budget.CostSpent)},
			{"charges", fmt.Sprint(res.Budget.Charges)},
		}},
	}
	t.Notes = append(t.Notes, "DAG matches the paper: PROFILER -> JOBMATCHER -> PRESENTER with CRITERIA <- USER.TEXT")
	return t, nil
}

// Fig8Conversation replays a Fig. 8-style multi-turn employer conversation
// and reports per-turn latency.
func Fig8Conversation(seed int64) (*Table, error) {
	sys, err := newSys(seed)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	s, err := sys.StartSession("")
	if err != nil {
		return nil, err
	}
	defer s.Close()

	t := &Table{ID: "F8", Title: "Agentic Employer conversation (Fig. 8)"}
	turns := []struct {
		label string
		run   func() (string, error)
	}{
		{"click job 12", func() (string, error) {
			return s.Click(map[string]any{"action": "select_job", "job_id": 12}, 30*time.Second)
		}},
		{"count jobs SF", func() (string, error) {
			return s.Ask("How many jobs are in San Francisco?", 30*time.Second)
		}},
		{"avg salary/city", func() (string, error) {
			return s.Ask("average salary per city", 30*time.Second)
		}},
		{"rank job 12", func() (string, error) {
			return s.Ask("Rank the top candidates for job 12", 30*time.Second)
		}},
		{"summarize job 7", func() (string, error) {
			return s.Ask("Summarize the applicants for job 7", 30*time.Second)
		}},
	}
	for _, turn := range turns {
		start := time.Now()
		out, err := turn.run()
		if err != nil {
			return nil, fmt.Errorf("turn %q: %w", turn.label, err)
		}
		t.Rows = append(t.Rows, Row{
			Series: turn.label,
			Metrics: []Metric{
				{"latency", ms(time.Since(start))},
				{"chars", fmt.Sprint(len(out))},
			},
		})
	}
	flow := s.Flow()
	t.Notes = append(t.Notes,
		fmt.Sprintf("conversation produced %d stream messages across %d components", len(flow), len(trace.Senders(flow))))
	return t, nil
}

// fig9Pattern is the exact Fig. 9 sequence; S's step is its AGENT_DONE
// report, which carries the summary to the coordinator.
var fig9Pattern = []trace.Matcher{
	{Sender: "user", Tag: "ui", Kind: streams.Event},
	{Sender: hragents.AgenticEmployer, Tag: "plan", Kind: streams.Data},
	{Sender: "coordinator", Op: streams.OpExecuteAgent, Agent: hragents.Summarizer, Kind: streams.Control},
	{Sender: hragents.Summarizer, Op: agent.OpAgentDone, Kind: streams.Control},
}

// Fig9UIFlow verifies and measures the UI-initiated flow (Fig. 9):
// U -> AE -> TC -> S.
func Fig9UIFlow(seed int64) (*Table, error) {
	sys, err := newSys(seed)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	s, err := sys.StartSession("")
	if err != nil {
		return nil, err
	}
	defer s.Close()

	const n = 5
	var total time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := s.Click(map[string]any{"action": "select_job", "job_id": 10 + i}, 30*time.Second); err != nil {
			return nil, err
		}
		total += time.Since(start)
	}
	_, ok := trace.MatchSequence(s.Flow(), fig9Pattern)
	t := &Table{ID: "F9", Title: "Flow initiated from UI (Fig. 9): U -> AE -> TC -> S"}
	t.Rows = []Row{{Series: "ui-flow", Metrics: []Metric{
		{"clicks", fmt.Sprint(n)},
		{"latency/click", ms(total / n)},
		{"sequence_verified", fmt.Sprint(ok)},
	}}}
	if !ok {
		t.Notes = append(t.Notes, "WARNING: expected sender sequence not found")
	}
	return t, nil
}

// fig10Pattern is the exact Fig. 10 chain.
var fig10Pattern = []trace.Matcher{
	{Sender: "user", Tag: "utterance", Kind: streams.Data},
	{Sender: hragents.IntentClassifier, Tag: hragents.TagIntent, Kind: streams.Data},
	{Sender: hragents.AgenticEmployer, Tag: hragents.TagNLQ, Kind: streams.Data},
	{Sender: hragents.NL2Q, Tag: hragents.TagSQL, Kind: streams.Data},
	{Sender: hragents.SQLExecutor, Tag: hragents.TagRows, Kind: streams.Data},
	{Sender: hragents.QuerySummarizer, Tag: hragents.TagSummary, Kind: streams.Data},
}

// Fig10ConversationFlow verifies and measures the conversation-initiated
// flow (Fig. 10): U -> IC -> AE -> NL2Q -> QE -> QS.
func Fig10ConversationFlow(seed int64) (*Table, error) {
	sys, err := newSys(seed)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	s, err := sys.StartSession("")
	if err != nil {
		return nil, err
	}
	defer s.Close()

	const n = 5
	var total time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := s.Ask("How many jobs are in San Francisco?", 30*time.Second); err != nil {
			return nil, err
		}
		total += time.Since(start)
	}
	_, ok := trace.MatchSequence(s.Flow(), fig10Pattern)
	t := &Table{ID: "F10", Title: "Flow initiated from conversation (Fig. 10): U -> IC -> AE -> NL2Q -> QE -> QS"}
	t.Rows = []Row{{Series: "conv-flow", Metrics: []Metric{
		{"queries", fmt.Sprint(n)},
		{"latency/query", ms(total / n)},
		{"sequence_verified", fmt.Sprint(ok)},
	}}}
	if !ok {
		t.Notes = append(t.Notes, "WARNING: expected sender sequence not found")
	}
	return t, nil
}

// AblationBudget (§V-H) measures coordinator behaviour across budget
// levels: generous budgets complete, tight ones abort (projection or
// mid-plan).
func AblationBudget(seed int64) (*Table, error) {
	t := &Table{ID: "A1", Title: "Budget enforcement ablation (§V-H)"}
	for _, maxCost := range []float64{1.0, 0.05, 0.01, 0.0001} {
		sys, err := blueprint.New(blueprint.Config{
			Seed: seed, ModelAccuracy: 1.0,
			Budget: budget.Limits{MaxCost: maxCost},
		})
		if err != nil {
			return nil, err
		}
		s, err := sys.StartSession("")
		if err != nil {
			sys.Close()
			return nil, err
		}
		res, _, execErr := s.ExecuteUtterance("I am looking for a data scientist position in SF bay area.")
		outcome := "completed"
		steps := 0
		spent := 0.0
		if res != nil {
			steps = len(res.Steps)
			spent = res.Budget.CostSpent
			if res.Aborted {
				outcome = "aborted"
			}
		}
		if execErr != nil && res == nil {
			outcome = "failed"
		}
		s.Close()
		sys.Close()
		t.Rows = append(t.Rows, Row{
			Series: fmt.Sprintf("budget=%s", dollars(maxCost)),
			Metrics: []Metric{
				{"outcome", outcome},
				{"steps_run", fmt.Sprint(steps)},
				{"spent", dollars(spent)},
			},
		})
	}
	t.Notes = append(t.Notes, "tight budgets abort before or during execution; the ABORT control message is observable on streams")
	return t, nil
}
