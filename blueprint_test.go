package blueprint

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"blueprint/internal/agent"
	"blueprint/internal/budget"
	"blueprint/internal/hragents"
	"blueprint/internal/llm"
	"blueprint/internal/streams"
	"blueprint/internal/trace"
)

func newSystem(t testing.TB) *System {
	t.Helper()
	// Tests need deterministic routing, so pin a perfect model; accuracy
	// degradation is exercised explicitly in the benchmarks.
	sys, err := New(Config{ModelAccuracy: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

func TestNewDefaults(t *testing.T) {
	sys := newSystem(t)
	if sys.AgentRegistry.Len() != 13 { // 12 case-study agents + task planner
		t.Fatalf("agents = %d", sys.AgentRegistry.Len())
	}
	if sys.DataRegistry.Len() < 5 {
		t.Fatalf("data assets = %d", sys.DataRegistry.Len())
	}
	if sys.Model.Config().Tier != llm.TierLarge {
		t.Fatalf("tier = %s", sys.Model.Config().Tier)
	}
}

func TestFig1ArchitectureWiring(t *testing.T) {
	// The full Fig. 1 loop: user stream -> intent -> NL2Q -> SQL -> summary
	// -> display, through registries and streams only.
	sys := newSystem(t)
	s, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	out, err := s.Ask("How many jobs are in San Francisco?", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Summary:") {
		t.Fatalf("answer = %q", out)
	}
	// Observability: every hop is on the streams, in the exact Fig. 10
	// order U -> IC -> AE -> NL2Q -> QE -> QS. QS publishes its summary
	// before it displays it, so the chain is whole once Ask has returned.
	flow := s.Flow()
	if _, ok := trace.MatchSequence(flow, fig10Pattern); !ok {
		t.Fatalf("Fig. 10 sequence not found in the session's flow:\n%s", trace.Render(flow))
	}
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

// fig9Pattern is the exact Fig. 9 sequence; S's step is its AGENT_DONE
// report, which carries the summary to the coordinator.
var fig9Pattern = []trace.Matcher{
	{Sender: "user", Tag: "ui", Kind: streams.Event},
	{Sender: hragents.AgenticEmployer, Tag: "plan", Kind: streams.Data},
	{Sender: "coordinator", Op: streams.OpExecuteAgent, Agent: hragents.Summarizer, Kind: streams.Control},
	{Sender: hragents.Summarizer, Op: agent.OpAgentDone, Kind: streams.Control},
}

func TestClickFlow(t *testing.T) {
	sys := newSystem(t)
	s, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	out, err := s.Click(map[string]any{"action": "select_job", "job_id": 5}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Job 5") {
		t.Fatalf("click result = %q", out)
	}
	// The display output can arrive before the coordinator service records
	// its result; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.PlanResults()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("coordinator executed no plan")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Fig. 9: U (UI event) -> AE (job id + plan) -> TC (EXECUTE control) ->
	// S (its AGENT_DONE report). The plan's result is recorded after the
	// report it was read from, so the report is in the flow by now.
	flow := s.Flow()
	if _, ok := trace.MatchSequence(flow, fig9Pattern); !ok {
		t.Fatalf("Fig. 9 sequence not found in the session's flow:\n%s", trace.Render(flow))
	}
}

func TestExecuteUtteranceRunningExample(t *testing.T) {
	sys := newSystem(t)
	s, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, plan, err := s.ExecuteUtterance("I am looking for a data scientist position in SF bay area.")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Intent != "job_search" || len(plan.Steps) != 3 {
		t.Fatalf("plan = %s", plan)
	}
	rendered, _ := res.Final["RENDERED"].(string)
	if rendered == "" {
		t.Fatalf("final = %+v", res.Final)
	}
	// Every presented job is in the Fig. 7 ground truth by construction.
	if !strings.Contains(rendered, "match") {
		t.Fatalf("rendered = %q", rendered)
	}
	if res.Budget.CostSpent <= 0 || res.Budget.Charges < 3 {
		t.Fatalf("budget = %+v", res.Budget)
	}
}

// A planned open query runs each of its steps once: a step's outputs ride
// its report to the coordinator, so the SQL and ROWS they carry start no
// tag-listening agent of the session's Fig. 10 chain beside the plan. One
// AGENT_DONE per step, one SQLEXECUTOR and one QUERY_SUMMARIZER run, one
// answer displayed; and since no data message carries a step's output, no
// such run can still be on its way when the plan returns.
func TestPlannedOpenQueryRunsEachStepOnce(t *testing.T) {
	sys := newSystem(t)
	s, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, plan, err := s.ExecuteUtterance("How many jobs are in San Francisco?")
	if err != nil {
		t.Fatal(err)
	}
	reports, runs, displayed := 0, map[string]int{}, 0
	for _, m := range sys.Store.History(s.ID) {
		switch {
		case m.Directive != nil && m.Directive.Op == agent.OpAgentDone:
			reports++
			runs[m.Directive.Agent]++
		case m.Stream == agent.DisplayStream(s.ID):
			if m.Sender == hragents.QuerySummarizer {
				displayed++
			}
		case m.Kind == streams.Data && (m.HasTag(hragents.TagSQL) || m.HasTag(hragents.TagRows)):
			t.Errorf("%s published %v on %s", m.Sender, m.Tags, m.Stream)
		}
	}
	if reports != len(plan.Steps) {
		t.Errorf("%d AGENT_DONE reports for a plan of %d steps (%v)", reports, len(plan.Steps), runs)
	}
	if runs[hragents.SQLExecutor] != 1 || runs[hragents.QuerySummarizer] != 1 {
		t.Errorf("%s ran %d times and %s %d, want once each", hragents.SQLExecutor, runs[hragents.SQLExecutor],
			hragents.QuerySummarizer, runs[hragents.QuerySummarizer])
	}
	if displayed != 1 {
		t.Errorf("%s displayed %d answers, want 1", hragents.QuerySummarizer, displayed)
	}
}

func TestBudgetEnforcedThroughFacade(t *testing.T) {
	sys, err := New(Config{Budget: budget.Limits{MaxCost: 0.000001}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	s, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, _, err := s.ExecuteUtterance("I am looking for a data scientist position in SF bay area.")
	if err == nil {
		t.Fatal("micro-budget execution succeeded")
	}
	// The coordinator aborts the plan, as a result, rather than failing it.
	if res == nil || !res.Aborted || res.AbortReason == "" {
		t.Fatalf("micro-budget result = %+v, want an aborted plan with its reason", res)
	}
}

func TestSessionIsolation(t *testing.T) {
	sys := newSystem(t)
	s1, err := sys.StartSession("session:a")
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := sys.StartSession("session:b")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	if _, err := s1.Ask("How many jobs are in Seattle?", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Session b saw none of session a's conversational traffic (its own
	// flow holds only its ADD_AGENT membership record).
	for _, step := range s2.Flow() {
		if step.Sender == "user" || step.Kind == streams.Data {
			t.Fatalf("session a traffic leaked into b: %+v", step)
		}
	}
}

func TestDuplicateSessionID(t *testing.T) {
	sys := newSystem(t)
	s, err := sys.StartSession("session:dup")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := sys.StartSession("session:dup"); err == nil {
		t.Fatal("duplicate session created")
	}
}

// TestWALPersistenceThroughFacade: a conversation held through the facade is
// in the shared log the moment it happens — a crashed System (no snapshot)
// reopened over the same DataDir replays it.
func TestWALPersistenceThroughFacade(t *testing.T) {
	dir := t.TempDir()
	sys, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ask("How many jobs are in Oakland?", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	sid := s.ID
	flowLen := len(s.Flow())
	sys.SimulateCrash()

	sys2, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	if sys2.DurabilityStats().Recovery.SnapshotRestored {
		t.Fatal("crash restart restored a snapshot: the history did not come from the log")
	}
	history := sys2.Store.History(sid)
	if len(history) < 5 || len(history) < flowLen {
		t.Fatalf("recovered history = %d messages, want the %d of the conversation", len(history), flowLen)
	}
	found := false
	for _, m := range history {
		if strings.Contains(m.PayloadString(), "How many jobs are in Oakland?") {
			found = true
		}
	}
	if !found {
		t.Fatal("utterance not recovered from WAL")
	}
}

func TestAskTimeout(t *testing.T) {
	sys, err := New(Config{DisableStandardAgents: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	s, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// No agents listening: Ask must time out cleanly.
	_, err = s.Ask("hello?", 50*time.Millisecond)
	if !errors.Is(err, ErrNoResponse) {
		t.Fatalf("err = %v", err)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Seed != 42 || c.Budget.MaxCost != 1.0 {
		t.Fatalf("defaults = %+v", c)
	}
	mc := Config{ModelAccuracy: 0.5}.withDefaults().modelConfig()
	if mc.Accuracy != 0.5 {
		t.Fatalf("accuracy override = %v", mc.Accuracy)
	}
}

// TestDataWriteInvalidatesMemo proves the production invalidation seam end
// to end: a warm coordinator plan is served from memo, and a plain SQL
// write through the enterprise engine (DB.OnWrite -> DataRegistry.Touch ->
// hierarchy propagation -> memo.InvalidateSource) drops the stale entries
// so the next execution recomputes against the new data.
func TestDataWriteInvalidatesMemo(t *testing.T) {
	sys := newSystem(t)
	s, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Selecting a job routes through the coordinator (Fig. 9: AE emits a
	// Summarizer plan); SUMMARIZER is Cacheable with Reads: ["hr"].
	// A cold click yields two display messages (the agent's own rendering
	// plus the coordinator service's Final publish); Click returns on the
	// first. Settle the display stream after each click so a leftover
	// message never satisfies the next click's wait.
	settle := func() {
		t.Helper()
		prev := -1
		for i := 0; i < 100; i++ {
			if cur := len(s.Display()); cur == prev {
				return
			} else {
				prev = cur
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	click := func() string {
		t.Helper()
		out, err := s.Click(map[string]any{"action": "select_job", "job_id": 3}, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		settle()
		return out
	}
	cold := click()
	if warm := click(); warm != cold {
		t.Fatalf("warm click diverged: %q vs %q", warm, cold)
	}
	if st := sys.MemoStats(); st.Hits == 0 {
		t.Fatalf("repeated click not served from memo: %+v", st)
	}

	// The data changes through the ordinary SQL surface — no registry call:
	// DB.OnWrite bumps hr.applications, the hierarchy propagates to "hr",
	// and SUMMARIZER's memo entry drops.
	if _, err := sys.Enterprise.DB.Exec(
		`INSERT INTO applications VALUES (9001, 3, 'p9001', 'applied', 0.99, 4)`); err != nil {
		t.Fatal(err)
	}
	if sys.MemoStats().Invalidations == 0 {
		t.Fatal("write did not invalidate any memo entries")
	}
	after := click()
	if after == cold {
		t.Fatalf("post-write summary did not reflect the new application: %q", after)
	}
	if !strings.Contains(after, "applied") {
		t.Fatalf("summary missing the new applied application: %q", after)
	}
}

// An ask must cost what it delivers, not what the session has said before:
// on a session with 2000 display messages behind it, Ask neither replays them
// through its wait subscription (bounded Deliveries) nor reads them to count
// them (bytes allocated as on a new session). Asserted on counts, not time.
func TestAskCostIndependentOfDisplayHistory(t *testing.T) {
	sys := newSystem(t)
	const asks = 8
	// measure returns deliveries and bytes allocated per ask on a session.
	measure := func(s *Session) (deliveries, bytes float64) {
		t.Helper()
		ask := func() {
			if out, err := s.Ask("How many jobs are in Austin?", 10*time.Second); err != nil || !strings.Contains(out, "Summary:") {
				t.Fatalf("ask = %q, %v", out, err)
			}
		}
		ask() // warm the statement and plan caches
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		d0 := sys.Store.StatsSnapshot().Deliveries
		for i := 0; i < asks; i++ {
			ask()
		}
		d1 := sys.Store.StatsSnapshot().Deliveries
		runtime.ReadMemStats(&m1)
		return float64(d1-d0) / asks, float64(m1.TotalAlloc-m0.TotalAlloc) / asks
	}

	fresh, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	freshDeliveries, freshBytes := measure(fresh)

	deep, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer deep.Close()
	for i := 0; i < 2000; i++ {
		if _, err := sys.Store.Append(streams.Message{
			Stream: deep.ID + ":display", Kind: streams.Data, Sender: hragents.QuerySummarizer,
			Tags: []string{"display"}, Payload: "Summary: The query returned 1 rows. n: 257.",
		}); err != nil {
			t.Fatal(err)
		}
	}
	if deep.DisplayLen() != 2000 {
		t.Fatalf("DisplayLen = %d, want 2000", deep.DisplayLen())
	}
	deepDeliveries, deepBytes := measure(deep)
	t.Logf("per ask: fresh %.0f deliveries, %.0f B; 2000 deep %.0f deliveries, %.0f B", freshDeliveries, freshBytes, deepDeliveries, deepBytes)
	// Some 65 deliveries make an ask (the count trails the answer, so it
	// wobbles); a replayed history would add 2000.
	if deepDeliveries > 200 {
		t.Errorf("an ask on a 2000-message display stream took %.0f deliveries, %.0f on a new session", deepDeliveries, freshDeliveries)
	}
	// Reading 2000 messages (Display/ReadAll) copies over 300 KB per ask.
	if deepBytes > 1.5*freshBytes+64<<10 {
		t.Errorf("an ask on a 2000-message display stream allocated %.0f B, %.0f B on a new session", deepBytes, freshBytes)
	}
}

// An ask-level memo entry has one reader: the degraded serve of an ask the
// governor shed. Under Config{} there is no governor, so a planned and an NLQ
// GovernedAsk leave exactly the step entries the same asks leave through Ask
// and nothing under the ask key; with a governor configured each answered ask
// is remembered.
func TestAskLevelMemoEntryOnlyWithAGovernor(t *testing.T) {
	asks := []string{"Summarize the applicants for job 12", "How many jobs are in San Francisco?"}
	run := func(cfg Config, ask func(s *Session, text string) error) *System {
		t.Helper()
		cfg.ModelAccuracy = 1.0
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sys.Close)
		s, err := sys.StartSession("")
		if err != nil {
			t.Fatal(err)
		}
		for _, text := range asks {
			if err := ask(s, text); err != nil {
				t.Fatal(err)
			}
		}
		s.Close() // running plans finish first: their step entries are stored
		return sys
	}
	plain := func(s *Session, text string) error {
		_, err := s.Ask(text, 10*time.Second)
		return err
	}
	governed := func(s *Session, text string) error {
		_, err := s.GovernedAsk(context.Background(), "t", text, nil, 10*time.Second)
		return err
	}
	remembered := func(sys *System) int {
		n := 0
		for _, text := range asks {
			key, ok := askKey(text)
			if !ok {
				t.Fatalf("no ask key for %q", text)
			}
			if _, ok := sys.Memo.Peek(key); ok {
				n++
			}
		}
		return n
	}

	steps := run(Config{}, plain).Memo.Len()
	if steps == 0 {
		t.Fatal("the planned ask left no step entry; the comparison below would be vacuous")
	}
	ungoverned := run(Config{}, governed)
	if n := ungoverned.Memo.Len(); n != steps || remembered(ungoverned) != 0 {
		t.Fatalf("ungoverned GovernedAsk: %d memo entries (%d under the ask key), want the %d step entries Ask leaves", n, remembered(ungoverned), steps)
	}
	cfg := Config{}
	cfg.Governor.MaxConcurrent = 4
	gov := run(cfg, governed)
	if n := gov.Memo.Len(); n != steps+len(asks) || remembered(gov) != len(asks) {
		t.Fatalf("governed GovernedAsk: %d memo entries (%d under the ask key), want %d step entries + %d answers", n, remembered(gov), steps, len(asks))
	}
}
