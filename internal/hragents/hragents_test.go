package hragents

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"blueprint/internal/agent"
	"blueprint/internal/budget"
	"blueprint/internal/coordinator"
	"blueprint/internal/llm"
	"blueprint/internal/registry"
	"blueprint/internal/relational"
	"blueprint/internal/streams"
	"blueprint/internal/trace"
	"blueprint/internal/workload"
)

const sess = "session:hr"

// app wires the full Agentic Employer application: suite, registries,
// factory, all agents attached, and the coordinator service watching plans.
type app struct {
	store *streams.Store
	suite *Suite
	areg  *registry.AgentRegistry
	svc   *coordinator.Service
}

func newApp(t testing.TB, accuracy float64) *app {
	t.Helper()
	ent, err := workload.Build(21, workload.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	model := llm.New(llm.Config{Name: "hr-llm", Tier: llm.TierLarge, CostPer1K: 0.01, BaseLatency: time.Millisecond, Accuracy: accuracy, Seed: 17}, ent.KB)
	suite, err := NewSuite(ent, model, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	store := streams.NewStore()
	t.Cleanup(func() { store.Close() })

	areg := registry.NewAgentRegistry()
	if err := suite.RegisterAll(areg); err != nil {
		t.Fatal(err)
	}
	factory := agent.NewFactory(areg)
	suite.InstallConstructors(factory)

	var insts []*agent.Instance
	for _, name := range []string{AgenticEmployer, IntentClassifier, NL2Q, SQLExecutor, QuerySummarizer, Summarizer, Ranker, Profiler, JobMatcher, Presenter, Advisor, Moderator} {
		a, err := factory.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := agent.Attach(store, sess, a, agent.Options{})
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, inst)
	}
	t.Cleanup(func() {
		for _, in := range insts {
			in.Stop()
		}
	})

	coord := coordinator.New(store, areg, nil, model, coordinator.Options{})
	svc := coord.Serve(budget.Limits{MaxCost: 1.0})
	svc.Join(sess)
	t.Cleanup(svc.Stop)

	return &app{store: store, suite: suite, areg: areg, svc: svc}
}

func (a *app) postUser(t testing.TB, text string) {
	t.Helper()
	if _, err := a.store.Publish(streams.Message{
		Stream: sess + ":user", Session: sess, Kind: streams.Data,
		Sender: "user", Tags: []string{"user", "utterance"}, Payload: text,
	}); err != nil {
		t.Fatal(err)
	}
}

func (a *app) postEvent(t testing.TB, event map[string]any) {
	t.Helper()
	if _, err := a.store.Publish(streams.Message{
		Stream: sess + ":events", Session: sess, Kind: streams.Event,
		Sender: "user", Tags: []string{"ui", "event"}, Payload: event,
	}); err != nil {
		t.Fatal(err)
	}
}

// awaitDisplay waits until a display-stream message containing substr
// arrives.
func (a *app) awaitDisplay(t testing.TB, substr string) string {
	t.Helper()
	sub := a.store.Subscribe(streams.Filter{Streams: []string{agent.DisplayStream(sess)}}, true)
	defer sub.Cancel()
	deadline := time.After(15 * time.Second)
	for {
		select {
		case m, ok := <-sub.C():
			if !ok {
				t.Fatal("display stream closed")
			}
			s := m.PayloadString()
			if strings.Contains(s, substr) {
				return s
			}
		case <-deadline:
			t.Fatalf("no display output containing %q", substr)
		}
	}
}

func TestFig10ConversationFlow(t *testing.T) {
	a := newApp(t, 1.0)
	a.postUser(t, "How many jobs are in San Francisco?")
	out := a.awaitDisplay(t, "Summary:")
	if !strings.Contains(out, "returned") {
		t.Fatalf("summary = %q", out)
	}
	// Verify the exact Fig. 10 chain as an ordered subsequence:
	// U (utterance) -> IC (intent) -> AE (NLQ) -> NL2Q (SQL) ->
	// QE (ROWS) -> QS (summary).
	flow := trace.Flow(a.store, sess)
	pattern := []trace.Matcher{
		{Sender: "user", Tag: "utterance", Kind: streams.Data},
		{Sender: IntentClassifier, Tag: TagIntent, Kind: streams.Data},
		{Sender: AgenticEmployer, Tag: TagNLQ, Kind: streams.Data},
		{Sender: NL2Q, Tag: TagSQL, Kind: streams.Data},
		{Sender: SQLExecutor, Tag: TagRows, Kind: streams.Data},
		{Sender: QuerySummarizer, Tag: TagSummary, Kind: streams.Data},
	}
	if _, ok := trace.MatchSequence(flow, pattern); !ok {
		t.Fatalf("Fig. 10 sequence not found in flow:\n%s", trace.Render(flow))
	}
}

func TestFig9UIFlow(t *testing.T) {
	a := newApp(t, 1.0)
	a.postEvent(t, map[string]any{"action": "select_job", "job_id": 12})
	out := a.awaitDisplay(t, "Job 12")
	if !strings.Contains(out, "Summary:") {
		t.Fatalf("summary = %q", out)
	}
	// Fig. 9: U (UI event) -> AE (job id + plan) -> TC (EXECUTE control) ->
	// S (its AGENT_DONE report, carrying the summary).
	flow := trace.Flow(a.store, sess)
	pattern := []trace.Matcher{
		{Sender: "user", Tag: "ui", Kind: streams.Event},
		{Sender: AgenticEmployer, Tag: "plan", Kind: streams.Data},
		{Sender: "coordinator", Op: streams.OpExecuteAgent, Agent: Summarizer, Kind: streams.Control},
		{Sender: Summarizer, Op: agent.OpAgentDone, Kind: streams.Control},
	}
	if _, ok := trace.MatchSequence(flow, pattern); !ok {
		t.Fatalf("Fig. 9 sequence not found in flow:\n%s", trace.Render(flow))
	}
}

func TestSummarizeIntentFlow(t *testing.T) {
	a := newApp(t, 1.0)
	a.postUser(t, "Summarize the applicants for job 7")
	out := a.awaitDisplay(t, "Job 7")
	if !strings.Contains(out, "applicants") {
		t.Fatalf("summary = %q", out)
	}
}

func TestRankIntentFlow(t *testing.T) {
	a := newApp(t, 1.0)
	a.postUser(t, "Rank the top candidates for job 3")
	out := a.awaitDisplay(t, "Top applicants for job 3")
	if !strings.Contains(out, "1.") {
		t.Fatalf("ranked = %q", out)
	}
}

func TestJobMatcherEndToEnd(t *testing.T) {
	a := newApp(t, 1.0)
	// Drive PROFILER -> JOBMATCHER -> PRESENTER directly via EXECUTE.
	if err := agent.Execute(a.store, sess, Profiler,
		map[string]any{"CRITERIA": "data scientist position in SF bay area"}, "reply:profile", "jm1"); err != nil {
		t.Fatal(err)
	}
	if d := agent.AwaitDone(a.store, sess, "jm1"); d == nil || d.Op != agent.OpAgentDone {
		t.Fatalf("profiler failed: %+v", d)
	}
	msgs, err := a.store.ReadAll("reply:profile")
	if err != nil || len(msgs) == 0 {
		t.Fatalf("no profile output: %v", err)
	}
	profile := msgs[0].Payload.(map[string]any)
	if profile["title"] != "data scientist" || profile["location"] != "sf bay area" {
		t.Fatalf("profile = %v", profile)
	}

	if err := agent.Execute(a.store, sess, JobMatcher,
		map[string]any{"JOBSEEKER_DATA": profile, "LIMIT": 5}, "reply:matches", "jm2"); err != nil {
		t.Fatal(err)
	}
	if d := agent.AwaitDone(a.store, sess, "jm2"); d == nil || d.Op != agent.OpAgentDone {
		t.Fatalf("matcher failed: %+v", d)
	}
	msgs, _ = a.store.ReadAll("reply:matches")
	if len(msgs) == 0 {
		t.Fatal("no matches output")
	}
	matches := msgs[0].Payload.([]any)
	if len(matches) == 0 || len(matches) > 5 {
		t.Fatalf("matches = %d", len(matches))
	}
	// Every match must be a bay-area data-science job (ground truth).
	for _, m := range matches {
		mm := m.(map[string]any)
		id := mm["id"].(int64)
		if !a.suite.Ent.BayAreaDSJobIDs[id] {
			t.Fatalf("match %v not in ground truth", mm)
		}
	}
	// Scores sorted descending.
	prev := 2.0
	for _, m := range matches {
		sc := m.(map[string]any)["score"].(float64)
		if sc > prev {
			t.Fatal("matches not sorted by score")
		}
		prev = sc
	}
}

func TestModerator(t *testing.T) {
	a := newApp(t, 1.0)
	check := func(text string, wantAllowed bool) {
		t.Helper()
		id := "mod-" + text[:4]
		if err := agent.Execute(a.store, sess, Moderator, map[string]any{"TEXT": text}, "reply:"+id, id); err != nil {
			t.Fatal(err)
		}
		if d := agent.AwaitDone(a.store, sess, id); d == nil || d.Op != agent.OpAgentDone {
			t.Fatalf("moderator failed: %+v", d)
		}
		msgs, _ := a.store.ReadAll("reply:" + id)
		verdict := msgs[0].Payload.(map[string]any)
		if verdict["allowed"] != wantAllowed {
			t.Fatalf("verdict for %q = %v", text, verdict)
		}
	}
	check("here are your job matches", true)
	check("this contains an offensive term", false)
	check("never share your PASSWORD here", false)
}

func TestAdvisor(t *testing.T) {
	a := newApp(t, 1.0)
	if err := agent.Execute(a.store, sess, Advisor,
		map[string]any{"QUESTION": "what skills do I need to become a data scientist?"}, "reply:adv", "adv1"); err != nil {
		t.Fatal(err)
	}
	if d := agent.AwaitDone(a.store, sess, "adv1"); d == nil || d.Op != agent.OpAgentDone {
		t.Fatalf("advisor failed: %+v", d)
	}
	msgs, _ := a.store.ReadAll("reply:adv")
	advice := msgs[0].PayloadString()
	if !strings.Contains(advice, "python") {
		t.Fatalf("advice = %q", advice)
	}
}

func TestDiscoverTable(t *testing.T) {
	a := newApp(t, 1.0)
	if got := a.suite.discoverTable("how many jobs are in Seattle with salary over 150000"); got != "jobs" {
		t.Fatalf("jobs discovery = %s", got)
	}
	if got := a.suite.discoverTable("count applications with status interview"); got != "applications" {
		t.Fatalf("applications discovery = %s", got)
	}
}

func TestSpecsCompleteAndRegistered(t *testing.T) {
	a := newApp(t, 1.0)
	specs := a.suite.Specs()
	if len(specs) != 12 {
		t.Fatalf("specs = %d", len(specs))
	}
	for _, spec := range specs {
		if spec.Description == "" {
			t.Fatalf("spec %s missing description", spec.Name)
		}
		if _, err := a.areg.Get(spec.Name); err != nil {
			t.Fatalf("spec %s not registered: %v", spec.Name, err)
		}
	}
}

func TestDegradedModelStillCompletesFlows(t *testing.T) {
	a := newApp(t, 0.5)
	a.postUser(t, "How many jobs are in San Francisco?")
	// With a flaky model the intent may misroute, but the catch-all
	// open_query path must still produce *some* display output.
	a.awaitDisplay(t, "")
}

func TestExtractJobIDAndAsInt(t *testing.T) {
	// Each word reads as fmt.Sscanf(word, "%d", &n) reads it.
	for _, c := range []struct {
		utterance string
		want      int
	}{
		{"summarize job 42 please", 42},
		{"no number here", 1},
		{"", 1},
		{"12", 12},
		{"the 12th job", 12},
		{"job +7", 7},
		{"job -3", -3},
		{"job", 1},
		{"Summarize job 7.", 7},
		{"what about job 7?!", 7},
		{"job 99999999999999999999 or 5", 5}, // overflows int64: skipped
		{"job 1_000 or 6", 1},                // %d stops at the underscore
		{"- + -x 8", 8},
		{"job x9 10", 10},
		{"job 007", 7},
		{"job ٣ 4", 4}, // not an ASCII digit
	} {
		if got := extractJobID(c.utterance); got != c.want {
			t.Errorf("extractJobID(%q) = %d, want %d", c.utterance, got, c.want)
		}
		for _, f := range strings.Fields(c.utterance) {
			f = strings.Trim(f, ".,?!")
			var n int
			_, err := fmt.Sscanf(f, "%d", &n)
			if got, ok := leadingInt(f); ok != (err == nil) || (ok && got != n) {
				t.Errorf("leadingInt(%q) = %d, %v; Sscanf reads %d, %v", f, got, ok, n, err)
			}
		}
	}
	if asInt(7) != 7 || asInt(int64(8)) != 8 || asInt(9.0) != 9 || asInt("x") != 0 {
		t.Fatal("asInt")
	}
}

func TestQueryJobByID(t *testing.T) {
	a := newApp(t, 1.0)
	res, err := a.suite.stmtJobSummary.Query(1)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("job 1 = %v err=%v", res, err)
	}
}

// Verify the processor-level behaviour of the AE signal router without
// streams.
func TestAgenticEmployerSignalRouting(t *testing.T) {
	a := newApp(t, 1.0)
	proc := a.suite.agenticEmployerProc()
	// Unknown signals error.
	if _, err := proc(context.Background(), agent.Invocation{Inputs: map[string]any{"SIGNAL": map[string]any{"bogus": 1}}}); err == nil {
		t.Fatal("unrecognized signal accepted")
	}
	if _, err := proc(context.Background(), agent.Invocation{Inputs: map[string]any{}}); err == nil {
		t.Fatal("missing signal accepted")
	}
	if _, err := proc(context.Background(), agent.Invocation{Inputs: map[string]any{"SIGNAL": map[string]any{"action": "unknown_action"}}}); err == nil {
		t.Fatal("unknown action accepted")
	}
	// Open query intent routes to NLQ.
	out, err := proc(context.Background(), agent.Invocation{Inputs: map[string]any{"SIGNAL": map[string]any{"intent": "open_query", "utterance": "how many jobs"}}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Values["QUERY"] != "how many jobs" || len(out.Tags) != 1 || out.Tags[0] != TagNLQ {
		t.Fatalf("open query routing = %+v", out)
	}
}

// TestSuiteStatementsRunCompiled: each of the suite's prepared statements
// compiles against the workload's schema and finds job 3's rows.
func TestSuiteStatementsRunCompiled(t *testing.T) {
	ent, err := workload.Build(21, workload.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	suite, err := NewSuite(ent, llm.New(llm.Config{Name: "hr-llm", Tier: llm.TierLarge, Accuracy: 1, Seed: 17}, ent.KB), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*relational.Stmt{
		"job summary": suite.stmtJobSummary,
		"apps by job": suite.stmtAppsByJob,
		"top apps":    suite.stmtTopApps,
	} {
		res, err := st.Query(3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s: no rows for job 3", name)
		}
	}
}
