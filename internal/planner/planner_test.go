package planner

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"blueprint/internal/agent"
	"blueprint/internal/llm"
	"blueprint/internal/registry"
	"blueprint/internal/streams"
)

func hrRegistry(t testing.TB) *registry.AgentRegistry {
	t.Helper()
	r := registry.NewAgentRegistry()
	specs := []registry.AgentSpec{
		{
			Name:        "PROFILER",
			Description: "presents a user profile UI form to collect job seeker profile information from the user",
			Inputs:      []registry.ParamSpec{{Name: "CRITERIA", Type: "text"}},
			Outputs:     []registry.ParamSpec{{Name: "JOBSEEKER_DATA", Type: "profile"}},
			QoS:         registry.QoSProfile{CostPerCall: 0.001, Latency: 30 * time.Millisecond, Accuracy: 0.95},
		},
		{
			Name:        "JOBMATCHER",
			Description: "match the job seeker profile against available job listings, assessing match quality and ranking candidates",
			Inputs: []registry.ParamSpec{
				{Name: "JOBSEEKER_DATA", Type: "profile"},
				{Name: "JOBS", Type: "rows", Optional: true},
			},
			Outputs: []registry.ParamSpec{{Name: "MATCHES", Type: "rows"}},
			QoS:     registry.QoSProfile{CostPerCall: 0.01, Latency: 100 * time.Millisecond, Accuracy: 0.9},
		},
		{
			Name:        "PRESENTER",
			Description: "present the matched jobs and results to the end user in a readable rendering",
			Inputs:      []registry.ParamSpec{{Name: "MATCHES", Type: "rows"}},
			Outputs:     []registry.ParamSpec{{Name: "RENDERED", Type: "text"}},
		},
		{
			Name:        "NL2Q",
			Description: "translate a natural language question into a SQL database query",
			Inputs:      []registry.ParamSpec{{Name: "NLQ", Type: "text"}},
			Outputs:     []registry.ParamSpec{{Name: "SQL", Type: "text"}},
		},
		{
			Name:        "SQLEXECUTOR",
			Description: "execute a SQL database query against the enterprise relational databases",
			Inputs:      []registry.ParamSpec{{Name: "SQL", Type: "text"}},
			Outputs:     []registry.ParamSpec{{Name: "ROWS", Type: "rows"}},
		},
		{
			Name:        "QUERYSUMMARIZER",
			Description: "summarize and explain database query results for the user",
			Inputs:      []registry.ParamSpec{{Name: "ROWS", Type: "rows"}},
			Outputs:     []registry.ParamSpec{{Name: "SUMMARY", Type: "text"}},
		},
		{
			Name:        "BACKUP_MATCHER",
			Description: "alternative matcher assessing job seeker profile match quality with job listings",
			Inputs:      []registry.ParamSpec{{Name: "JOBSEEKER_DATA", Type: "profile"}},
			Outputs:     []registry.ParamSpec{{Name: "MATCHES", Type: "rows"}},
		},
	}
	for _, s := range specs {
		if err := r.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func perfectModel() *llm.Model {
	return llm.New(llm.Config{Name: "planner-llm", Accuracy: 1.0, CostPer1K: 0.001, Seed: 5}, nil)
}

func TestFig6RunningExamplePlan(t *testing.T) {
	tp := New(hrRegistry(t), perfectModel(), nil)
	plan, err := tp.Plan("I am looking for a data scientist position in SF bay area.")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Intent != "job_search" {
		t.Fatalf("intent = %s", plan.Intent)
	}
	if len(plan.Steps) != 3 {
		t.Fatalf("steps = %+v", plan.Steps)
	}
	wantAgents := []string{"PROFILER", "JOBMATCHER", "PRESENTER"}
	for i, want := range wantAgents {
		if plan.Steps[i].Agent != want {
			t.Fatalf("step %d agent = %s, want %s\nplan:\n%s", i, plan.Steps[i].Agent, want, plan)
		}
	}
	// Fig. 6 wiring: PROFILER.CRITERIA <- USER.TEXT (criteria transform);
	// JOBMATCHER.JOBSEEKER_DATA <- s1.JOBSEEKER_DATA;
	// PRESENTER.MATCHES <- s2.MATCHES.
	b := plan.Steps[0].Bindings["CRITERIA"]
	if !b.FromUserText || b.Transform != "criteria" {
		t.Fatalf("CRITERIA binding = %+v", b)
	}
	b = plan.Steps[1].Bindings["JOBSEEKER_DATA"]
	if b.FromStep != "s1" || b.FromParam != "JOBSEEKER_DATA" {
		t.Fatalf("JOBSEEKER_DATA binding = %+v", b)
	}
	b = plan.Steps[2].Bindings["MATCHES"]
	if b.FromStep != "s2" || b.FromParam != "MATCHES" {
		t.Fatalf("MATCHES binding = %+v", b)
	}
	// Optional JOBS input stays unbound.
	if _, bound := plan.Steps[1].Bindings["JOBS"]; bound {
		t.Fatalf("optional JOBS should stay unbound: %+v", plan.Steps[1].Bindings)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenQueryPlan(t *testing.T) {
	tp := New(hrRegistry(t), perfectModel(), nil)
	plan, err := tp.Plan("How many applicants have Python skills?")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Intent != "open_query" {
		t.Fatalf("intent = %s", plan.Intent)
	}
	want := []string{"NL2Q", "SQLEXECUTOR", "QUERYSUMMARIZER"}
	for i, w := range want {
		if plan.Steps[i].Agent != w {
			t.Fatalf("step %d = %s, want %s", i, plan.Steps[i].Agent, w)
		}
	}
	// Chain: SQL flows s1 -> s2, ROWS flow s2 -> s3.
	if b := plan.Steps[1].Bindings["SQL"]; b.FromStep != "s1" {
		t.Fatalf("SQL binding = %+v", b)
	}
	if b := plan.Steps[2].Bindings["ROWS"]; b.FromStep != "s2" {
		t.Fatalf("ROWS binding = %+v", b)
	}
}

func TestUnknownIntentFallsBack(t *testing.T) {
	tp := New(hrRegistry(t), perfectModel(), Templates{
		"job_search": DefaultTemplates()["job_search"],
		"open_query": DefaultTemplates()["open_query"],
	})
	plan, err := tp.Plan("zzz unintelligible gibberish")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Intent != "open_query" {
		t.Fatalf("fallback intent = %s", plan.Intent)
	}
}

func TestPlanRecordsUsage(t *testing.T) {
	reg := hrRegistry(t)
	tp := New(reg, perfectModel(), nil)
	if _, err := tp.Plan("I am looking for a data scientist position"); err != nil {
		t.Fatal(err)
	}
	if reg.UsageCount("PROFILER") != 1 {
		t.Fatalf("usage = %d", reg.UsageCount("PROFILER"))
	}
}

func TestEmptyRegistryFails(t *testing.T) {
	tp := New(registry.NewAgentRegistry(), perfectModel(), nil)
	if _, err := tp.Plan("find me a job"); err == nil {
		t.Fatal("planned against empty registry")
	}
}

func TestReplanPicksAlternative(t *testing.T) {
	tp := New(hrRegistry(t), perfectModel(), nil)
	plan, err := tp.Plan("I am looking for a data scientist position in SF bay area.")
	if err != nil {
		t.Fatal(err)
	}
	alt, err := tp.Replan(plan, "s2")
	if err != nil {
		t.Fatal(err)
	}
	if alt.Agent == "JOBMATCHER" {
		t.Fatalf("replan kept failed agent: %+v", alt)
	}
	if alt.Agent != "BACKUP_MATCHER" {
		t.Fatalf("replan chose %s", alt.Agent)
	}
	if _, err := tp.Replan(plan, "nope"); err == nil {
		t.Fatal("replanned unknown step")
	}
}

// planFromJSON decodes a plan's JSON form: what Message.PayloadString renders
// a plan payload as, and what a plan nested in a generic map is logged as.
func planFromJSON(t testing.TB, p *Plan) *Plan {
	t.Helper()
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Plan
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	return &back
}

func TestPlanJSONRoundTrip(t *testing.T) {
	tp := New(hrRegistry(t), perfectModel(), nil)
	plan, err := tp.Plan("I am looking for a data scientist position.")
	if err != nil {
		t.Fatal(err)
	}
	back := planFromJSON(t, plan)
	if back.ID != plan.ID || len(back.Steps) != len(plan.Steps) {
		t.Fatalf("roundtrip = %+v", back)
	}
	if back.Steps[1].Bindings["JOBSEEKER_DATA"].FromStep != "s1" {
		t.Fatalf("bindings lost: %+v", back.Steps[1].Bindings)
	}
}

func TestPlanStringRendering(t *testing.T) {
	tp := New(hrRegistry(t), perfectModel(), nil)
	plan, _ := tp.Plan("I am looking for a data scientist position.")
	s := plan.String()
	for _, want := range []string{"PROFILER", "USER.TEXT via criteria", "s2.MATCHES"} {
		if !strings.Contains(s, want) {
			t.Fatalf("render missing %q:\n%s", want, s)
		}
	}
}

func TestPlannerAsAgent(t *testing.T) {
	store := streams.NewStore()
	defer store.Close()
	tp := New(hrRegistry(t), perfectModel(), nil)
	inst, err := agent.Attach(store, "session:p", AsAgent(tp), agent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()

	out := store.Subscribe(streams.Filter{IncludeTags: []string{"plan"}}, false)
	defer out.Cancel()

	if _, err := store.Publish(streams.Message{
		Stream: "session:p:user", Session: "session:p", Kind: streams.Data,
		Sender: "user", Tags: []string{"user", "utterance"},
		Payload: "I am looking for a data scientist position in SF bay area.",
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-out.C():
		p, ok := msg.Payload.(*Plan)
		if !ok {
			t.Fatalf("the plan is published as a %T", msg.Payload)
		}
		if len(p.Steps) != 3 || p.Steps[0].Agent != "PROFILER" {
			t.Fatalf("plan = %+v", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no plan emitted")
	}
}

func TestValidateCatchesBadPlans(t *testing.T) {
	bad := []*Plan{
		{},
		{Steps: []Step{{ID: "", Agent: "A"}}},
		{Steps: []Step{{ID: "s1", Agent: ""}}},
		{Steps: []Step{{ID: "s1", Agent: "A"}, {ID: "s1", Agent: "B"}}},
		{Steps: []Step{{ID: "s1", Agent: "A", Bindings: map[string]Binding{"X": {FromStep: "s9"}}}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d validated", i)
		}
	}
}
