package dataplan

import (
	"strings"
	"testing"
	"time"

	"blueprint/internal/graphstore"
	"blueprint/internal/llm"
	"blueprint/internal/nlq"
	"blueprint/internal/registry"
	"blueprint/internal/relational"
)

// fixture builds the HR environment of Fig. 7: a jobs table whose city
// column holds literal cities (never "SF bay area"), a title taxonomy graph,
// a registered LLM source, and a perfect-accuracy model.
type fixture struct {
	db      *relational.DB
	graph   *graphstore.Graph
	reg     *registry.DataRegistry
	model   *llm.Model
	planner *Planner
	exec    *Executor
	bind    TableBinding
}

func newFixture(t testing.TB, accuracy float64) *fixture {
	t.Helper()
	db := relational.NewDB()
	stmts := []string{
		`CREATE TABLE jobs (id INT, title TEXT, city TEXT, salary INT)`,
		`INSERT INTO jobs VALUES
			(1, 'Data Scientist', 'San Francisco', 180000),
			(2, 'Senior Data Scientist', 'Oakland', 210000),
			(3, 'Machine Learning Engineer', 'Berkeley', 195000),
			(4, 'Data Scientist', 'Seattle', 170000),
			(5, 'Applied Scientist', 'Palo Alto', 200000),
			(6, 'Data Analyst', 'San Jose', 130000),
			(7, 'Software Engineer', 'San Francisco', 175000),
			(8, 'Staff Data Scientist', 'Mountain View', 230000)`,
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}

	g := graphstore.NewGraph()
	titles := map[string]string{
		"ds": "Data Scientist", "sds": "Senior Data Scientist", "stds": "Staff Data Scientist",
		"mle": "Machine Learning Engineer", "as": "Applied Scientist",
		"da": "Data Analyst", "swe": "Software Engineer",
	}
	for id, name := range titles {
		if err := g.AddNode(id, "title", map[string]any{"name": name}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"ds", "sds"}, {"ds", "stds"}, {"ds", "mle"}, {"ds", "as"}} {
		if err := g.AddEdge(e[0], e[1], "related", nil); err != nil {
			t.Fatal(err)
		}
	}

	reg := registry.NewDataRegistry()
	if err := reg.ImportRelational("hr", "HR database", "conn", db); err != nil {
		t.Fatal(err)
	}
	if err := reg.ImportGraph("taxonomy", "job title taxonomy", "conn", g); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterLLMSource("gpt-sim", "general knowledge", registry.QoSProfile{CostPerCall: 0.01, Latency: 50 * time.Millisecond, Accuracy: 0.9}); err != nil {
		t.Fatal(err)
	}

	model := llm.New(llm.Config{Name: "sim", Tier: llm.TierLarge, CostPer1K: 0.01, BaseLatency: time.Millisecond, Accuracy: accuracy, Seed: 11}, nil)
	tgt, err := BuildTarget(db, "jobs")
	if err != nil {
		t.Fatal(err)
	}
	asset, err := reg.Get("hr.jobs")
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		db: db, graph: g, reg: reg, model: model,
		planner: NewPlanner(reg, nil),
		exec: NewExecutor(Sources{
			Relational: db,
			Graphs:     map[string]*graphstore.Graph{"taxonomy": g},
			Model:      model,
		}),
		bind: TableBinding{Asset: asset, Target: tgt},
	}
}

const runningExample = "I am looking for a data scientist position in SF bay area."

// planNode finds the plan's node by id.
func planNode(t *testing.T, p *Plan, id string) Node {
	t.Helper()
	for _, n := range p.Nodes {
		if n.ID == id {
			return n
		}
	}
	t.Fatalf("plan has no node %q: %s", id, p)
	return Node{}
}

func TestBuildTarget(t *testing.T) {
	f := newFixture(t, 1.0)
	if f.bind.Target.Table != "jobs" {
		t.Fatalf("table = %s", f.bind.Target.Table)
	}
	if len(f.bind.Target.NumericColumns) != 2 {
		t.Fatalf("numeric = %v", f.bind.Target.NumericColumns)
	}
	var cities []string
	for _, h := range f.bind.Target.Hints {
		if h.Column == "city" {
			cities = append(cities, h.Value)
		}
	}
	if len(cities) != 7 { // 8 rows, San Francisco twice
		t.Fatalf("city hints = %v", cities)
	}
	if _, err := BuildTarget(f.db, "missing"); err == nil {
		t.Fatal("missing table accepted")
	}
}

func TestAnalyzeDetectsRegion(t *testing.T) {
	f := newFixture(t, 1.0)
	needs := f.planner.Analyze(runningExample, f.bind)
	if needs.Region != "sf bay area" {
		t.Fatalf("region = %q", needs.Region)
	}
	if needs.Title != "data scientist" {
		t.Fatalf("title = %q", needs.Title)
	}
	// A literal city grounds directly: no region need.
	needs = f.planner.Analyze("data scientist jobs in Seattle", f.bind)
	if needs.Region != "" {
		t.Fatalf("literal city flagged as region: %q", needs.Region)
	}
}

func TestPlanDirectMissesRegion(t *testing.T) {
	f := newFixture(t, 1.0)
	plan, err := f.planner.PlanDirect(runningExample, f.bind)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Strategy != "direct" {
		t.Fatalf("strategy = %s", plan.Strategy)
	}
	res, err := f.exec.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	// Direct grounding: title matches "Data Scientist" but no city filter
	// fires for "SF bay area", so the result misses region scoping; the
	// Fig. 7 point is that direct is *wrong*, returning Seattle rows too.
	foundSeattle := false
	for _, r := range res.Rows {
		if r["city"] == "Seattle" {
			foundSeattle = true
		}
	}
	if !foundSeattle {
		t.Fatalf("expected direct plan to lack region filtering; rows = %v", res.Rows)
	}
}

func TestPlanDecomposedFig7(t *testing.T) {
	f := newFixture(t, 1.0)
	needs := f.planner.Analyze(runningExample, f.bind)
	plan, err := f.planner.PlanDecomposed(runningExample, f.bind, needs, "taxonomy")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Strategy != "decomposed" || len(plan.Nodes) != 3 {
		t.Fatalf("plan = %s", plan)
	}
	// Q2NL injection visible in the LLM node prompt.
	cityNode := planNode(t, plan, "cities")
	if !strings.Contains(cityNode.Args["prompt"].(string), "cities in the sf bay area") {
		t.Fatalf("cities node = %+v", cityNode)
	}
	res, err := f.exec.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth: DS-related titles in bay-area cities = ids 1,2,3,5,8.
	want := map[int64]bool{1: true, 2: true, 3: true, 5: true, 8: true}
	if len(res.Rows) != len(want) {
		t.Fatalf("rows = %v", res.Rows)
	}
	for _, r := range res.Rows {
		id := r["id"].(int64)
		if !want[id] {
			t.Fatalf("unexpected row id %d (city=%v title=%v)", id, r["city"], r["title"])
		}
	}
	if res.Usage.Cost <= 0 {
		t.Fatalf("usage = %+v", res.Usage)
	}
	if len(res.Trace) != 3 {
		t.Fatalf("trace = %v", res.Trace)
	}
}

func TestPlanDecomposedWithLLMTitles(t *testing.T) {
	f := newFixture(t, 1.0)
	needs := f.planner.Analyze(runningExample, f.bind)
	plan, err := f.planner.PlanDecomposed(runningExample, f.bind, needs, "")
	if err != nil {
		t.Fatal(err)
	}
	titlesNode := planNode(t, plan, "titles")
	if titlesNode.Kind != OpLLM {
		t.Fatalf("titles node = %+v", titlesNode)
	}
	res, err := f.exec.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	// LLM expansion includes Applied Scientist and MLE; all bay-area rows
	// with those titles qualify.
	if len(res.Rows) < 4 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestPlanAutoChoosesStrategy(t *testing.T) {
	f := newFixture(t, 1.0)
	p1, err := f.planner.Plan(runningExample, f.bind, "taxonomy")
	if err != nil {
		t.Fatal(err)
	}
	if p1.Strategy != "decomposed" {
		t.Fatalf("strategy = %s", p1.Strategy)
	}
	p2, err := f.planner.Plan("data scientist jobs in Seattle", f.bind, "taxonomy")
	if err != nil {
		t.Fatal(err)
	}
	if p2.Strategy != "direct" {
		t.Fatalf("strategy = %s", p2.Strategy)
	}
	res, err := f.exec.Execute(p2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["id"].(int64) != 4 {
		t.Fatalf("direct rows = %v", res.Rows)
	}
}

func TestEstimates(t *testing.T) {
	f := newFixture(t, 1.0)
	needs := f.planner.Analyze(runningExample, f.bind)
	dec, _ := f.planner.PlanDecomposed(runningExample, f.bind, needs, "taxonomy")
	dir, _ := f.planner.PlanDirect(runningExample, f.bind)
	if dec.Est.Cost <= dir.Est.Cost {
		t.Fatalf("decomposed should cost more: %v vs %v", dec.Est.Cost, dir.Est.Cost)
	}
	if dec.Est.Latency <= dir.Est.Latency {
		t.Fatalf("decomposed should be slower: %v vs %v", dec.Est.Latency, dir.Est.Latency)
	}
	if dec.Est.Accuracy <= 0 || dec.Est.Accuracy > 1 {
		t.Fatalf("accuracy = %v", dec.Est.Accuracy)
	}
}

func TestDegradedLLMReducesRecallNotCrash(t *testing.T) {
	f := newFixture(t, 0.0) // always degraded
	needs := f.planner.Analyze(runningExample, f.bind)
	plan, err := f.planner.PlanDecomposed(runningExample, f.bind, needs, "taxonomy")
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.exec.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Usage.Accuracy >= 1.0 {
		t.Fatalf("degraded accuracy = %v", res.Usage.Accuracy)
	}
	// Perfect model finds 5; degraded should find <= 5 (dropped city).
	if len(res.Rows) > 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestPlanValidate(t *testing.T) {
	p := &Plan{Output: "x", Nodes: []Node{{ID: "x", Kind: OpConst}}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Plan{
		{Nodes: []Node{{ID: "a", Kind: OpConst}}},                                    // no output
		{Output: "a", Nodes: []Node{{ID: "a"}, {ID: "a"}}},                           // dup
		{Output: "b", Nodes: []Node{{ID: "b", DependsOn: []string{"zzz"}}}},          // missing dep
		{Output: "b", Nodes: []Node{{ID: "b", DependsOn: []string{"c"}}, {ID: "c"}}}, // forward dep
		{Output: "missing", Nodes: []Node{{ID: "a"}}},                                // bad output
		{Output: "a", Nodes: []Node{{ID: ""}, {ID: "a"}}},                            // empty id
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d validated", i)
		}
	}
}

func TestPlanString(t *testing.T) {
	f := newFixture(t, 1.0)
	plan, _ := f.planner.Plan(runningExample, f.bind, "taxonomy")
	s := plan.String()
	if !strings.Contains(s, "decomposed") || !strings.Contains(s, "select") {
		t.Fatalf("render = %s", s)
	}
}

func TestExecutorOperators(t *testing.T) {
	f := newFixture(t, 1.0)
	// Union + const + summarize pipeline.
	plan := &Plan{
		Query:    "misc",
		Strategy: "manual",
		Nodes: []Node{
			{ID: "a", Kind: OpLLM, Args: map[string]any{"prompt": nlq.Q2NL("cities_in_region", "seattle area")}},
			{ID: "b", Kind: OpLLM, Args: map[string]any{"prompt": nlq.Q2NL("cities_in_region", "socal")}},
			{ID: "u", Kind: OpUnion, DependsOn: []string{"a", "b"}},
			{ID: "s", Kind: OpSummarize, DependsOn: []string{"u"}, Args: map[string]any{"max_words": 20}},
		},
		Output: "s",
	}
	res, err := f.exec.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Text, "Summary:") || !strings.Contains(res.Text, "Seattle") {
		t.Fatalf("text = %q", res.Text)
	}
	// Extract operator with text_from chaining.
	plan2 := &Plan{
		Query: "x", Strategy: "manual",
		Nodes: []Node{
			{ID: "c", Kind: OpConst, Args: map[string]any{"value": "I am looking for a data scientist position in SF bay area."}},
			{ID: "e", Kind: OpExtract, DependsOn: []string{"c"}, Args: map[string]any{"instruction": "criteria", "text_from": "c"}},
		},
		Output: "e",
	}
	res2, err := f.exec.Execute(plan2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Text != "data scientist position in SF bay area" {
		t.Fatalf("extract = %q", res2.Text)
	}
}

func TestExecutorMissingSources(t *testing.T) {
	e := NewExecutor(Sources{})
	plans := []*Plan{
		{Output: "q", Nodes: []Node{{ID: "q", Kind: OpSQL, Args: map[string]any{"sql": "SELECT 1"}}}},
		{Output: "l", Nodes: []Node{{ID: "l", Kind: OpLLM, Args: map[string]any{"prompt": "x"}}}},
		{Output: "g", Nodes: []Node{{ID: "g", Kind: OpGraphExpand, Args: map[string]any{"asset": "t", "entity": "x"}}}},
		{Output: "d", Nodes: []Node{{ID: "d", Kind: OpDocFind, Args: map[string]any{"collection": "c"}}}},
		{Output: "x", Nodes: []Node{{ID: "x", Kind: OpKind("bogus")}}},
	}
	for i, p := range plans {
		if _, err := e.Execute(p); err == nil {
			t.Fatalf("case %d executed without sources", i)
		}
	}
}

func TestEmptyExpansionMatchesNothing(t *testing.T) {
	f := newFixture(t, 1.0)
	plan := &Plan{
		Query: "x", Strategy: "manual",
		Nodes: []Node{
			{ID: "cities", Kind: OpLLM, Args: map[string]any{"prompt": "list the cities in the atlantis"}},
			{ID: "select", Kind: OpSelectIn, DependsOn: []string{"cities"},
				Args: map[string]any{"table": "jobs", "city_col": "city", "city_from": "cities"}},
		},
		Output: "select",
	}
	res, err := f.exec.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("unknown region must match nothing, got %v", res.Rows)
	}
}

func TestDocFindOperator(t *testing.T) {
	f := newFixture(t, 1.0)
	ds := newDocs(t)
	f.exec = NewExecutor(Sources{Docs: ds})
	plan := &Plan{
		Query: "profiles", Strategy: "manual",
		Nodes:  []Node{{ID: "d", Kind: OpDocFind, Args: map[string]any{"collection": "profiles", "field": "title", "value": "Data Scientist"}}},
		Output: "d",
	}
	res, err := f.exec.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["name"] != "Ada" {
		t.Fatalf("doc rows = %v", res.Rows)
	}
}
