package optimizer

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"blueprint/internal/budget"
	"blueprint/internal/dataplan"
	"blueprint/internal/llm"
	"blueprint/internal/memo"
	"blueprint/internal/planner"
	"blueprint/internal/registry"
)

func tiers() []Candidate {
	return []Candidate{
		{ID: "small", Cost: 0.001, Latency: 20 * time.Millisecond, Accuracy: 0.75},
		{ID: "medium", Cost: 0.006, Latency: 60 * time.Millisecond, Accuracy: 0.90},
		{ID: "large", Cost: 0.030, Latency: 160 * time.Millisecond, Accuracy: 0.98},
	}
}

func TestChooseCheapest(t *testing.T) {
	c, err := Choose(tiers(), CheapestObjectives(), budget.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if c.ID != "small" {
		t.Fatalf("cheapest = %s", c.ID)
	}
}

func TestChooseMostAccurate(t *testing.T) {
	c, err := Choose(tiers(), BestObjectives(), budget.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if c.ID != "large" {
		t.Fatalf("best = %s", c.ID)
	}
}

func TestChooseBalancedUnderConstraints(t *testing.T) {
	// Accuracy floor forces out small; cost cap forces out large.
	c, err := Choose(tiers(), DefaultObjectives(), budget.Limits{MinAccuracy: 0.85, MaxCost: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if c.ID != "medium" {
		t.Fatalf("constrained = %s", c.ID)
	}
}

func TestChooseLatencyCap(t *testing.T) {
	c, err := Choose(tiers(), BestObjectives(), budget.Limits{MaxLatency: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if c.ID != "medium" {
		t.Fatalf("latency-capped best = %s", c.ID)
	}
}

func TestChooseInfeasible(t *testing.T) {
	_, err := Choose(tiers(), DefaultObjectives(), budget.Limits{MaxCost: 0.0001})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v", err)
	}
	_, err = Choose(nil, DefaultObjectives(), budget.Limits{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("empty err = %v", err)
	}
}

func TestScoresNormalization(t *testing.T) {
	s := Scores(tiers(), DefaultObjectives())
	if len(s) != 3 {
		t.Fatalf("scores = %v", s)
	}
	// Identical candidates score identically (no division by zero).
	same := []Candidate{{ID: "a", Cost: 1, Latency: time.Second, Accuracy: 0.5}, {ID: "b", Cost: 1, Latency: time.Second, Accuracy: 0.5}}
	ss := Scores(same, DefaultObjectives())
	if ss[0] != ss[1] {
		t.Fatalf("identical candidates diverge: %v", ss)
	}
	if Scores(nil, DefaultObjectives()) != nil {
		t.Fatal("nil scores")
	}
}

func TestPareto(t *testing.T) {
	cands := append(tiers(), Candidate{ID: "dominated", Cost: 0.031, Latency: 200 * time.Millisecond, Accuracy: 0.90})
	front := Pareto(cands)
	if len(front) != 3 {
		t.Fatalf("frontier = %+v", front)
	}
	for _, c := range front {
		if c.ID == "dominated" {
			t.Fatal("dominated candidate on frontier")
		}
	}
	// Sorted by cost.
	for i := 1; i < len(front); i++ {
		if front[i-1].Cost > front[i].Cost {
			t.Fatal("frontier not sorted")
		}
	}
}

func TestChooseModelTier(t *testing.T) {
	configs := llm.Presets(1)
	cfg, err := ChooseModelTier(configs, 500, BestObjectives(), budget.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Tier != llm.TierLarge {
		t.Fatalf("best tier = %s", cfg.Tier)
	}
	cfg, err = ChooseModelTier(configs, 500, CheapestObjectives(), budget.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Tier != llm.TierSmall {
		t.Fatalf("cheapest tier = %s", cfg.Tier)
	}
	// Accuracy floor with tight cost: medium wins.
	cfg, err = ChooseModelTier(configs, 1000, DefaultObjectives(), budget.Limits{MinAccuracy: 0.85, MaxCost: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Tier != llm.TierMedium {
		t.Fatalf("constrained tier = %s", cfg.Tier)
	}
	// Zero tokens defaults sanely.
	if _, err := ChooseModelTier(configs, 0, DefaultObjectives(), budget.Limits{}); err != nil {
		t.Fatal(err)
	}
}

func TestChooseDataPlan(t *testing.T) {
	direct := &dataplan.Plan{Strategy: "direct", Est: dataplan.Estimate{Cost: 0.0001, Latency: time.Millisecond, Accuracy: 0.5}}
	decomposed := &dataplan.Plan{Strategy: "decomposed", Est: dataplan.Estimate{Cost: 0.02, Latency: 100 * time.Millisecond, Accuracy: 0.95}}
	p, err := ChooseDataPlan([]*dataplan.Plan{direct, decomposed}, BestObjectives(), budget.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Strategy != "decomposed" {
		t.Fatalf("best plan = %s", p.Strategy)
	}
	p, err = ChooseDataPlan([]*dataplan.Plan{direct, decomposed}, CheapestObjectives(), budget.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Strategy != "direct" {
		t.Fatalf("cheapest plan = %s", p.Strategy)
	}
	// Accuracy floor forces decomposed even when minimizing cost.
	p, err = ChooseDataPlan([]*dataplan.Plan{direct, decomposed}, CheapestObjectives(), budget.Limits{MinAccuracy: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if p.Strategy != "decomposed" {
		t.Fatalf("floored plan = %s", p.Strategy)
	}
}

func optimizerRegistry(t testing.TB) *registry.AgentRegistry {
	t.Helper()
	r := registry.NewAgentRegistry()
	specs := []registry.AgentSpec{
		{
			Name:        "MATCHER_PREMIUM",
			Description: "match job seeker profiles with job listings using a large accurate model",
			QoS:         registry.QoSProfile{CostPerCall: 0.05, Latency: 200 * time.Millisecond, Accuracy: 0.97},
		},
		{
			Name:        "MATCHER_BUDGET",
			Description: "match job seeker profiles with job listings using a small cheap model",
			QoS:         registry.QoSProfile{CostPerCall: 0.002, Latency: 20 * time.Millisecond, Accuracy: 0.8},
		},
	}
	for _, s := range specs {
		if err := r.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestAssignAgents(t *testing.T) {
	reg := optimizerRegistry(t)
	p := &planner.Plan{
		ID: "p", Utterance: "match me", Intent: "rank",
		Steps: []planner.Step{{ID: "s1", Agent: "MATCHER_PREMIUM", Task: "match job seeker profiles with job listings"}},
	}
	changed, err := AssignAgents(p, reg, CheapestObjectives(), budget.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if changed != 1 || p.Steps[0].Agent != "MATCHER_BUDGET" {
		t.Fatalf("assignment = %+v (changed=%d)", p.Steps[0], changed)
	}
	// Accuracy-first flips it back.
	changed, err = AssignAgents(p, reg, BestObjectives(), budget.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if changed != 1 || p.Steps[0].Agent != "MATCHER_PREMIUM" {
		t.Fatalf("assignment = %+v", p.Steps[0])
	}
	// No feasible candidate: keep original.
	changed, err = AssignAgents(p, reg, DefaultObjectives(), budget.Limits{MaxCost: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if changed != 0 || p.Steps[0].Agent != "MATCHER_PREMIUM" {
		t.Fatalf("infeasible must keep original: %+v", p.Steps[0])
	}
}

// graphOf derives the plan's graph, as ExecutePlan does before projecting.
func graphOf(t *testing.T, p *planner.Plan) planner.Graph {
	t.Helper()
	g, err := p.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEstimatePlanChain(t *testing.T) {
	reg := optimizerRegistry(t)
	// s1 -> s2 -> s3: a chain's critical path is the sum of its steps.
	p := &planner.Plan{
		Steps: []planner.Step{
			{ID: "s1", Agent: "MATCHER_PREMIUM"},
			{ID: "s2", Agent: "MATCHER_BUDGET",
				Bindings: map[string]planner.Binding{"IN": {FromStep: "s1", FromParam: "OUT"}}},
			{ID: "s3", Agent: "UNKNOWN",
				Bindings: map[string]planner.Binding{"IN": {FromStep: "s2", FromParam: "OUT"}}},
		},
	}
	cost, lat, acc, _ := EstimatePlanWithMemo(p, graphOf(t, p), reg, nil)
	if cost < 0.052-1e-9 || cost > 0.052+1e-9 {
		t.Fatalf("cost = %v", cost)
	}
	if lat != 220*time.Millisecond {
		t.Fatalf("latency = %v", lat)
	}
	want := 0.97 * 0.8
	if acc < want-1e-9 || acc > want+1e-9 {
		t.Fatalf("accuracy = %v", acc)
	}

	// Without a memo store the projection allocates no map: the expected-hit
	// outputs, the step latencies and the finish times do not escape and stay
	// on the stack. Measured over no steps, so that the registry's own
	// allocations per lookup stay out of the count.
	if n := testing.AllocsPerRun(100, func() { EstimatePlanWithMemo(&planner.Plan{}, planner.Graph{}, reg, nil) }); n != 0 {
		t.Fatalf("cold projection of no steps: %v allocations, want 0", n)
	}
}

func TestEstimatePlanCriticalPathOverDAG(t *testing.T) {
	reg := optimizerRegistry(t)
	// s1 and s2 are independent (one wave): latency is the slower of the
	// two, not the sum — cost still sums over both.
	p := &planner.Plan{
		Steps: []planner.Step{
			{ID: "s1", Agent: "MATCHER_PREMIUM"},
			{ID: "s2", Agent: "MATCHER_BUDGET"},
		},
	}
	cost, lat, _, _ := EstimatePlanWithMemo(p, graphOf(t, p), reg, nil)
	if lat != 200*time.Millisecond {
		t.Fatalf("fan-out latency = %v, want max(200ms, 20ms)", lat)
	}
	if cost < 0.052-1e-9 || cost > 0.052+1e-9 {
		t.Fatalf("cost = %v", cost)
	}

	// Diamond: s1 -> {s2, s3} -> s4. Critical path runs through the slowest
	// middle step.
	dep := func(from ...string) map[string]planner.Binding {
		b := map[string]planner.Binding{}
		for i, f := range from {
			b[fmt.Sprintf("IN%d", i)] = planner.Binding{FromStep: f, FromParam: "OUT"}
		}
		return b
	}
	diamond := &planner.Plan{
		Steps: []planner.Step{
			{ID: "s1", Agent: "MATCHER_BUDGET"},
			{ID: "s2", Agent: "MATCHER_PREMIUM", Bindings: dep("s1")},
			{ID: "s3", Agent: "MATCHER_BUDGET", Bindings: dep("s1")},
			{ID: "s4", Agent: "MATCHER_BUDGET", Bindings: dep("s2", "s3")},
		},
	}
	_, lat, _, _ = EstimatePlanWithMemo(diamond, graphOf(t, diamond), reg, nil)
	if want := (20 + 200 + 20) * time.Millisecond; lat != want {
		t.Fatalf("diamond latency = %v, want %v", lat, want)
	}
}

func TestEstimatePlanWithMemoPricesResidualCost(t *testing.T) {
	reg := registry.NewAgentRegistry()
	for _, spec := range []registry.AgentSpec{
		{Name: "FETCH", Description: "fetch", Cacheable: true,
			Outputs: []registry.ParamSpec{{Name: "OUT", Type: "text"}},
			QoS:     registry.QoSProfile{CostPerCall: 0.01, Latency: 100 * time.Millisecond, Accuracy: 0.9}},
		{Name: "DERIVE", Description: "derive", Cacheable: true,
			Inputs:  []registry.ParamSpec{{Name: "IN", Type: "text"}},
			Outputs: []registry.ParamSpec{{Name: "OUT", Type: "text"}},
			QoS:     registry.QoSProfile{CostPerCall: 0.02, Latency: 50 * time.Millisecond, Accuracy: 0.9}},
	} {
		if err := reg.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	p := &planner.Plan{
		Utterance: "the ask",
		Steps: []planner.Step{
			{ID: "s1", Agent: "FETCH",
				Bindings: map[string]planner.Binding{"Q": {FromUserText: true}}},
			{ID: "s2", Agent: "DERIVE",
				Bindings: map[string]planner.Binding{"IN": {FromStep: "s1", FromParam: "OUT"}}},
		},
	}

	m := memo.New(16)
	// Cold store: the cold projection.
	cost, lat, _, hits := EstimatePlanWithMemo(p, graphOf(t, p), reg, m)
	if hits != 0 || cost != 0.03 || lat != 150*time.Millisecond {
		t.Fatalf("cold: cost=%v lat=%v hits=%d", cost, lat, hits)
	}

	// Warm s1: its projected contribution drops to zero, and its cached
	// outputs make s2's key computable — the chain projects fully warm.
	k1, err := memo.ComputeKey("FETCH", 1, map[string]any{"Q": "the ask"})
	if err != nil {
		t.Fatal(err)
	}
	m.Put(k1, "FETCH", nil, 0, memo.Entry{Outputs: map[string]any{"OUT": "fetched"}, Cost: 0.01})
	cost, lat, _, hits = EstimatePlanWithMemo(p, graphOf(t, p), reg, m)
	if hits != 1 || cost != 0.02 || lat != 50*time.Millisecond {
		t.Fatalf("s1 warm: cost=%v lat=%v hits=%d", cost, lat, hits)
	}
	k2, err := memo.ComputeKey("DERIVE", 1, map[string]any{"IN": "fetched"})
	if err != nil {
		t.Fatal(err)
	}
	m.Put(k2, "DERIVE", nil, 0, memo.Entry{Outputs: map[string]any{"OUT": "derived"}, Cost: 0.02})
	cost, lat, _, hits = EstimatePlanWithMemo(p, graphOf(t, p), reg, m)
	if hits != 2 || cost != 0 || lat != 0 {
		t.Fatalf("fully warm: cost=%v lat=%v hits=%d", cost, lat, hits)
	}

	// Nil store degrades to the cold projection.
	cost, _, _, hits = EstimatePlanWithMemo(p, graphOf(t, p), reg, nil)
	if hits != 0 || cost != 0.03 {
		t.Fatalf("nil store: cost=%v hits=%d", cost, hits)
	}
}

func TestEstimatePlanWithMemoTransformsAreMisses(t *testing.T) {
	reg := registry.NewAgentRegistry()
	if err := reg.Register(registry.AgentSpec{
		Name: "FETCH", Description: "fetch", Cacheable: true,
		Outputs: []registry.ParamSpec{{Name: "OUT", Type: "text"}},
		QoS:     registry.QoSProfile{CostPerCall: 0.01, Latency: 100 * time.Millisecond, Accuracy: 0.9},
	}); err != nil {
		t.Fatal(err)
	}
	p := &planner.Plan{
		Utterance: "the ask",
		Steps: []planner.Step{{ID: "s1", Agent: "FETCH",
			Bindings: map[string]planner.Binding{"Q": {FromUserText: true, Transform: "criteria"}}}},
	}
	m := memo.New(16)
	// Even a warm entry for the raw utterance cannot be projected: the
	// transform output is model-dependent, so the step prices as a miss.
	k, _ := memo.ComputeKey("FETCH", 1, map[string]any{"Q": "the ask"})
	m.Put(k, "FETCH", nil, 0, memo.Entry{})
	if cost, _, _, hits := EstimatePlanWithMemo(p, graphOf(t, p), reg, m); hits != 0 || cost != 0.01 {
		t.Fatalf("transform step projected as hit: cost=%v hits=%d", cost, hits)
	}
}

// CriticalPath is the longest latency-weighted dependency chain: held to a
// plain recursion over the bindings, on random DAGs (fan-out, fan-in, listed
// in shuffled order) with random step latencies, some steps unweighted.
func TestCriticalPathMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 1000; i++ {
		n := 1 + rng.Intn(8)
		p := &planner.Plan{}
		lat := map[string]time.Duration{}
		for j := 0; j < n; j++ {
			s := planner.Step{ID: fmt.Sprintf("s%d", j), Agent: "A", Bindings: map[string]planner.Binding{}}
			for k := 0; k < 3 && j > 0; k++ {
				if rng.Intn(2) == 0 {
					s.Bindings[fmt.Sprintf("IN_%d", k)] = planner.Binding{FromStep: fmt.Sprintf("s%d", rng.Intn(j)), FromParam: "OUT"}
				}
			}
			p.Steps = append(p.Steps, s)
			if rng.Intn(5) > 0 {
				lat[s.ID] = time.Duration(rng.Intn(500)) * time.Millisecond
			}
		}
		rng.Shuffle(n, func(a, b int) { p.Steps[a], p.Steps[b] = p.Steps[b], p.Steps[a] })

		var finish func(id string) time.Duration
		finish = func(id string) time.Duration {
			s, _ := p.Step(id)
			var start time.Duration
			for _, b := range s.Bindings {
				start = max(start, finish(b.FromStep))
			}
			return start + lat[id]
		}
		var want time.Duration
		for _, s := range p.Steps {
			want = max(want, finish(s.ID))
		}
		if got := CriticalPath(graphOf(t, p), lat); got != want {
			t.Fatalf("plan %d: CriticalPath = %v, longest path = %v\n%s", i, got, want, p)
		}
	}
}
