package experiments

import (
	"fmt"
	"time"

	"blueprint/internal/budget"
	"blueprint/internal/dataplan"
	"blueprint/internal/graphstore"
	"blueprint/internal/llm"
	"blueprint/internal/optimizer"
	"blueprint/internal/registry"
	"blueprint/internal/workload"
)

// Fig7DataPlan reproduces the paper's central data-planning result: the
// direct NL2Q strategy cannot scope "SF bay area" (regional recall
// collapses), while the decomposed plan — Q2NL -> LLM cities, taxonomy
// title expansion, select — recovers it, at higher cost. The sweep over LLM
// accuracies shows decomposed recall degrading gracefully with source
// quality.
func Fig7DataPlan(seed int64) (*Table, error) {
	ent, err := workload.Build(seed, workload.SmallScale())
	if err != nil {
		return nil, err
	}
	dataReg := registry.NewDataRegistry()
	if err := dataReg.ImportRelational("hr", "HR database", "conn", ent.DB); err != nil {
		return nil, err
	}
	if err := dataReg.ImportGraph("taxonomy", "title taxonomy", "conn", ent.Graph); err != nil {
		return nil, err
	}
	if err := dataReg.RegisterLLMSource("gpt-sim", "general knowledge", registry.QoSProfile{
		CostPerCall: 0.01, Latency: 50 * time.Millisecond, Accuracy: 0.9,
	}); err != nil {
		return nil, err
	}
	planner := dataplan.NewPlanner(dataReg, ent.KB)
	tgt, err := dataplan.BuildTarget(ent.DB, "jobs")
	if err != nil {
		return nil, err
	}
	asset, err := dataReg.Get("hr.jobs")
	if err != nil {
		return nil, err
	}
	bind := dataplan.TableBinding{Asset: asset, Target: tgt}
	const query = "data scientist position in SF bay area"

	recall := func(rows []map[string]any) float64 {
		if len(ent.BayAreaDSJobIDs) == 0 {
			return 0
		}
		hit := 0
		for _, r := range rows {
			if id, ok := r["id"].(int64); ok && ent.BayAreaDSJobIDs[id] {
				hit++
			}
		}
		return float64(hit) / float64(len(ent.BayAreaDSJobIDs))
	}
	precision := func(rows []map[string]any) float64 {
		if len(rows) == 0 {
			return 0
		}
		hit := 0
		for _, r := range rows {
			if id, ok := r["id"].(int64); ok && ent.BayAreaDSJobIDs[id] {
				hit++
			}
		}
		return float64(hit) / float64(len(rows))
	}

	t := &Table{ID: "F7", Title: "Data plan: direct NL2Q vs Fig. 7 decomposition"}
	// Average each configuration over several model seeds: SimLLM's
	// degradation is deterministic per (seed, prompt), so the sweep needs a
	// seed population to expose the average behaviour.
	const trials = 20
	for _, cfg := range []struct {
		label    string
		accuracy float64
		strategy string
	}{
		{"direct", 1.0, "direct"},
		{"decomposed acc=1.0", 1.0, "decomposed"},
		{"decomposed acc=0.9", 0.9, "decomposed"},
		{"decomposed acc=0.7", 0.7, "decomposed"},
	} {
		var sumRecall, sumPrecision, sumCost, sumRows float64
		var sumLatency time.Duration
		for trial := 0; trial < trials; trial++ {
			model := llm.New(llm.Config{
				Name: "f7-llm", Tier: llm.TierLarge, CostPer1K: 0.01,
				BaseLatency: time.Millisecond, Accuracy: cfg.accuracy, Seed: seed + int64(trial),
			}, ent.KB)
			exec := dataplan.NewExecutor(dataplan.Sources{
				Relational: ent.DB,
				Graphs:     map[string]*graphstore.Graph{"taxonomy": ent.Graph},
				Model:      model,
			}, nil)
			var plan *dataplan.Plan
			if cfg.strategy == "direct" {
				plan, err = planner.PlanDirect(query, bind)
			} else {
				needs := planner.Analyze(query, bind)
				plan, err = planner.PlanDecomposed(query, bind, needs, "taxonomy")
			}
			if err != nil {
				return nil, err
			}
			start := time.Now()
			res, err := exec.Execute(plan)
			if err != nil {
				return nil, err
			}
			sumLatency += time.Since(start)
			sumRecall += recall(res.Rows)
			sumPrecision += precision(res.Rows)
			sumCost += res.Usage.Cost
			sumRows += float64(len(res.Rows))
		}
		t.Rows = append(t.Rows, Row{Series: cfg.label, Metrics: []Metric{
			{"rows", fmt.Sprintf("%.1f", sumRows/trials)},
			{"recall", pct(sumRecall / trials)},
			{"precision", pct(sumPrecision / trials)},
			{"cost", dollars(sumCost / trials)},
			{"latency", ms(sumLatency / trials)},
		}})
	}
	t.Notes = append(t.Notes,
		"direct matches title only — regional recall collapses exactly as §V-G predicts",
		"decomposed recall degrades gracefully as the LLM source drops cities (simulated accuracy)")
	return t, nil
}

// AblationOptimizer (§IV) shows multi-objective model-tier selection and the
// strategy crossover on data plans.
func AblationOptimizer(seed int64) (*Table, error) {
	t := &Table{ID: "A2", Title: "Optimizer ablation (§IV): objectives drive tier and strategy choice"}

	// Model-tier selection across objectives and task sizes.
	configs := llm.Presets(seed)
	for _, mode := range []struct {
		label string
		obj   optimizer.Objectives
		lim   budget.Limits
	}{
		{"cheapest", optimizer.CheapestObjectives(), budget.Limits{}},
		{"accuracy-first", optimizer.BestObjectives(), budget.Limits{}},
		{"balanced", optimizer.DefaultObjectives(), budget.Limits{}},
		{"acc>=0.85,cost<=$0.005", optimizer.DefaultObjectives(), budget.Limits{MinAccuracy: 0.85, MaxCost: 0.005}},
	} {
		cfg, err := optimizer.ChooseModelTier(configs, 1000, mode.obj, mode.lim)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Row{Series: "tier " + mode.label, Metrics: []Metric{
			{"chosen", string(cfg.Tier)},
			{"cost/1k", dollars(cfg.CostPer1K)},
			{"accuracy", fmt.Sprintf("%.2f", cfg.Accuracy)},
		}})
	}

	// Pareto frontier over the tiers at 1000 tokens.
	cands := make([]optimizer.Candidate, 0, len(configs))
	for _, cfg := range configs {
		cands = append(cands, optimizer.Candidate{
			ID: cfg.Name, Cost: cfg.CostPer1K, Latency: cfg.BaseLatency, Accuracy: cfg.Accuracy,
		})
	}
	front := optimizer.Pareto(cands)
	names := make([]string, len(front))
	for i, c := range front {
		names[i] = c.ID
	}
	t.Rows = append(t.Rows, Row{Series: "pareto frontier", Metrics: []Metric{
		{"size", fmt.Sprint(len(front))},
		{"members", fmt.Sprint(names)},
	}})

	// Data-plan strategy crossover (uses Fig. 7 estimates).
	direct := &dataplan.Plan{Strategy: "direct", Est: dataplan.Estimate{Cost: 0.0001, Latency: time.Millisecond, Accuracy: 0.3}}
	decomposed := &dataplan.Plan{Strategy: "decomposed", Est: dataplan.Estimate{Cost: 0.0102, Latency: 52 * time.Millisecond, Accuracy: 0.95}}
	for _, mode := range []struct {
		label string
		obj   optimizer.Objectives
	}{
		{"cheapest", optimizer.CheapestObjectives()},
		{"accuracy-first", optimizer.BestObjectives()},
	} {
		chosen, err := optimizer.ChooseDataPlan([]*dataplan.Plan{direct, decomposed}, mode.obj, budget.Limits{})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Row{Series: "plan " + mode.label, Metrics: []Metric{
			{"chosen", chosen.Strategy},
		}})
	}
	return t, nil
}
