// Data Planner (Fig. 7): shows the paper's central data-planning example.
// The query "data scientist position in SF bay area" cannot be answered by
// direct NL2Q — "SF bay area" matches no city value — so the planner
// decomposes it: an injected Q2NL operator asks the LLM source for the
// region's cities, the taxonomy graph expands the title, and a select
// operator recombines them. This example runs both strategies, prints both
// plans, and reports recall against the generated ground truth, then lets
// the optimizer choose a strategy under different objectives.
package main

import (
	"fmt"
	"log"

	"blueprint"
	"blueprint/internal/budget"
	"blueprint/internal/dataplan"
	"blueprint/internal/graphstore"
	"blueprint/internal/optimizer"
)

func main() {
	sys, err := blueprint.New(blueprint.Config{ModelAccuracy: 1.0})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	const query = "data scientist position in SF bay area"
	ent := sys.Enterprise

	tgt, err := dataplan.BuildTarget(ent.DB, "jobs")
	if err != nil {
		log.Fatal(err)
	}
	asset, err := sys.DataRegistry.Get("hr.jobs")
	if err != nil {
		log.Fatal(err)
	}
	bind := dataplan.TableBinding{Asset: asset, Target: tgt}
	exec := dataplan.NewExecutor(dataplan.Sources{
		Relational: ent.DB,
		Graphs:     map[string]*graphstore.Graph{"taxonomy": ent.Graph},
		Model:      sys.Model,
	}, nil)

	recall := func(rows []map[string]any) float64 {
		hit := 0
		for _, r := range rows {
			if id, ok := r["id"].(int64); ok && ent.BayAreaDSJobIDs[id] {
				hit++
			}
		}
		if len(ent.BayAreaDSJobIDs) == 0 {
			return 0
		}
		return float64(hit) / float64(len(ent.BayAreaDSJobIDs))
	}

	// Strategy 1: direct NL2Q.
	direct, err := sys.DataPlanner.PlanDirect(query, bind)
	if err != nil {
		log.Fatal(err)
	}
	dRes, err := exec.Execute(direct)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== direct plan ==")
	fmt.Println(direct)
	fmt.Printf("rows=%d recall=%.2f cost=$%.5f\n\n", len(dRes.Rows), recall(dRes.Rows), dRes.Usage.Cost)

	// Strategy 2: decomposed (Fig. 7).
	needs := sys.DataPlanner.Analyze(query, bind)
	decomposed, err := sys.DataPlanner.PlanDecomposed(query, bind, needs, "taxonomy")
	if err != nil {
		log.Fatal(err)
	}
	cRes, err := exec.Execute(decomposed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== decomposed plan (Fig. 7) ==")
	fmt.Println(decomposed)
	fmt.Printf("rows=%d recall=%.2f cost=$%.5f\n\n", len(cRes.Rows), recall(cRes.Rows), cRes.Usage.Cost)
	for _, line := range cRes.Trace {
		fmt.Println("  trace:", line)
	}

	// The optimizer chooses between the strategies under objectives.
	fmt.Println("\n== optimizer choices ==")
	for _, mode := range []struct {
		name string
		obj  optimizer.Objectives
	}{
		{"cheapest", optimizer.CheapestObjectives()},
		{"most accurate", optimizer.BestObjectives()},
		{"balanced", optimizer.DefaultObjectives()},
	} {
		chosen, err := optimizer.ChooseDataPlan([]*dataplan.Plan{direct, decomposed}, mode.obj, budget.Limits{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-14s -> %s (est cost $%.5f, accuracy %.2f)\n",
			mode.name, chosen.Strategy, chosen.Est.Cost, chosen.Est.Accuracy)
	}
}
