package dataplan

import (
	"fmt"
	"strings"
	"time"

	"blueprint/internal/llm"
	"blueprint/internal/nlq"
	"blueprint/internal/registry"
	"blueprint/internal/relational"
)

// Planner produces data plans from natural-language requests using the data
// registry for discovery and source metadata.
type Planner struct {
	reg *registry.DataRegistry
	kb  *llm.KnowledgeBase
}

// NewPlanner creates a data planner. The knowledge base is used only to
// *detect* that a query fragment (like a region) needs an LLM source — the
// actual lookup happens at execution time through the LLM operator.
func NewPlanner(reg *registry.DataRegistry, kb *llm.KnowledgeBase) *Planner {
	if kb == nil {
		kb = llm.DefaultKnowledgeBase()
	}
	return &Planner{reg: reg, kb: kb}
}

// TableBinding tells the planner how a discovered table maps to NL2Q.
type TableBinding struct {
	Asset  registry.DataAsset
	Target nlq.Target
}

// BuildTarget derives an NL2Q target from a live relational table. It is a
// pure mapping over the table's cached profile (relational.DB.Profile), which
// the engine rebuilds only after a write to the table: an ask that follows no
// write scans nothing.
func BuildTarget(db *relational.DB, table string) (nlq.Target, error) {
	p, _, err := db.Profile(table)
	if err != nil {
		return nlq.Target{}, err
	}
	return TargetOf(p), nil
}

// TargetOf maps a table profile to an NL2Q target: columns and types from
// the catalog, value hints in the profile's grounding order.
func TargetOf(p *relational.TableProfile) nlq.Target {
	tgt := nlq.Target{
		Table:   p.Table,
		Columns: make([]string, 0, len(p.Columns)),
		Hints:   make([]nlq.Hint, len(p.Hints)),
	}
	for _, c := range p.Columns {
		tgt.Columns = append(tgt.Columns, c.Name)
		switch c.Type {
		case relational.TInt, relational.TFloat:
			tgt.NumericColumns = append(tgt.NumericColumns, c.Name)
		case relational.TString:
			tgt.TextColumns = append(tgt.TextColumns, c.Name)
		}
	}
	for i, h := range p.Hints {
		tgt.Hints[i] = nlq.Hint(h)
	}
	if len(tgt.TextColumns) > 0 {
		tgt.DefaultTextColumn = tgt.TextColumns[0]
	}
	return tgt
}

// PlanDirect produces the single-source strategy: NL2Q over the bound table,
// then SQL. It works when every query fragment grounds directly in table
// values and misses otherwise — the baseline the decomposed plan beats in
// the Fig. 7 experiment.
func (p *Planner) PlanDirect(query string, bind TableBinding) (*Plan, error) {
	c, err := nlq.Compile(query, bind.Target)
	if err != nil {
		return nil, err
	}
	plan := &Plan{
		Query:    query,
		Strategy: "direct",
		Nodes: []Node{
			{ID: "q", Kind: OpSQL, Args: map[string]any{"sql": c.SQL}},
		},
		Output:      "q",
		Explanation: append([]string{"direct NL2Q against " + bind.Asset.Name}, c.Explanation...),
	}
	p.estimate(plan)
	// The direct strategy's accuracy estimate reflects NL2Q grounding
	// confidence — and provably misses region scoping when the location
	// fragment has no literal city value (the Fig. 7 failure mode).
	plan.Est.Accuracy *= c.Confidence
	if needs := p.Analyze(query, bind); needs.Region != "" {
		plan.Est.Accuracy *= 0.4
		plan.Explanation = append(plan.Explanation,
			fmt.Sprintf("warning: region %q does not ground in table values; expected recall loss", needs.Region))
	}
	return plan, plan.Validate()
}

// DecompositionNeeds reports which fragments of the query require non-
// relational sources: a region that is not a literal city value, and a title
// that benefits from taxonomy expansion.
type DecompositionNeeds struct {
	Region string // e.g. "sf bay area" ("" when none detected)
	Title  string // e.g. "data scientist" ("" when none detected)
}

// Analyze inspects the query for fragments that will not ground in the bound
// table's values — the decision point of §V-G ("'SF bay area' won't match
// any city in the database").
func (p *Planner) Analyze(query string, bind TableBinding) DecompositionNeeds {
	var needs DecompositionNeeds
	q := strings.ToLower(query)
	if loc := p.kb.Extract("location", q); loc != "" {
		isLiteralCity := false
		for _, h := range bind.Target.Hints {
			if strings.EqualFold(h.Value, loc) {
				isLiteralCity = true
			}
		}
		if !isLiteralCity {
			needs.Region = loc
		}
	}
	if title := p.kb.Extract("title", q); title != "" {
		needs.Title = title
	}
	return needs
}

// PlanDecomposed produces the Fig. 7 strategy for queries over the bound
// jobs-like table:
//
//	region  --Q2NL--> LLM source  --> cities list --+
//	title   --graph/LLM expand--> titles list ------+--> SELECT ... WHERE
//	                                                      city IN (...) AND
//	                                                      title IN (...)
//
// graphAsset optionally names a registered taxonomy graph to prefer over the
// LLM for title expansion (cheaper and exact).
func (p *Planner) PlanDecomposed(query string, bind TableBinding, needs DecompositionNeeds, graphAsset string) (*Plan, error) {
	if needs.Region == "" && needs.Title == "" {
		return nil, fmt.Errorf("dataplan: nothing to decompose for %q", query)
	}
	cityCol, titleCol := pickColumn(bind.Target, "city"), pickColumn(bind.Target, "title")
	plan := &Plan{Query: query, Strategy: "decomposed"}
	var deps []string
	args := map[string]any{"table": bind.Target.Table}

	if needs.Region != "" && cityCol != "" {
		plan.Nodes = append(plan.Nodes, Node{
			ID:   "cities",
			Kind: OpLLM,
			Args: map[string]any{
				"prompt": nlq.Q2NL("cities_in_region", needs.Region),
			},
		})
		plan.Explanation = append(plan.Explanation,
			fmt.Sprintf("region %q is not a city value; injected Q2NL -> LLM source", needs.Region))
		deps = append(deps, "cities")
		args["city_col"] = cityCol
		args["city_from"] = "cities"
	}
	if needs.Title != "" && titleCol != "" {
		if graphAsset != "" {
			plan.Nodes = append(plan.Nodes, Node{
				ID:   "titles",
				Kind: OpGraphExpand,
				Args: map[string]any{"entity": needs.Title, "asset": graphAsset},
			})
			plan.Explanation = append(plan.Explanation,
				fmt.Sprintf("title %q expanded via taxonomy graph %s", needs.Title, graphAsset))
		} else {
			plan.Nodes = append(plan.Nodes, Node{
				ID:   "titles",
				Kind: OpLLM,
				Args: map[string]any{"prompt": nlq.Q2NL("related_titles", needs.Title)},
			})
			plan.Explanation = append(plan.Explanation,
				fmt.Sprintf("title %q expanded via LLM source", needs.Title))
		}
		deps = append(deps, "titles")
		args["title_col"] = titleCol
		args["title_from"] = "titles"
	}

	plan.Nodes = append(plan.Nodes, Node{
		ID:        "select",
		Kind:      OpSelectIn,
		Args:      args,
		DependsOn: deps,
	})
	plan.Output = "select"
	p.estimate(plan)
	return plan, plan.Validate()
}

// Plan chooses a strategy: if Analyze finds non-groundable fragments it
// decomposes (preferring a graph asset registered for titles), otherwise it
// goes direct.
func (p *Planner) Plan(query string, bind TableBinding, graphAsset string) (*Plan, error) {
	needs := p.Analyze(query, bind)
	if needs.Region == "" {
		return p.PlanDirect(query, bind)
	}
	return p.PlanDecomposed(query, bind, needs, graphAsset)
}

// PlanFor is privilege-aware planning (§VII data governance): it refuses to
// plan over assets the principal agent is not authorized to use, so
// restricted data never enters a plan on behalf of an unprivileged agent.
func (p *Planner) PlanFor(principal, query string, bind TableBinding, graphAsset string) (*Plan, error) {
	if p.reg != nil {
		if err := p.reg.CheckAccess(bind.Asset.Name, principal); err != nil {
			return nil, err
		}
		if graphAsset != "" {
			if err := p.reg.CheckAccess(graphAsset, principal); err != nil {
				// Fall back to the LLM for title expansion rather than fail:
				// the graph is an optimization, not a requirement.
				graphAsset = ""
			}
		}
	}
	return p.Plan(query, bind, graphAsset)
}

// pickColumn finds a column whose name contains the concept (e.g. "city").
func pickColumn(t nlq.Target, concept string) string {
	for _, c := range t.Columns {
		if strings.Contains(strings.ToLower(c), concept) {
			return c
		}
	}
	return ""
}

// estimate fills the plan's QoS projection from registry metadata: LLM
// operators inherit the registered LLM source QoS; SQL operators scale with
// table size; graph operators are cheap and exact.
func (p *Planner) estimate(plan *Plan) {
	est := Estimate{Accuracy: 1.0}
	llmQoS := registry.QoSProfile{CostPerCall: 0.01, Latency: 100 * time.Millisecond, Accuracy: 0.9}
	if p.reg != nil {
		if srcs := p.reg.List("", registry.KindLLM); len(srcs) > 0 {
			llmQoS = srcs[0].QoS
		}
	}
	for _, n := range plan.Nodes {
		switch n.Kind {
		case OpLLM, OpExtract, OpSummarize:
			est.Cost += llmQoS.CostPerCall
			est.Latency += llmQoS.Latency
			if llmQoS.Accuracy > 0 {
				est.Accuracy *= llmQoS.Accuracy
			}
		case OpSQL, OpSelectIn, OpNL2Q:
			rows := 1000
			if p.reg != nil {
				if tbl, ok := n.Args["table"].(string); ok {
					for _, a := range p.reg.List(registry.LevelTable, "") {
						if strings.HasSuffix(strings.ToLower(a.Name), "."+strings.ToLower(tbl)) {
							rows = a.Rows
						}
					}
				}
			}
			est.Latency += time.Duration(rows) * 500 * time.Nanosecond
			est.Cost += 0.0001
		case OpGraphExpand:
			est.Latency += 2 * time.Millisecond
			est.Cost += 0.0001
		case OpDocFind:
			est.Latency += 3 * time.Millisecond
			est.Cost += 0.0001
		case OpUnion, OpConst:
			// free
		}
	}
	plan.Est = est
}
