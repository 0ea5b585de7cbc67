package dataplan

import (
	"fmt"
	"strings"

	"blueprint/internal/clock"
	"blueprint/internal/docstore"
	"blueprint/internal/graphstore"
	"blueprint/internal/llm"
	"blueprint/internal/nlq"
	"blueprint/internal/relational"
)

// Sources binds the executor to live data sources. Any field may be nil if
// the plan does not use the corresponding operator kind.
type Sources struct {
	Relational *relational.DB
	Docs       *docstore.Store
	Graphs     map[string]*graphstore.Graph // keyed by registered asset name
	Model      *llm.Model
}

// Result is the outcome of executing a plan.
type Result struct {
	// Rows is set when the output operator is row-valued.
	Rows []map[string]any
	// List is set when the output is a string list.
	List []string
	// Text is set when the output is free text.
	Text string
	// Usage aggregates actuals across all operators.
	Usage Estimate
	// Trace records one line per executed node.
	Trace []string
}

// Executor runs data plans against bound sources.
type Executor struct {
	src Sources
	clk *clock.Clock // times a node that reports no latency of its own
}

// NewExecutor creates an executor. Data-plan SQL is highly repetitive per
// session (the same templated point and IN-list queries fire on every
// turn); DB.Query serves repeats from the engine's statement cache, so the
// parse cost is paid once per text. It times nodes on clk.
func NewExecutor(src Sources, clk *clock.Clock) *Executor {
	return &Executor{src: src, clk: clk}
}

// Execute runs the plan's nodes in order (insertion order is topological by
// Validate) and returns the output node's result.
func (e *Executor) Execute(plan *Plan) (*Result, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Usage: Estimate{Accuracy: 1.0}}
	values := map[string]any{}
	for _, n := range plan.Nodes {
		start := e.clk.Now()
		v, usage, err := e.run(n, values)
		if err != nil {
			return nil, fmt.Errorf("dataplan: node %s (%s): %w", n.ID, n.Kind, err)
		}
		if usage.Latency == 0 {
			usage.Latency = e.clk.Since(start)
		}
		res.Usage.Cost += usage.Cost
		res.Usage.Latency += usage.Latency
		if usage.Accuracy > 0 {
			res.Usage.Accuracy *= usage.Accuracy
		}
		values[n.ID] = v
		res.Trace = append(res.Trace, fmt.Sprintf("%s(%s): %s", n.ID, n.Kind, describe(v)))
	}
	switch out := values[plan.Output].(type) {
	case []map[string]any:
		res.Rows = out
	case []string:
		res.List = out
	case string:
		res.Text = out
	default:
		res.Text = fmt.Sprintf("%v", out)
	}
	return res, nil
}

func describe(v any) string {
	switch x := v.(type) {
	case []map[string]any:
		return fmt.Sprintf("%d rows", len(x))
	case []string:
		return fmt.Sprintf("%d items", len(x))
	case string:
		if len(x) > 40 {
			return x[:40] + "..."
		}
		return x
	default:
		return fmt.Sprintf("%v", v)
	}
}

func (e *Executor) run(n Node, values map[string]any) (any, Estimate, error) {
	switch n.Kind {
	case OpConst:
		return n.Args["value"], Estimate{Accuracy: 1}, nil

	case OpSQL:
		if e.src.Relational == nil {
			return nil, Estimate{}, fmt.Errorf("no relational source bound")
		}
		sql, _ := n.Args["sql"].(string)
		if sql == "" {
			return nil, Estimate{}, fmt.Errorf("missing sql arg")
		}
		res, err := e.src.Relational.Query(sql)
		if err != nil {
			return nil, Estimate{}, err
		}
		return res.Maps(), Estimate{Cost: 0.0001, Accuracy: 1}, nil

	case OpNL2Q:
		// Compiles then executes: args carry the query and a prebuilt target
		// table name.
		if e.src.Relational == nil {
			return nil, Estimate{}, fmt.Errorf("no relational source bound")
		}
		q, _ := n.Args["query"].(string)
		table, _ := n.Args["table"].(string)
		tgt, err := BuildTarget(e.src.Relational, table)
		if err != nil {
			return nil, Estimate{}, err
		}
		c, err := nlq.Compile(q, tgt)
		if err != nil {
			return nil, Estimate{}, err
		}
		res, err := e.src.Relational.Query(c.SQL)
		if err != nil {
			return nil, Estimate{}, err
		}
		return res.Maps(), Estimate{Cost: 0.0002, Accuracy: c.Confidence}, nil

	case OpLLM:
		if e.src.Model == nil {
			return nil, Estimate{}, fmt.Errorf("no LLM source bound")
		}
		prompt, _ := n.Args["prompt"].(string)
		list, usage := e.src.Model.KnowledgeList(prompt)
		acc := 1.0
		if usage.Degraded {
			acc = 0.5
		}
		return list, Estimate{Cost: usage.Cost, Latency: usage.Latency, Accuracy: acc}, nil

	case OpExtract:
		if e.src.Model == nil {
			return nil, Estimate{}, fmt.Errorf("no LLM source bound")
		}
		instruction, _ := n.Args["instruction"].(string)
		text, _ := n.Args["text"].(string)
		if from, ok := n.Args["text_from"].(string); ok {
			if s, ok2 := values[from].(string); ok2 {
				text = s
			}
		}
		out, usage := e.src.Model.Extract(instruction, text)
		acc := 1.0
		if usage.Degraded {
			acc = 0.5
		}
		return out, Estimate{Cost: usage.Cost, Latency: usage.Latency, Accuracy: acc}, nil

	case OpGraphExpand:
		assetName, _ := n.Args["asset"].(string)
		g := e.src.Graphs[assetName]
		if g == nil {
			return nil, Estimate{}, fmt.Errorf("graph asset %q not bound", assetName)
		}
		entity, _ := n.Args["entity"].(string)
		// Find the node by name property, then collect its related/child
		// neighborhood names.
		hits := g.FindNodes("name", entity)
		if len(hits) == 0 {
			return []string{}, Estimate{Cost: 0.0001, Accuracy: 1}, nil
		}
		seen := map[string]bool{}
		var out []string
		add := func(id string) {
			node, err := g.Node(id)
			if err != nil {
				return
			}
			if name, ok := node.Props["name"].(string); ok && !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
		for _, h := range hits {
			add(h.ID)
			ids, err := g.Traverse(h.ID, "", graphstore.Both, 1)
			if err != nil {
				continue
			}
			for _, id := range ids {
				node, err := g.Node(id)
				if err == nil && node.Label == "title" {
					add(id)
				}
			}
		}
		return out, Estimate{Cost: 0.0001, Accuracy: 1}, nil

	case OpDocFind:
		if e.src.Docs == nil {
			return nil, Estimate{}, fmt.Errorf("no document source bound")
		}
		coll, _ := n.Args["collection"].(string)
		field, _ := n.Args["field"].(string)
		hits, err := e.src.Docs.Find(coll, field, n.Args["value"])
		if err != nil {
			return nil, Estimate{}, err
		}
		rows := make([]map[string]any, len(hits))
		for i, h := range hits {
			m := map[string]any(h.Doc)
			m["_id"] = h.ID
			rows[i] = m
		}
		return rows, Estimate{Cost: 0.0001, Accuracy: 1}, nil

	case OpSelectIn:
		if e.src.Relational == nil {
			return nil, Estimate{}, fmt.Errorf("no relational source bound")
		}
		table, _ := n.Args["table"].(string)
		var conds []string
		for _, pair := range []struct{ colKey, fromKey string }{
			{"city_col", "city_from"}, {"title_col", "title_from"},
		} {
			col, _ := n.Args[pair.colKey].(string)
			from, _ := n.Args[pair.fromKey].(string)
			if col == "" || from == "" {
				continue
			}
			list, _ := values[from].([]string)
			if len(list) == 0 {
				// An empty expansion matches nothing; honor that rather than
				// silently dropping the condition.
				conds = append(conds, "1 = 0")
				continue
			}
			quoted := make([]string, len(list))
			for i, v := range list {
				quoted[i] = "'" + strings.ReplaceAll(v, "'", "''") + "'"
			}
			conds = append(conds, fmt.Sprintf("%s IN (%s)", col, strings.Join(quoted, ", ")))
		}
		sql := "SELECT * FROM " + table
		if len(conds) > 0 {
			sql += " WHERE " + strings.Join(conds, " AND ")
		}
		res, err := e.src.Relational.Query(sql)
		if err != nil {
			return nil, Estimate{}, err
		}
		return res.Maps(), Estimate{Cost: 0.0001, Accuracy: 1}, nil

	case OpUnion:
		seen := map[string]bool{}
		var out []string
		for _, dep := range n.DependsOn {
			list, _ := values[dep].([]string)
			for _, v := range list {
				if !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
			}
		}
		return out, Estimate{Accuracy: 1}, nil

	case OpSummarize:
		if e.src.Model == nil {
			return nil, Estimate{}, fmt.Errorf("no LLM source bound")
		}
		var text string
		if t, ok := n.Args["text"].(string); ok {
			text = t
		}
		for _, dep := range n.DependsOn {
			switch v := values[dep].(type) {
			case string:
				text += " " + v
			case []string:
				text += " " + strings.Join(v, ", ")
			case []map[string]any:
				for _, row := range v {
					text += " " + nlq.FormatRow(row)
				}
			}
		}
		maxWords := 60
		if mw, ok := n.Args["max_words"].(int); ok {
			maxWords = mw
		}
		out, usage := e.src.Model.Summarize(strings.TrimSpace(text), maxWords)
		acc := 1.0
		if usage.Degraded {
			acc = 0.6
		}
		return out, Estimate{Cost: usage.Cost, Latency: usage.Latency, Accuracy: acc}, nil

	default:
		return nil, Estimate{}, fmt.Errorf("unknown operator %q", n.Kind)
	}
}
