// Package dataplan implements the blueprint's data planner (§V-G, Fig. 7):
// given a natural-language data need, it produces a declarative plan — a DAG
// of data operators over multi-modal sources (relational tables, document
// collections, graphs, and LLMs-as-data-sources) — then executes it.
//
// The planner supports the paper's two strategies side by side: the *direct*
// strategy compiles the whole query with NL2Q against one discovered table,
// while the *decomposed* strategy breaks the query into sub-tasks (locate
// cities in "SF bay area" via an LLM source through an injected Q2NL
// operator; expand "data scientist" through the title taxonomy graph) and
// recombines them with select/join operators — exactly the Fig. 7 plan. The
// optimizer chooses between them under QoS constraints.
package dataplan

import (
	"fmt"
	"strings"
	"time"
)

// OpKind enumerates data-plan operators. The set deliberately extends the
// relational algebra with discovery, text and LLM operators (§V-G: "several
// new operators, beyond established relational operators, need to be
// introduced").
type OpKind string

// Operator kinds.
const (
	// OpConst yields a literal value.
	OpConst OpKind = "const"
	// OpNL2Q compiles natural language to SQL against a table.
	OpNL2Q OpKind = "nl2q"
	// OpSQL executes SQL (possibly templated with inputs) on the relational
	// engine.
	OpSQL OpKind = "sql"
	// OpLLM asks an LLM data source a list-valued knowledge question,
	// produced by an injected Q2NL operator.
	OpLLM OpKind = "llm"
	// OpGraphExpand expands an entity through a graph source (taxonomy).
	OpGraphExpand OpKind = "graph_expand"
	// OpExtract pulls a span from text per an instruction (LLM-backed).
	OpExtract OpKind = "extract"
	// OpDocFind queries a document collection.
	OpDocFind OpKind = "docfind"
	// OpSelectIn filters rows where a column's value is in a list produced
	// by upstream operators.
	OpSelectIn OpKind = "select_in"
	// OpUnion merges two string lists.
	OpUnion OpKind = "union"
	// OpSummarize condenses upstream rows/text (LLM-backed).
	OpSummarize OpKind = "summarize"
)

// Node is one operator instance in a plan DAG.
type Node struct {
	// ID names the node within the plan.
	ID string `json:"id"`
	// Kind selects the operator.
	Kind OpKind `json:"kind"`
	// Args configure the operator (operator-specific keys, documented on
	// the executor methods).
	Args map[string]any `json:"args,omitempty"`
	// DependsOn lists upstream node ids whose outputs this node consumes.
	DependsOn []string `json:"depends_on,omitempty"`
}

// Estimate is the optimizer's projection for a plan (§V-G optimization).
type Estimate struct {
	Cost     float64       `json:"cost"`
	Latency  time.Duration `json:"latency"`
	Accuracy float64       `json:"accuracy"`
}

// Plan is a declarative data plan: a DAG of operators with one output node.
type Plan struct {
	// Query is the originating natural-language request.
	Query string `json:"query"`
	// Strategy labels how the plan was produced ("direct", "decomposed").
	Strategy string `json:"strategy"`
	// Nodes are the operators, in insertion (topological) order.
	Nodes []Node `json:"nodes"`
	// Output is the id of the node whose result is the plan result.
	Output string `json:"output"`
	// Est is the pre-execution projection.
	Est Estimate `json:"est"`
	// Explanation narrates planning decisions for transparency.
	Explanation []string `json:"explanation,omitempty"`
}

// Validate checks DAG well-formedness: unique ids, known dependencies, an
// output node, and acyclicity (insertion order must be topological).
func (p *Plan) Validate() error {
	if p.Output == "" {
		return fmt.Errorf("dataplan: plan has no output node")
	}
	seen := map[string]bool{}
	for _, n := range p.Nodes {
		if n.ID == "" {
			return fmt.Errorf("dataplan: node with empty id")
		}
		if seen[n.ID] {
			return fmt.Errorf("dataplan: duplicate node id %q", n.ID)
		}
		for _, dep := range n.DependsOn {
			if !seen[dep] {
				return fmt.Errorf("dataplan: node %q depends on %q which is not defined earlier (cycle or typo)", n.ID, dep)
			}
		}
		seen[n.ID] = true
	}
	if !seen[p.Output] {
		return fmt.Errorf("dataplan: output node %q not defined", p.Output)
	}
	return nil
}

// String renders the plan as an operator pipeline, for EXPLAIN-style output.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Plan[%s] %q\n", p.Strategy, p.Query)
	for _, n := range p.Nodes {
		fmt.Fprintf(&b, "  %s: %s", n.ID, n.Kind)
		if len(n.DependsOn) > 0 {
			fmt.Fprintf(&b, " <- %s", strings.Join(n.DependsOn, ", "))
		}
		if sql, ok := n.Args["sql"].(string); ok {
			fmt.Fprintf(&b, " {%s}", sql)
		}
		if prompt, ok := n.Args["prompt"].(string); ok {
			fmt.Fprintf(&b, " {%s}", prompt)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  output: %s (est cost=$%.5f latency=%s accuracy=%.2f)", p.Output, p.Est.Cost, p.Est.Latency, p.Est.Accuracy)
	return b.String()
}
