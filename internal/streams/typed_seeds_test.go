package streams_test

import (
	"blueprint/internal/agent"
	"blueprint/internal/hragents"
	"blueprint/internal/planner"
	"blueprint/internal/relational"
	"blueprint/internal/streams"
)

// The registered types a stream carries are defined by packages that import
// streams, so only an external test file can build FuzzStreamRecord's typed
// seeds: a PLAN message whose payload is a *planner.Plan, and an AGENT_DONE
// whose outputs hold a *hragents.QueryRows.
func init() {
	plan := &planner.Plan{
		ID: "ae-summarize-3", Utterance: "Summarize the applicants for job 3", Intent: "summarize",
		Steps: []planner.Step{{ID: "s1", Agent: "SUMMARIZER", Task: "summarize entity details for the user", Score: 0.5,
			Bindings: map[string]planner.Binding{"JOB_ID": {Value: 3}, "TEXT": {FromUserText: true, Transform: "criteria"}}}},
		Explanation: []string{"intent: summarize"},
	}
	rows := &hragents.QueryRows{
		Columns: []string{"city", "n", "avg", "open"},
		Rows: []relational.Row{
			{relational.NewString("San Jose"), relational.NewInt(3), relational.NewFloat(101.5), relational.NewBool(true)},
			{relational.Null, relational.NewInt(0), relational.Null, relational.NewBool(false)},
		},
		SQL: "SELECT city, COUNT(*) AS n, AVG(salary) AS avg, open FROM jobs GROUP BY city",
	}
	streams.TypedSeeds = append(streams.TypedSeeds,
		streams.Message{Kind: streams.Data, Sender: "AGENTIC_EMPLOYER", Tags: []string{"PLAN", "plan"}, Payload: plan},
		streams.Message{Kind: streams.Control, Sender: "SQLEXECUTOR", Directive: &streams.Directive{
			Op: agent.OpAgentDone, Agent: "SQLEXECUTOR", Invocation: "ae-summarize-3-s1-1",
			Outputs: map[string]any{"ROWS": rows, "N": 2}, Cost: 0.01, Latency: 1500,
		}},
	)
}
