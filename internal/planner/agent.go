package planner

import (
	"context"

	"blueprint/internal/agent"
	"blueprint/internal/registry"
)

// AgentName is the task planner's registry name.
const AgentName = "TASKPLANNER"

// Spec returns the planner's registry spec: it listens to user utterances
// and emits plans ("we model the task planner as an agent itself", §V-F).
func Spec() registry.AgentSpec {
	return registry.AgentSpec{
		Name:        AgentName,
		Description: "task planner: interprets user requests and devises a task plan DAG over available agents",
		Inputs:      []registry.ParamSpec{{Name: "UTTERANCE", Type: "text", Description: "user request"}},
		Outputs:     []registry.ParamSpec{{Name: "PLAN", Type: "plan", Description: "task plan DAG"}},
		Listen:      registry.ListenRule{IncludeTags: []string{"utterance"}, ExcludeTags: []string{"planned"}},
		QoS:         registry.QoSProfile{CostPerCall: 0.002, Accuracy: 0.9},
	}
}

// AsAgent wraps the planner as a stream-attached agent. Each utterance
// produces a PLAN output message tagged "plan" (the §V-F contract: "the task
// planner outputs the plan to a stream to be executed"); plan-tagged data is
// the one thing the task coordinator listens for.
func AsAgent(tp *TaskPlanner) *agent.Agent {
	return agent.New(Spec(), func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		utterance, _ := inv.Inputs["UTTERANCE"].(string)
		plan, err := tp.Plan(utterance)
		if err != nil {
			return agent.Outputs{}, err
		}
		return agent.Outputs{
			Values: map[string]any{"PLAN": plan},
			Tags:   []string{"plan"},
		}, nil
	})
}
