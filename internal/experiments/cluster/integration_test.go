package cluster

import (
	"context"
	"fmt"
	"testing"

	"blueprint/internal/agent"
	"blueprint/internal/budget"
	"blueprint/internal/coordinator"
	"blueprint/internal/planner"
	"blueprint/internal/registry"
	"blueprint/internal/streams"
)

// TestClusterServesCoordinatorPlans ties Fig. 2 to Fig. 6: agents deployed
// through the cluster simulator serve plans executed by the task
// coordinator, and keep serving after a crash + reconcile.
func TestClusterServesCoordinatorPlans(t *testing.T) {
	store := streams.NewStore()
	t.Cleanup(func() { store.Close() })
	reg := registry.NewAgentRegistry()
	specs := []registry.AgentSpec{
		{
			Name: "STEP_A", Description: "first step producing a value",
			Inputs:     []registry.ParamSpec{{Name: "IN", Type: "text"}},
			Outputs:    []registry.ParamSpec{{Name: "MID", Type: "text"}},
			Deployment: registry.Deployment{Resource: "cpu", Workers: 1},
		},
		{
			Name: "STEP_B", Description: "second step consuming the value",
			Inputs:     []registry.ParamSpec{{Name: "MID", Type: "text"}},
			Outputs:    []registry.ParamSpec{{Name: "OUT", Type: "text"}},
			Deployment: registry.Deployment{Resource: "cpu", Workers: 1},
		},
	}
	for _, s := range specs {
		if err := reg.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	f := agent.NewFactory(reg)
	f.RegisterConstructor("STEP_A", func(registry.AgentSpec) agent.Processor {
		return func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
			return agent.Outputs{Values: map[string]any{"MID": fmt.Sprintf("A(%v)", inv.Inputs["IN"])}}, nil
		}
	})
	f.RegisterConstructor("STEP_B", func(registry.AgentSpec) agent.Processor {
		return func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
			return agent.Outputs{Values: map[string]any{"OUT": fmt.Sprintf("B(%v)", inv.Inputs["MID"])}}, nil
		}
	})

	const session = "session:integration"
	c := New(store, f, session)
	t.Cleanup(c.Shutdown)
	if err := c.AddNode("n1", "cpu", 4); err != nil {
		t.Fatal(err)
	}
	ctrA, err := c.Deploy("STEP_A")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy("STEP_B"); err != nil {
		t.Fatal(err)
	}

	coord := coordinator.New(store, reg, nil, nil, coordinator.Options{})
	plan := &planner.Plan{
		ID: "p-int", Utterance: "go", Intent: "x",
		Steps: []planner.Step{
			{ID: "s1", Agent: "STEP_A", Task: "first step",
				Bindings: map[string]planner.Binding{"IN": {FromUserText: true}}},
			{ID: "s2", Agent: "STEP_B", Task: "second step",
				Bindings: map[string]planner.Binding{"MID": {FromStep: "s1", FromParam: "MID"}}},
		},
	}
	res, err := coord.ExecutePlan(session, plan, budget.New(budget.Limits{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Final["OUT"] != "B(A(go))" {
		t.Fatalf("final = %v", res.Final)
	}

	// Crash STEP_A's container; after reconcile the same plan runs again.
	if err := c.Kill(ctrA.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reconcile(); err != nil {
		t.Fatal(err)
	}
	plan.ID = "p-int-2" // fresh invocation ids / reply streams
	res, err = coord.ExecutePlan(session, plan, budget.New(budget.Limits{}))
	if err != nil {
		t.Fatalf("post-recovery execution failed: %v", err)
	}
	if res.Final["OUT"] != "B(A(go))" {
		t.Fatalf("post-recovery final = %v", res.Final)
	}
}
