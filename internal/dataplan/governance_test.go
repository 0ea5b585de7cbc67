package dataplan

import (
	"errors"
	"testing"

	"blueprint/internal/registry"
)

func TestPlanForEnforcesGovernance(t *testing.T) {
	f := newFixture(t, 1.0)
	// Restrict the jobs table to a payroll agent.
	if err := f.reg.Grant("hr.jobs", "PAYROLL_AGENT"); err != nil {
		t.Fatal(err)
	}
	_, err := f.planner.PlanFor("JOBMATCHER", runningExample, f.bind, "taxonomy")
	if !errors.Is(err, registry.ErrUnauthorized) {
		t.Fatalf("err = %v, want ErrUnauthorized", err)
	}
	// The granted agent plans normally.
	plan, err := f.planner.PlanFor("PAYROLL_AGENT", runningExample, f.bind, "taxonomy")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Strategy != "decomposed" {
		t.Fatalf("strategy = %s", plan.Strategy)
	}
}

func TestPlanForGraphFallback(t *testing.T) {
	f := newFixture(t, 1.0)
	// Restrict only the taxonomy graph: planning succeeds but falls back to
	// the LLM for title expansion.
	if err := f.reg.Grant("taxonomy", "SOMEONE_ELSE"); err != nil {
		t.Fatal(err)
	}
	plan, err := f.planner.PlanFor("JOBMATCHER", runningExample, f.bind, "taxonomy")
	if err != nil {
		t.Fatal(err)
	}
	titles := planNode(t, plan, "titles")
	if titles.Kind != OpLLM {
		t.Fatalf("expected LLM title expansion fallback, got %+v", titles)
	}
	res, err := f.exec.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("fallback plan returned nothing")
	}
}
