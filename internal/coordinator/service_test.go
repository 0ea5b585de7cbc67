package coordinator

import (
	"context"
	"fmt"
	"testing"
	"time"

	"blueprint/internal/agent"
	"blueprint/internal/budget"
	"blueprint/internal/planner"
	"blueprint/internal/registry"
	"blueprint/internal/streams"
)

// coordinatorDisplay returns the Param of every message the coordinator has
// put on the session's display stream, in order.
func coordinatorDisplay(t *testing.T, store *streams.Store) []string {
	t.Helper()
	msgs, err := store.ReadAll(agent.DisplayStream(sess))
	if err != nil {
		t.Fatal(err)
	}
	var params []string
	for _, m := range msgs {
		if m.Sender == "coordinator" {
			params = append(params, m.Param)
		}
	}
	return params
}

// A producer's Tags go on all of its outputs, so a plan's companions arrive
// tagged PlanTag too (the Agentic Employer's JOB_ID beside its PLAN). They
// run nothing, show nothing, abort nothing and do not keep Stop waiting — and
// one that cannot be a plan is dropped by the watch loop itself, on the
// payload alone, before a goroutine or a JSON round trip is spent on it.
func TestServiceDropsPlanTaggedStrays(t *testing.T) {
	e := newEnv(t)
	c := New(e.store, e.reg, e.tp, e.model, Options{})
	svc := c.Serve(sess, budget.Limits{MaxCost: 1.0})

	strays := []any{12, "ae-summarize-12", nil, map[string]any{"job_id": 12}}
	for _, stray := range strays {
		if _, err := e.store.Publish(streams.Message{
			Stream: agent.OutputStream(sess, planner.AgentName), Session: sess, Kind: streams.Data,
			Sender: planner.AgentName, Param: "JOB_ID", Tags: []string{"JOB_ID", PlanTag}, Payload: stray,
		}); err != nil {
			t.Fatal(err)
		}
	}
	publishPlan(t, e.store, onePlan("real"))
	select {
	case res := <-svc.ResultC():
		if res.PlanID != "real" || res.Aborted {
			t.Fatalf("first result = %+v, want the real plan's", res)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the plan behind the strays never ran")
	}
	stopped := make(chan struct{})
	go func() {
		svc.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not return")
	}
	if rs := svc.Results(); len(rs) != 1 {
		t.Fatalf("%d results, want the real plan's alone: %+v", len(rs), rs)
	}
	if shown := coordinatorDisplay(t, e.store); len(shown) != 1 || shown[0] != "JOBSEEKER_DATA" {
		t.Fatalf("coordinator displayed %v, want the real plan's one output", shown)
	}
	control, err := e.store.ReadAll(agent.ControlStream(sess))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range control {
		if m.Directive != nil && m.Directive.Op == streams.OpAbort {
			t.Fatalf("a stray aborted: %+v", m.Directive)
		}
	}

	for _, p := range []any{onePlan("p"), *onePlan("v"), map[string]any{"id": "m"}} {
		if !mayBePlan(p) {
			t.Errorf("mayBePlan(%T) = false", p)
		}
	}
	for _, stray := range strays[:3] {
		if mayBePlan(stray) {
			t.Errorf("mayBePlan(%T) = true", stray)
		}
	}
	jobID := strays[0]
	if allocs := testing.AllocsPerRun(100, func() {
		if mayBePlan(jobID) {
			t.Error("an int passed as a plan")
		}
	}); allocs != 0 {
		t.Errorf("turning away an int costs %v allocations, want 0", allocs)
	}
}

// A last step with two outputs displays them in the order its agent declares
// them (sorted, for an agent the registry does not know), run after run: the
// first of them is what Session.Ask returns.
func TestServiceDisplaysFinalOutputsInDeclaredOrder(t *testing.T) {
	e := newEnv(t)
	pair := func(name string, register bool) {
		spec := registry.AgentSpec{
			Name: name, Description: "answers with two outputs",
			Inputs:  []registry.ParamSpec{{Name: "IN", Type: "text"}},
			Outputs: []registry.ParamSpec{{Name: "SUMMARY", Type: "text"}, {Name: "DETAIL", Type: "text"}},
		}
		if register {
			if err := e.reg.Register(spec); err != nil {
				t.Fatal(err)
			}
		}
		inst, err := agent.Attach(e.store, sess, agent.New(spec, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
			return agent.Outputs{Values: map[string]any{"SUMMARY": "s", "DETAIL": "d"}}, nil
		}), agent.Options{DisableListen: true})
		if err != nil {
			t.Fatal(err)
		}
		e.insts = append(e.insts, inst)
	}
	pair("DECLARED", true)
	pair("UNLISTED", false)

	c := New(e.store, e.reg, e.tp, e.model, Options{})
	svc := c.Serve(sess, budget.Limits{MaxCost: 1.0})
	defer svc.Stop()
	for _, tc := range []struct {
		agent string
		want  [2]string
	}{
		{"DECLARED", [2]string{"SUMMARY", "DETAIL"}},
		{"UNLISTED", [2]string{"DETAIL", "SUMMARY"}},
	} {
		for run := 0; run < 50; run++ {
			shown := len(coordinatorDisplay(t, e.store))
			publishPlan(t, e.store, &planner.Plan{ID: fmt.Sprintf("%s-%d", tc.agent, run), Steps: []planner.Step{{
				ID: "s1", Agent: tc.agent, Bindings: map[string]planner.Binding{"IN": {Value: run}},
			}}})
			select {
			case res := <-svc.ResultC():
				if res.Aborted || len(res.Final) != 2 {
					t.Fatalf("%s run %d: %+v", tc.agent, run, res)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s run %d never finished", tc.agent, run)
			}
			got := coordinatorDisplay(t, e.store)[shown:]
			if len(got) != 2 || got[0] != tc.want[0] || got[1] != tc.want[1] {
				t.Fatalf("%s run %d displayed %v, want %v", tc.agent, run, got, tc.want)
			}
		}
	}
}
