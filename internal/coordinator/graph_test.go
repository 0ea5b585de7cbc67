package coordinator

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"blueprint/internal/agent"
	"blueprint/internal/budget"
	"blueprint/internal/optimizer"
	"blueprint/internal/planner"
	"blueprint/internal/registry"
	"blueprint/internal/streams"
)

// The package comment's "same units as the projection", pinned: for seeded
// random DAG plans (fan-out, fan-in, steps listed in shuffled order) over an
// echo agent that reports whatever latency its step names, every step
// receives its upstream steps' outputs, and the latency the plan's budget was
// charged is optimizer.CriticalPath over the reported latencies — whatever
// the worker count and the completion order. Nothing is timed.
func TestRandomPlansBindUpstreamOutputsAndChargeTheCriticalPath(t *testing.T) {
	store := streams.NewStore()
	defer store.Close()
	reg := registry.NewAgentRegistry()
	spec := registry.AgentSpec{
		Name: "ECHO", Description: "echoes its step id and reports the latency it is told",
		Outputs: []registry.ParamSpec{{Name: "OUT", Type: "text"}},
	}
	if err := reg.Register(spec); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	received := map[string]map[string]any{} // plan/step -> the inputs the agent saw
	inst, err := agent.Attach(store, sess, agent.New(spec, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		step, _ := inv.Inputs["STEP"].(string)
		ms, _ := inv.Inputs["LAT_MS"].(int)
		mu.Lock()
		received[step] = inv.Inputs
		mu.Unlock()
		return agent.Outputs{
			Values: map[string]any{"OUT": "out of " + step},
			Usage:  agent.Usage{Latency: time.Duration(ms) * time.Millisecond},
		}, nil
	}), agent.Options{DisableListen: true, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()

	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 40; i++ {
		n := 1 + rng.Intn(7)
		p := &planner.Plan{ID: fmt.Sprintf("rnd-%d", i), Utterance: "random dag"}
		reported := map[string]time.Duration{}
		for j := 0; j < n; j++ {
			id := fmt.Sprintf("s%d", j)
			ms := rng.Intn(200)
			reported[id] = time.Duration(ms) * time.Millisecond
			s := planner.Step{ID: id, Agent: "ECHO", Task: "echo", Bindings: map[string]planner.Binding{
				"STEP": {Value: p.ID + "/" + id}, "LAT_MS": {Value: ms},
			}}
			for k := 0; k < 3 && j > 0; k++ {
				if rng.Intn(2) == 0 {
					s.Bindings[fmt.Sprintf("IN_%d", k)] = planner.Binding{FromStep: fmt.Sprintf("s%d", rng.Intn(j)), FromParam: "OUT"}
				}
			}
			p.Steps = append(p.Steps, s)
		}
		rng.Shuffle(n, func(a, b int) { p.Steps[a], p.Steps[b] = p.Steps[b], p.Steps[a] })

		c := New(store, reg, nil, nil, Options{MaxParallel: 1 + rng.Intn(8)})
		res, err := c.ExecutePlan(sess, p, budget.New(budget.Limits{}))
		if err != nil {
			t.Fatalf("plan %d: %v\n%s", i, err, p)
		}
		if len(res.Steps) != n {
			t.Fatalf("plan %d: %d of %d steps ran", i, len(res.Steps), n)
		}
		for j, sr := range res.Steps {
			step := p.Steps[j]
			if sr.StepID != step.ID || sr.Latency != reported[step.ID] {
				t.Fatalf("plan %d: result %d = %s reporting %v, want %s reporting %v", i, j, sr.StepID, sr.Latency, step.ID, reported[step.ID])
			}
			mu.Lock()
			inputs := received[p.ID+"/"+step.ID]
			mu.Unlock()
			if len(inputs) != len(step.Bindings) {
				t.Fatalf("plan %d: step %s received %v for bindings %v", i, step.ID, inputs, step.Bindings)
			}
			for param, b := range step.Bindings {
				if b.FromStep == "" {
					continue
				}
				if want := "out of " + p.ID + "/" + b.FromStep; inputs[param] != want {
					t.Fatalf("plan %d: step %s input %s = %v, want %q", i, step.ID, param, inputs[param], want)
				}
			}
		}
		g, err := p.Graph()
		if err != nil {
			t.Fatal(err)
		}
		if want := optimizer.CriticalPath(g, reported); res.Budget.Latency != want {
			t.Fatalf("plan %d: budget charged %v, critical path over the reported latencies is %v\n%s", i, res.Budget.Latency, want, p)
		}
	}
}
