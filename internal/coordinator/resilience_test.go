package coordinator

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blueprint/internal/agent"
	"blueprint/internal/budget"
	"blueprint/internal/clock"
	"blueprint/internal/memo"
	"blueprint/internal/obs"
	"blueprint/internal/planner"
	"blueprint/internal/registry"
	"blueprint/internal/resilience"
	"blueprint/internal/streams"
)

// registerProc registers spec and attaches an instance running proc.
func registerProc(t testing.TB, store *streams.Store, reg *registry.AgentRegistry, spec registry.AgentSpec, proc agent.Processor) {
	t.Helper()
	if err := reg.Register(spec); err != nil {
		t.Fatal(err)
	}
	inst, err := agent.Attach(store, sess, agent.New(spec, proc), agent.Options{DisableListen: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.Stop)
}

func singleStepPlan(id, agentName string) *planner.Plan {
	return &planner.Plan{
		ID: id, Utterance: "go", Intent: "rank",
		Steps: []planner.Step{{
			ID: "s1", Agent: agentName, Task: "do the work",
			Bindings: map[string]planner.Binding{"CRITERIA": {FromUserText: true}},
		}},
	}
}

// executeOn runs p on c while it sleeps through backoffs retry backoffs on
// clk, advancing the clock past each, and returns the durations the sleeps
// asked for beside the plan's outcome.
func executeOn(clk *clock.Clock, backoffs int, c *Coordinator, p *planner.Plan, b *budget.Budget) (*Result, []time.Duration, error) {
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := c.ExecutePlan(sess, p, b)
		done <- outcome{res, err}
	}()
	var slept []time.Duration
	for range backoffs {
		d := clk.Sleeping()
		slept = append(slept, d)
		clk.Advance(d)
	}
	o := <-done
	return o.res, slept, o.err
}

// A step that fails twice and then succeeds is retried twice, each backoff
// charged and slept on the clock, and each retry event logs the backoff that
// was slept.
func TestRetryPolicyRecoversTransientFailure(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	e := newEnvOn(t, clk)
	var calls atomic.Int64
	registerProc(t, e.store, e.reg, registry.AgentSpec{
		Name:    "FLAPPY",
		Inputs:  []registry.ParamSpec{{Name: "CRITERIA", Type: "text"}},
		Outputs: []registry.ParamSpec{{Name: "OUT", Type: "text"}},
		QoS:     registry.QoSProfile{CostPerCall: 0.001, Accuracy: 1},
	}, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		if calls.Add(1) < 3 {
			return agent.Outputs{}, errors.New("transient glitch")
		}
		return agent.Outputs{Values: map[string]any{"OUT": "ok"}}, nil
	})

	c := New(e.store, e.reg, nil, e.model, Options{})
	from := obs.Events.Seq()
	res, slept, err := executeOn(clk, 2, c, singleStepPlan("retry-1", "FLAPPY"), budget.New(budget.Limits{MaxLatency: time.Minute}))
	if err != nil {
		t.Fatalf("retries did not recover: %v", err)
	}
	if res.Retries != 2 {
		t.Fatalf("res.Retries = %d, want 2", res.Retries)
	}
	if res.Budget.Retries != 2 {
		t.Fatalf("budget.Retries = %d, want 2 (backoffs must be charged)", res.Budget.Retries)
	}
	if res.Final["OUT"] != "ok" {
		t.Fatalf("final = %v", res.Final)
	}
	var logged []string
	for _, ev := range obs.Events.Since(from) {
		if ev.Component == "scheduler" && ev.Kind == "retry" && ev.Session == sess {
			for _, a := range ev.Attrs {
				if a.Key == "backoff" {
					logged = append(logged, a.Value)
				}
			}
		}
	}
	if len(logged) != 2 || logged[0] != slept[0].String() || logged[1] != slept[1].String() {
		t.Fatalf("retry events logged backoffs %v; the scheduler slept %v", logged, slept)
	}
}

func TestRetryStopsWhenLatencyBudgetExhausted(t *testing.T) {
	e := newEnv(t)
	var calls atomic.Int64
	registerProc(t, e.store, e.reg, registry.AgentSpec{
		Name:    "DOOMED",
		Inputs:  []registry.ParamSpec{{Name: "CRITERIA", Type: "text"}},
		Outputs: []registry.ParamSpec{{Name: "OUT", Type: "text"}},
	}, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		calls.Add(1)
		return agent.Outputs{}, errors.New("always down")
	})

	// The first backoff (10ms ±20%) exceeds the whole latency budget (5ms):
	// the policy must stop after one attempt rather than retry past the SLO.
	c := New(e.store, e.reg, nil, e.model, Options{})
	res, err := c.ExecutePlan(sess, singleStepPlan("retry-2", "DOOMED"), budget.New(budget.Limits{MaxLatency: 5 * time.Millisecond}))
	if !errors.Is(err, ErrStepFailed) {
		t.Fatalf("err = %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (no budget headroom for backoff)", got)
	}
	if res.Retries != 0 {
		t.Fatalf("res.Retries = %d, want 0", res.Retries)
	}
}

func TestBreakerOpensAndServesStaleDegraded(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	e := newEnvOn(t, clk)
	var failing atomic.Bool
	registerProc(t, e.store, e.reg, registry.AgentSpec{
		Name:      "CACHED_FLAKE",
		Inputs:    []registry.ParamSpec{{Name: "CRITERIA", Type: "text"}},
		Outputs:   []registry.ParamSpec{{Name: "OUT", Type: "text"}},
		Cacheable: true,
		QoS:       registry.QoSProfile{CostPerCall: 0.001, Accuracy: 1, Freshness: 50 * time.Millisecond},
	}, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		if failing.Load() {
			return agent.Outputs{}, errors.New("brownout")
		}
		return agent.Outputs{Values: map[string]any{"OUT": "primed"}}, nil
	})

	store := memo.New(64)
	store.SetClock(clk)
	breakers := resilience.NewSet(clk)
	c := New(e.store, e.reg, nil, e.model, Options{Memo: store, Breakers: breakers})

	// Prime the memo entry, then let its freshness lapse.
	if _, err := c.ExecutePlan(sess, singleStepPlan("deg-0", "CACHED_FLAKE"), budget.New(budget.Limits{})); err != nil {
		t.Fatal(err)
	}
	clk.Advance(60 * time.Millisecond)
	failing.Store(true)

	// Failing runs trip the breaker: beside the priming success, the first
	// run's three attempts make 4 samples, and the second run's first
	// attempt the fifth, at 80% failure.
	if _, _, err := executeOn(clk, 2, c, singleStepPlan("deg-1", "CACHED_FLAKE"), budget.New(budget.Limits{})); err == nil {
		t.Fatal("failing run should have failed")
	}
	if _, _, err := executeOn(clk, 0, c, singleStepPlan("deg-2", "CACHED_FLAKE"), budget.New(budget.Limits{})); err == nil {
		t.Fatal("failing run should have failed")
	}
	if got := breakers.For("CACHED_FLAKE").State(); got != resilience.Open {
		t.Fatalf("breaker state = %s, want open", got)
	}

	// With the breaker open, the step is answered from the stale entry: 60ms
	// and two backoffs old, within four times its 50ms freshness.
	res, err := c.ExecutePlan(sess, singleStepPlan("deg-3", "CACHED_FLAKE"), budget.New(budget.Limits{}))
	if err != nil {
		t.Fatalf("degraded serve failed: %v", err)
	}
	if !res.Degraded {
		t.Fatalf("result not marked degraded: %+v", res)
	}
	sr := res.Steps[0]
	if !sr.Degraded || !sr.Cached || sr.StaleFor < 60*time.Millisecond {
		t.Fatalf("step result = %+v", sr)
	}
	if res.Final["OUT"] != "primed" {
		t.Fatalf("final = %v", res.Final)
	}
	// The degraded plan paid nothing for the stale serve.
	if res.Budget.CostSpent != 0 {
		t.Fatalf("degraded serve charged cost: %v", res.Budget.CostSpent)
	}
}

func TestBreakerOpenWithoutStaleEntryFailsFast(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	e := newEnvOn(t, clk)
	var calls atomic.Int64
	registerProc(t, e.store, e.reg, registry.AgentSpec{
		Name:    "UNCACHED_FLAKE",
		Inputs:  []registry.ParamSpec{{Name: "CRITERIA", Type: "text"}},
		Outputs: []registry.ParamSpec{{Name: "OUT", Type: "text"}},
	}, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		calls.Add(1)
		return agent.Outputs{}, errors.New("down")
	})

	breakers := resilience.NewSet(clk)
	c := New(e.store, e.reg, nil, e.model, Options{Breakers: breakers})
	// Three failed attempts, then two more: the fifth trips the breaker.
	for i, backoffs := range []int{2, 1} {
		_, _, _ = executeOn(clk, backoffs, c, singleStepPlan(fmt.Sprintf("brk-%d", i), "UNCACHED_FLAKE"), budget.New(budget.Limits{}))
	}
	dispatched := calls.Load()
	_, err := c.ExecutePlan(sess, singleStepPlan("brk-fast", "UNCACHED_FLAKE"), budget.New(budget.Limits{}))
	if !errors.Is(err, resilience.ErrBreakerOpen) {
		t.Fatalf("err = %v, want breaker-open", err)
	}
	// The rejection must not have dispatched the agent at all.
	if got := calls.Load(); got != dispatched {
		t.Fatalf("the rejected plan dispatched the agent %d times", got-dispatched)
	}
}

// A half-open breaker's probe that is taken but never dispatched is given
// back: here the step's cost reservation is refused after the breaker
// admitted it. A probe kept would leave the breaker waiting for an outcome
// that never comes, rejecting the recovered agent.
func TestUndispatchedProbeIsGivenBack(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	e := newEnvOn(t, clk)
	var failing atomic.Bool
	failing.Store(true)
	registerProc(t, e.store, e.reg, registry.AgentSpec{
		Name:    "FLAKY",
		Inputs:  []registry.ParamSpec{{Name: "CRITERIA", Type: "text"}},
		Outputs: []registry.ParamSpec{{Name: "OUT", Type: "text"}},
		QoS:     registry.QoSProfile{CostPerCall: 0.2, Accuracy: 1},
	}, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		if failing.Load() {
			return agent.Outputs{}, errors.New("down")
		}
		return agent.Outputs{Values: map[string]any{"OUT": "ok"}}, nil
	})
	registerProc(t, e.store, e.reg, registry.AgentSpec{
		Name:    "SPENDER",
		Inputs:  []registry.ParamSpec{{Name: "CRITERIA", Type: "text"}},
		Outputs: []registry.ParamSpec{{Name: "CRITERIA", Type: "text"}},
		QoS:     registry.QoSProfile{CostPerCall: 0.001, Accuracy: 1},
	}, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		return agent.Outputs{Values: map[string]any{"CRITERIA": "spent"}, Usage: agent.Usage{Cost: 0.90, Accuracy: 1}}, nil
	})
	breakers := resilience.NewSet(clk)
	c := New(e.store, e.reg, nil, e.model, Options{Breakers: breakers})

	// Trip FLAKY (five failed attempts), then let the open period pass.
	for i, backoffs := range []int{2, 1} {
		_, _, _ = executeOn(clk, backoffs, c, singleStepPlan(fmt.Sprintf("trip-%d", i), "FLAKY"), budget.New(budget.Limits{}))
	}
	if got := breakers.For("FLAKY").State(); got != resilience.Open {
		t.Fatalf("breaker state = %s, want open", got)
	}
	clk.Advance(2 * time.Second)

	// SPENDER spends $0.90 of $1, so FLAKY's $0.20 reservation is refused
	// after its breaker admitted the half-open probe.
	spend := &planner.Plan{
		ID: "spend", Utterance: "go", Intent: "rank",
		Steps: []planner.Step{
			{ID: "s1", Agent: "SPENDER", Task: "spend",
				Bindings: map[string]planner.Binding{"CRITERIA": {FromUserText: true}}},
			{ID: "s2", Agent: "FLAKY", Task: "probe",
				Bindings: map[string]planner.Binding{"CRITERIA": {FromStep: "s1", FromParam: "CRITERIA"}}},
		},
	}
	if _, err := c.ExecutePlan(sess, spend, budget.New(budget.Limits{MaxCost: 1})); !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want the reservation refused", err)
	}

	// FLAKY heals: the next plan probes, and the breaker closes.
	failing.Store(false)
	for i := range 3 {
		if _, err := c.ExecutePlan(sess, singleStepPlan(fmt.Sprintf("healed-%d", i), "FLAKY"), budget.New(budget.Limits{})); err != nil {
			t.Fatalf("plan %d on the healed agent: %v (breaker %s)", i, err, breakers.For("FLAKY").State())
		}
	}
	if got := breakers.For("FLAKY").State(); got != resilience.Closed {
		t.Fatalf("breaker state = %s, want closed", got)
	}
}

// Satellite: a step cancelled by a concurrent failure elsewhere in the plan
// must not be retried (context cancellation is not transient), and the
// in-flight agent work must actually stop via the targeted abort. Run with
// -race.
func TestConcurrentCancellationStopsRetriesAndInFlightWork(t *testing.T) {
	e := newEnv(t)
	registerProc(t, e.store, e.reg, registry.AgentSpec{
		Name:    "BOOM",
		Inputs:  []registry.ParamSpec{{Name: "CRITERIA", Type: "text"}},
		Outputs: []registry.ParamSpec{{Name: "OUT", Type: "text"}},
	}, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		return agent.Outputs{}, errors.New("boom")
	})
	hangReturned := make(chan struct{})
	registerProc(t, e.store, e.reg, registry.AgentSpec{
		Name:    "HANG",
		Inputs:  []registry.ParamSpec{{Name: "CRITERIA", Type: "text"}},
		Outputs: []registry.ParamSpec{{Name: "OUT", Type: "text"}},
	}, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		defer close(hangReturned)
		<-ctx.Done()
		return agent.Outputs{}, ctx.Err()
	})

	c := New(e.store, e.reg, nil, e.model, Options{})
	plan := &planner.Plan{
		ID: "cancel-1", Utterance: "go", Intent: "rank",
		Steps: []planner.Step{
			{ID: "a", Agent: "BOOM", Task: "fail",
				Bindings: map[string]planner.Binding{"CRITERIA": {FromUserText: true}}},
			{ID: "b", Agent: "HANG", Task: "hang",
				Bindings: map[string]planner.Binding{"CRITERIA": {FromUserText: true}}},
		},
	}
	res, err := c.ExecutePlan(sess, plan, budget.New(budget.Limits{}))
	if !errors.Is(err, ErrStepFailed) {
		t.Fatalf("err = %v", err)
	}
	// Only BOOM's two retries happened; the cancelled HANG step retried 0x.
	if res.Retries != 2 {
		t.Fatalf("res.Retries = %d, want 2", res.Retries)
	}
	// The targeted abort must have cancelled HANG's in-flight processor.
	select {
	case <-hangReturned:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight agent work not cancelled by plan failure")
	}
}

// Satellite: replan retries racing budget exhaustion across concurrent plans
// (shared Coordinator, per-plan budgets). Run with -race.
func TestConcurrentReplanRetryUnderBudgetExhaustion(t *testing.T) {
	e := newEnv(t)
	spec := registry.AgentSpec{
		Name:        "FLAKY_MATCHER",
		Description: "match the job seeker profile with available job listings ranking match quality precisely",
		Inputs:      []registry.ParamSpec{{Name: "JOBSEEKER_DATA", Type: "profile"}},
		Outputs:     []registry.ParamSpec{{Name: "MATCHES", Type: "rows"}},
	}
	registerProc(t, e.store, e.reg, spec, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		return agent.Outputs{}, errors.New("model unavailable")
	})

	c := New(e.store, e.reg, e.tp, e.model, Options{})
	makePlan := func(i int) *planner.Plan {
		return &planner.Plan{
			ID: fmt.Sprintf("race-%d", i), Utterance: "match me", Intent: "rank",
			Steps: []planner.Step{
				{ID: "s1", Agent: "PROFILER", Task: "collect job seeker profile information from the user",
					Bindings: map[string]planner.Binding{"CRITERIA": {FromUserText: true}}},
				{ID: "s2", Agent: "FLAKY_MATCHER", Task: "match the job seeker profile with available job listings",
					Bindings: map[string]planner.Binding{"JOBSEEKER_DATA": {FromStep: "s1", FromParam: "JOBSEEKER_DATA"}}},
			},
		}
	}
	var wg sync.WaitGroup
	errsC := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Half the budgets fit the replanned JOBMATCHER, half exhaust.
			limit := 1.0
			if i%2 == 1 {
				limit = 0.0015
			}
			_, err := c.ExecutePlan(sess, makePlan(i), budget.New(budget.Limits{MaxCost: limit}))
			errsC <- err
		}(i)
	}
	wg.Wait()
	close(errsC)
	ok, aborted := 0, 0
	for err := range errsC {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrAborted):
			aborted++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if ok == 0 || aborted == 0 {
		t.Fatalf("ok=%d aborted=%d: expected both replan successes and budget aborts", ok, aborted)
	}
}
