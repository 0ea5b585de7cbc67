package coordinator

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"blueprint/internal/agent"
	"blueprint/internal/budget"
	"blueprint/internal/clock"
	"blueprint/internal/llm"
	"blueprint/internal/planner"
	"blueprint/internal/registry"
	"blueprint/internal/streams"
)

const sess = "session:coord"

// env wires a store, registry and the three Fig. 6 agents (PROFILER,
// JOBMATCHER, PRESENTER) implemented as simple processors.
type env struct {
	store *streams.Store
	reg   *registry.AgentRegistry
	tp    *planner.TaskPlanner
	model *llm.Model
	insts []*agent.Instance
}

func newEnv(t testing.TB) *env { return newEnvOn(t, nil) }

// newEnvOn is newEnv with the store, and so the agents and coordinators built
// over it, on clk.
func newEnvOn(t testing.TB, clk *clock.Clock) *env {
	t.Helper()
	store := streams.NewStore()
	store.SetClock(clk)
	t.Cleanup(func() { store.Close() })
	reg := registry.NewAgentRegistry()
	model := llm.New(llm.Config{Name: "coord-llm", Accuracy: 1.0, CostPer1K: 0.001, Seed: 9}, nil)

	e := &env{store: store, reg: reg, model: model}
	t.Cleanup(func() {
		for _, in := range e.insts {
			in.Stop()
		}
	})

	add := func(spec registry.AgentSpec, proc agent.Processor) {
		if err := reg.Register(spec); err != nil {
			t.Fatal(err)
		}
		inst, err := agent.Attach(store, sess, agent.New(spec, proc), agent.Options{DisableListen: true})
		if err != nil {
			t.Fatal(err)
		}
		e.insts = append(e.insts, inst)
	}

	add(registry.AgentSpec{
		Name:        "PROFILER",
		Description: "collect job seeker profile information from the user via a profile form",
		Inputs:      []registry.ParamSpec{{Name: "CRITERIA", Type: "text"}},
		Outputs:     []registry.ParamSpec{{Name: "JOBSEEKER_DATA", Type: "profile"}},
		QoS:         registry.QoSProfile{CostPerCall: 0.001, Latency: 5 * time.Millisecond, Accuracy: 0.95},
	}, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		criteria, _ := inv.Inputs["CRITERIA"].(string)
		return agent.Outputs{Values: map[string]any{
			"JOBSEEKER_DATA": map[string]any{"criteria": criteria, "skills": []any{"python", "sql"}},
		}}, nil
	})

	add(registry.AgentSpec{
		Name:        "JOBMATCHER",
		Description: "match the job seeker profile with available job listings ranking match quality",
		Inputs:      []registry.ParamSpec{{Name: "JOBSEEKER_DATA", Type: "profile"}},
		Outputs:     []registry.ParamSpec{{Name: "MATCHES", Type: "rows"}},
		QoS:         registry.QoSProfile{CostPerCall: 0.01, Latency: 20 * time.Millisecond, Accuracy: 0.9},
	}, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		profile, _ := inv.Inputs["JOBSEEKER_DATA"].(map[string]any)
		criteria, _ := profile["criteria"].(string)
		return agent.Outputs{Values: map[string]any{
			"MATCHES": []any{
				map[string]any{"job": "Data Scientist @ Acme", "criteria": criteria, "score": 0.92},
				map[string]any{"job": "ML Engineer @ DataWorks", "criteria": criteria, "score": 0.81},
			},
		}}, nil
	})

	add(registry.AgentSpec{
		Name:        "PRESENTER",
		Description: "present the matched jobs to the end user rendering results",
		Inputs:      []registry.ParamSpec{{Name: "MATCHES", Type: "rows"}},
		Outputs:     []registry.ParamSpec{{Name: "RENDERED", Type: "text"}},
		QoS:         registry.QoSProfile{CostPerCall: 0.0005, Latency: 2 * time.Millisecond, Accuracy: 1.0},
	}, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		matches, _ := inv.Inputs["MATCHES"].([]any)
		var b strings.Builder
		for i, m := range matches {
			mm, _ := m.(map[string]any)
			fmt.Fprintf(&b, "%d. %v\n", i+1, mm["job"])
		}
		return agent.Outputs{
			Values:  map[string]any{"RENDERED": b.String()},
			Display: b.String(),
		}, nil
	})

	e.tp = planner.New(reg, model, nil)
	return e
}

func TestExecuteFig6PlanEndToEnd(t *testing.T) {
	e := newEnv(t)
	c := New(e.store, e.reg, e.tp, e.model, Options{})
	plan, err := e.tp.Plan("I am looking for a data scientist position in SF bay area.")
	if err != nil {
		t.Fatal(err)
	}
	b := budget.New(budget.Limits{MaxCost: 1.0})
	res, err := c.ExecutePlan(sess, plan, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 3 || res.Aborted {
		t.Fatalf("result = %+v", res)
	}
	rendered, _ := res.Final["RENDERED"].(string)
	if !strings.Contains(rendered, "Data Scientist @ Acme") {
		t.Fatalf("rendered = %q", rendered)
	}
	// The criteria transform stripped the conversational filler before it
	// reached the PROFILER (PROFILER.CRITERIA <- USER.TEXT).
	s1 := res.Steps[0]
	profile, _ := s1.Outputs["JOBSEEKER_DATA"].(map[string]any)
	if got := profile["criteria"]; got != "data scientist position in SF bay area" {
		t.Fatalf("criteria = %q", got)
	}
	// Budget charged per step (3 steps + 1 transform).
	if res.Budget.Charges != 4 {
		t.Fatalf("charges = %d", res.Budget.Charges)
	}
	if res.Budget.CostSpent <= 0 {
		t.Fatalf("cost = %v", res.Budget.CostSpent)
	}
}

func TestBudgetAbortsMidPlan(t *testing.T) {
	e := newEnv(t)
	c := New(e.store, e.reg, e.tp, e.model, Options{})
	plan, err := e.tp.Plan("I am looking for a data scientist position.")
	if err != nil {
		t.Fatal(err)
	}
	// Enough for step 1 (+transform) but not step 2 actuals.
	b := budget.New(budget.Limits{MaxCost: 0.002})
	abortSub := e.store.Subscribe(streams.Filter{
		Streams: []string{agent.ControlStream(sess)},
		Kinds:   []streams.Kind{streams.Control},
	}, false)
	defer abortSub.Cancel()

	// Pre-projection would catch this; test mid-plan enforcement by using
	// Confirm policy that accepts the projection but rejects actuals.
	calls := 0
	c.opts.OnViolation = Confirm
	c.opts.ConfirmFunc = func(v []budget.Violation) bool {
		calls++
		return v == nil // accept projection warning, reject actual violations
	}
	res, err := c.ExecutePlan(sess, plan, b)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v", err)
	}
	if !res.Aborted || res.AbortReason == "" {
		t.Fatalf("result = %+v", res)
	}
	if calls < 1 {
		t.Fatal("confirm not consulted")
	}
	// ABORT control message observable on the stream.
	select {
	case msg := <-abortSub.C():
		for msg.Directive == nil || msg.Directive.Op != streams.OpAbort {
			msg = <-abortSub.C()
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no ABORT message")
	}
}

func TestProjectionAbortBeforeExecution(t *testing.T) {
	e := newEnv(t)
	c := New(e.store, e.reg, e.tp, e.model, Options{})
	plan, _ := e.tp.Plan("I am looking for a data scientist position.")
	b := budget.New(budget.Limits{MaxCost: 0.0001}) // below projected total
	res, err := c.ExecutePlan(sess, plan, b)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v", err)
	}
	if len(res.Steps) != 0 {
		t.Fatalf("steps ran despite projection abort: %+v", res.Steps)
	}
}

func TestConfirmPolicyContinues(t *testing.T) {
	e := newEnv(t)
	calls := 0
	c := New(e.store, e.reg, e.tp, e.model, Options{
		OnViolation: Confirm,
		ConfirmFunc: func(v []budget.Violation) bool { calls++; return true },
	})
	plan, _ := e.tp.Plan("I am looking for a data scientist position.")
	b := budget.New(budget.Limits{MaxCost: 0.0001})
	res, err := c.ExecutePlan(sess, plan, b)
	if err != nil {
		t.Fatalf("confirmed execution failed: %v", err)
	}
	if res.Aborted || len(res.Steps) != 3 {
		t.Fatalf("result = %+v", res)
	}
	if len(res.Budget.Violations) == 0 {
		t.Fatal("violations not recorded")
	}
	// One prompt for the plan projection plus at most one per step: a step
	// confirmed at admission is not re-prompted when its actuals commit.
	if calls != 4 {
		t.Fatalf("confirm prompts = %d, want 4 (projection + one per step)", calls)
	}
}

func TestRetryOnErrorReplans(t *testing.T) {
	e := newEnv(t)
	// A failing matcher registered more prominently, plus the working one.
	spec := registry.AgentSpec{
		Name:        "FLAKY_MATCHER",
		Description: "match the job seeker profile with available job listings ranking match quality precisely",
		Inputs:      []registry.ParamSpec{{Name: "JOBSEEKER_DATA", Type: "profile"}},
		Outputs:     []registry.ParamSpec{{Name: "MATCHES", Type: "rows"}},
	}
	if err := e.reg.Register(spec); err != nil {
		t.Fatal(err)
	}
	inst, err := agent.Attach(e.store, sess, agent.New(spec, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		return agent.Outputs{}, errors.New("model unavailable")
	}), agent.Options{DisableListen: true})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()

	c := New(e.store, e.reg, e.tp, e.model, Options{})
	// Hand-build a plan whose matcher step uses the flaky agent.
	plan := &planner.Plan{
		ID: "manual-1", Utterance: "match me", Intent: "rank",
		Steps: []planner.Step{
			{ID: "s1", Agent: "PROFILER", Task: "collect job seeker profile information from the user",
				Bindings: map[string]planner.Binding{"CRITERIA": {FromUserText: true}}},
			{ID: "s2", Agent: "FLAKY_MATCHER", Task: "match the job seeker profile with available job listings",
				Bindings: map[string]planner.Binding{"JOBSEEKER_DATA": {FromStep: "s1", FromParam: "JOBSEEKER_DATA"}}},
		},
	}
	res, err := c.ExecutePlan(sess, plan, budget.New(budget.Limits{}))
	if err != nil {
		t.Fatalf("replan retry failed: %v (res=%+v)", err, res)
	}
	if res.Replans != 1 {
		t.Fatalf("replans = %d", res.Replans)
	}
	if res.Steps[len(res.Steps)-1].Agent == "FLAKY_MATCHER" {
		t.Fatal("retry kept flaky agent")
	}
}

// A replan retry must be re-admitted through the budget: when the
// alternative agent's projected cost no longer fits, the plan aborts before
// the retry executes instead of overshooting post-hoc.
func TestReplanRetryReadmitsThroughBudget(t *testing.T) {
	e := newEnv(t)
	spec := registry.AgentSpec{
		Name:        "FLAKY_MATCHER",
		Description: "match the job seeker profile with available job listings ranking match quality precisely",
		Inputs:      []registry.ParamSpec{{Name: "JOBSEEKER_DATA", Type: "profile"}},
		Outputs:     []registry.ParamSpec{{Name: "MATCHES", Type: "rows"}},
	}
	if err := e.reg.Register(spec); err != nil {
		t.Fatal(err)
	}
	inst, err := agent.Attach(e.store, sess, agent.New(spec, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		return agent.Outputs{}, errors.New("model unavailable")
	}), agent.Options{DisableListen: true})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()

	c := New(e.store, e.reg, e.tp, e.model, Options{})
	plan := &planner.Plan{
		ID: "manual-4", Utterance: "match me", Intent: "rank",
		Steps: []planner.Step{
			{ID: "s1", Agent: "PROFILER", Task: "collect job seeker profile information from the user",
				Bindings: map[string]planner.Binding{"CRITERIA": {FromUserText: true}}},
			{ID: "s2", Agent: "FLAKY_MATCHER", Task: "match the job seeker profile with available job listings",
				Bindings: map[string]planner.Binding{"JOBSEEKER_DATA": {FromStep: "s1", FromParam: "JOBSEEKER_DATA"}}},
		},
	}
	// Fits PROFILER ($0.001) and the zero-QoS flaky agent, but not the
	// $0.01 JOBMATCHER the replan would substitute.
	b := budget.New(budget.Limits{MaxCost: 0.0015})
	res, err := c.ExecutePlan(sess, plan, b)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v (res=%+v)", err, res)
	}
	if got := res.Budget.CostSpent; got > 0.0015 {
		t.Fatalf("replan retry overshot the budget: spent $%.4f", got)
	}
}

// A step whose agent never reports times out at agent.StepTimeout on the
// store's clock, each of its attempts, and the plan fails with the timeout.
func TestStepFailureWithoutRetry(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	e := newEnvOn(t, clk)
	c := New(e.store, e.reg, nil, e.model, Options{})
	plan := &planner.Plan{
		ID: "manual-2", Utterance: "x", Intent: "rank",
		Steps: []planner.Step{{ID: "s1", Agent: "NO_SUCH_AGENT", Task: "anything"}},
	}
	dispatches := e.store.Subscribe(streams.Filter{
		Streams: []string{agent.ControlStream(sess)}, Ops: []string{streams.OpExecuteAgent},
	}, false)
	defer dispatches.Cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.ExecutePlan(sess, plan, budget.New(budget.Limits{}))
		done <- err
	}()
	for attempt := 1; attempt <= 3; attempt++ {
		<-dispatches.C() // the attempt's deadline is set before its directive
		clk.Advance(agent.StepTimeout)
		if attempt < 3 {
			clk.Advance(clk.Sleeping())
		}
	}
	if err := <-done; !errors.Is(err, ErrStepFailed) || !errors.Is(err, ErrStepTimeout) {
		t.Fatalf("err = %v, want a step timeout", err)
	}
}

func TestUnresolvableBinding(t *testing.T) {
	e := newEnv(t)
	c := New(e.store, e.reg, e.tp, e.model, Options{})
	plan := &planner.Plan{
		ID: "manual-3", Utterance: "x", Intent: "rank",
		Steps: []planner.Step{
			{ID: "s1", Agent: "PRESENTER", Task: "present",
				Bindings: map[string]planner.Binding{"MATCHES": {FromStep: "s0", FromParam: "MATCHES"}}},
		},
	}
	if err := plan.Validate(); err == nil {
		t.Fatal("plan with forward dep validated")
	}
	_, err := c.ExecutePlan(sess, plan, budget.New(budget.Limits{}))
	if err == nil {
		t.Fatal("executed invalid plan")
	}
}

// fanEnv attaches n independent equal-latency agents (FAN_1..FAN_n) to the
// session plus a JOIN agent consuming all their outputs, and returns a
// tracker of the maximum number of agents in flight at once.
type fanEnv struct {
	*env
	inFlight    atomic.Int64
	maxInFlight atomic.Int64
}

func newFanEnv(t testing.TB, n int, stepLatency time.Duration) *fanEnv {
	fe := &fanEnv{env: newEnv(t)}
	fe.register(t, n, stepLatency)
	fe.attach(t, sess, n, stepLatency)
	return fe
}

// register adds the FAN_1..FAN_n and JOIN specs to the registry.
func (fe *fanEnv) register(t testing.TB, n int, stepLatency time.Duration) {
	for i := 1; i <= n; i++ {
		spec := registry.AgentSpec{
			Name:        fmt.Sprintf("FAN_%d", i),
			Description: fmt.Sprintf("independent fan-out worker %d", i),
			Inputs:      []registry.ParamSpec{{Name: "CRITERIA", Type: "text"}},
			Outputs:     []registry.ParamSpec{{Name: "OUT", Type: "text"}},
			QoS:         registry.QoSProfile{CostPerCall: 0.001, Latency: stepLatency, Accuracy: 1.0},
		}
		if err := fe.reg.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	join := registry.AgentSpec{
		Name:        "JOIN",
		Description: "joins the fan-out outputs",
		Outputs:     []registry.ParamSpec{{Name: "JOINED", Type: "text"}},
	}
	for i := 1; i <= n; i++ {
		join.Inputs = append(join.Inputs, registry.ParamSpec{Name: fmt.Sprintf("IN_%d", i), Type: "text"})
	}
	if err := fe.reg.Register(join); err != nil {
		t.Fatal(err)
	}
}

// attach starts the fan and join agent instances in the given session.
func (fe *fanEnv) attach(t testing.TB, session string, n int, stepLatency time.Duration) {
	track := func() func() {
		cur := fe.inFlight.Add(1)
		for {
			max := fe.maxInFlight.Load()
			if cur <= max || fe.maxInFlight.CompareAndSwap(max, cur) {
				break
			}
		}
		return func() { fe.inFlight.Add(-1) }
	}
	for i := 1; i <= n; i++ {
		spec, err := fe.reg.Get(fmt.Sprintf("FAN_%d", i))
		if err != nil {
			t.Fatal(err)
		}
		inst, err := agent.Attach(fe.store, session, agent.New(spec, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
			defer track()()
			select {
			case <-time.After(stepLatency):
			case <-ctx.Done():
				return agent.Outputs{}, ctx.Err()
			}
			return agent.Outputs{Values: map[string]any{"OUT": "done"}}, nil
		}), agent.Options{DisableListen: true, Workers: n})
		if err != nil {
			t.Fatal(err)
		}
		fe.insts = append(fe.insts, inst)
	}
	join, err := fe.reg.Get("JOIN")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := agent.Attach(fe.store, session, agent.New(join, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		return agent.Outputs{Values: map[string]any{"JOINED": fmt.Sprintf("%d inputs", len(inv.Inputs))}}, nil
	}), agent.Options{DisableListen: true})
	if err != nil {
		t.Fatal(err)
	}
	fe.insts = append(fe.insts, inst)
}

// fanOutPlan builds s1..sn independent steps plus a join step depending on
// all of them.
func fanOutPlan(n int) *planner.Plan {
	p := &planner.Plan{ID: "fan", Utterance: "fan out", Intent: "rank"}
	joinBindings := map[string]planner.Binding{}
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("s%d", i)
		p.Steps = append(p.Steps, planner.Step{
			ID: id, Agent: fmt.Sprintf("FAN_%d", i), Task: "fan out",
			Bindings: map[string]planner.Binding{"CRITERIA": {FromUserText: true}},
		})
		joinBindings[fmt.Sprintf("IN_%d", i)] = planner.Binding{FromStep: id, FromParam: "OUT"}
	}
	p.Steps = append(p.Steps, planner.Step{
		ID: "join", Agent: "JOIN", Task: "join", Bindings: joinBindings,
	})
	return p
}

// A fan-out plan's independent steps must run concurrently (one wave), and
// the merged outputs must all reach the join step. Run under -race: this is
// the scheduler's concurrency soak test.
func TestConcurrentFanOutExecutesInParallel(t *testing.T) {
	const n = 4
	fe := newFanEnv(t, n, 40*time.Millisecond)
	c := New(fe.store, fe.reg, fe.tp, fe.model, Options{})
	plan := fanOutPlan(n)
	if g, err := plan.Graph(); err != nil || len(g.Waves) != 2 {
		t.Fatalf("fan-out plan schedules as %v (err %v), want 2 waves: the fan, then the join", g.Waves, err)
	}

	start := time.Now()
	res, err := c.ExecutePlan(sess, plan, budget.New(budget.Limits{}))
	wall := time.Since(start)
	if err != nil {
		t.Fatalf("fan-out failed: %v (res=%+v)", err, res)
	}
	if len(res.Steps) != n+1 {
		t.Fatalf("steps = %d, want %d", len(res.Steps), n+1)
	}
	// Steps reported in plan order with the join last, fed by all n outputs.
	if res.Steps[n].StepID != "join" {
		t.Fatalf("step order = %+v", res.Steps)
	}
	if joined, _ := res.Final["JOINED"]; joined != fmt.Sprintf("%d inputs", n) {
		t.Fatalf("join saw %v", joined)
	}
	if max := fe.maxInFlight.Load(); max < 2 {
		t.Fatalf("max in-flight = %d, want >= 2 (steps serialized)", max)
	}
	// ~1 wave of fan-out + join (~2x step latency), not n sequential waves.
	// The bound of 3/4 of the sequential floor is generous for slow CI
	// machines while still failing if most of the fan-out serializes.
	if bound := time.Duration(n) * 40 * time.Millisecond * 3 / 4; wall >= bound {
		t.Fatalf("wall-clock %v not under concurrency bound %v", wall, bound)
	}
	if res.Budget.Charges != n+1 {
		t.Fatalf("charges = %d, want %d", res.Budget.Charges, n+1)
	}
}

// A parallel plan admitted by the critical-path projection must not be
// aborted mid-flight by latency accounting: 4 concurrent 40ms steps under a
// 150ms limit overlap on the critical path (~40ms + join), so neither the
// per-step admission nor the commits may trip the latency limit the way a
// sum-of-step-latencies (160ms) would.
func TestParallelPlanFitsLatencyBudget(t *testing.T) {
	const n = 4
	fe := newFanEnv(t, n, 40*time.Millisecond)
	c := New(fe.store, fe.reg, fe.tp, fe.model, Options{})
	b := budget.New(budget.Limits{MaxLatency: 150 * time.Millisecond})
	res, err := c.ExecutePlan(sess, fanOutPlan(n), b)
	if err != nil {
		t.Fatalf("latency-budgeted fan-out aborted: %v (res=%+v)", err, res)
	}
	if res.Aborted || len(res.Steps) != n+1 {
		t.Fatalf("result = %+v", res)
	}
	// The budget's latency dimension tracked the critical path over the
	// steps' actual latencies, not their 160ms sum.
	if lat := res.Budget.Latency; lat >= 160*time.Millisecond {
		t.Fatalf("charged latency %v looks like a sum of steps, not a critical path", lat)
	}
}

// MaxParallel bounds the steps in flight, counting the one the plan's own
// goroutine runs: on a 3-wide fan-out at most min(MaxParallel, 3) run at
// once, and under MaxParallel 1 they run one after another.
func TestMaxParallelBoundsInFlightSteps(t *testing.T) {
	const n = 3
	for _, limit := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("MaxParallel=%d", limit), func(t *testing.T) {
			fe := newFanEnv(t, n, 20*time.Millisecond)
			c := New(fe.store, fe.reg, fe.tp, fe.model, Options{MaxParallel: limit})
			res, err := c.ExecutePlan(sess, fanOutPlan(n), budget.New(budget.Limits{}))
			if err != nil {
				t.Fatalf("fan-out failed: %v (res=%+v)", err, res)
			}
			if got, want := fe.maxInFlight.Load(), int64(min(limit, n)); got != want {
				t.Fatalf("max in-flight = %d under MaxParallel=%d, want %d", got, limit, want)
			}
		})
	}
}

// A failure in one step must cancel the coordinator's wait on the other
// in-flight steps via the shared context instead of letting the plan run on
// to the step timeout.
func TestFailureCancelsInFlightSteps(t *testing.T) {
	e := newEnv(t)
	started := make(chan struct{}, 2)
	release, woke := make(chan struct{}), make(chan struct{})
	add := func(name string, fail bool) {
		spec := registry.AgentSpec{
			Name:        name,
			Description: name + " concurrent step",
			Inputs:      []registry.ParamSpec{{Name: "CRITERIA", Type: "text"}},
			Outputs:     []registry.ParamSpec{{Name: "OUT", Type: "text"}},
			QoS:         registry.QoSProfile{CostPerCall: 0.001, Accuracy: 1.0},
		}
		if err := e.reg.Register(spec); err != nil {
			t.Fatal(err)
		}
		inst, err := agent.Attach(e.store, sess, agent.New(spec, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
			started <- struct{}{}
			if fail {
				<-release
				return agent.Outputs{}, errors.New("boom")
			}
			<-ctx.Done() // sleeper: only a cancellation or the step timeout wakes it
			close(woke)
			return agent.Outputs{}, ctx.Err()
		}), agent.Options{DisableListen: true})
		if err != nil {
			t.Fatal(err)
		}
		e.insts = append(e.insts, inst)
	}
	add("FAILER", true)
	add("SLEEPER", false)

	// If cancellation did not work, the plan would hang on the sleeper for
	// the full step timeout. No planner: the failed step is not replanned.
	c := New(e.store, e.reg, nil, e.model, Options{})
	plan := &planner.Plan{
		ID: "abort-fan", Utterance: "x", Intent: "rank",
		Steps: []planner.Step{
			{ID: "s1", Agent: "FAILER", Task: "fail",
				Bindings: map[string]planner.Binding{"CRITERIA": {FromUserText: true}}},
			{ID: "s2", Agent: "SLEEPER", Task: "sleep",
				Bindings: map[string]planner.Binding{"CRITERIA": {FromUserText: true}}},
		},
	}
	go func() {
		// Let both steps start before the failure fires.
		<-started
		<-started
		close(release)
	}()
	start := time.Now()
	res, err := c.ExecutePlan(sess, plan, budget.New(budget.Limits{}))
	if !errors.Is(err, ErrStepFailed) {
		t.Fatalf("err = %v", err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("failure did not cancel the in-flight sleeper (took %v)", wall)
	}
	// The targeted ABORT stops the sleeper's invocation too, not only the
	// plan's wait for it.
	select {
	case <-woke:
	case <-time.After(5 * time.Second):
		t.Fatal("the sleeper's invocation was not cancelled")
	}
	// The cancelled sleeper is reported as collateral, not as the cause.
	for _, sr := range res.Steps {
		if sr.StepID == "s2" && sr.Err != "cancelled" {
			t.Fatalf("sleeper result = %+v", sr)
		}
	}
}

// publishPlan hands a session a plan the way a planning agent does: a copy
// of it, as a PLAN output tagged PlanTag on the planner's output stream.
func publishPlan(t testing.TB, store *streams.Store, session string, p *planner.Plan) {
	t.Helper()
	if _, err := store.Publish(streams.Message{
		Stream: agent.OutputStream(session, planner.AgentName), Session: session, Kind: streams.Data,
		Sender: planner.AgentName, Param: "PLAN", Tags: []string{PlanTag}, Payload: p.Clone(),
	}); err != nil {
		t.Fatal(err)
	}
}

// A published plan is immutable: what its producer does to its own copy
// afterwards — here, at once, racing the service — is not what runs.
func TestServiceRunsThePlanAsPublished(t *testing.T) {
	e := newEnv(t)
	c := New(e.store, e.reg, e.tp, e.model, Options{})
	svc := c.Serve(budget.Limits{MaxCost: 1.0})
	defer svc.Stop()
	seat, shown := svc.Join(sess), shownResults(t, e.store, sess)

	plan, err := e.tp.Plan("I am looking for a data scientist position in SF bay area.")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(plan.Steps))
	for i, st := range plan.Steps {
		want[i] = st.Agent
	}
	publishPlan(t, e.store, sess, plan)
	for i := range plan.Steps {
		plan.Steps[i].Agent = "NOBODY"
		plan.Steps[i].Bindings = nil
	}
	plan.Steps = plan.Steps[:1]
	awaitShown(t, shown, 1)
	res := seat.Results()[0]
	if res.Aborted || len(res.Steps) != len(want) {
		t.Fatalf("service result = %+v", res)
	}
	for i, sr := range res.Steps {
		if sr.Agent != want[i] || sr.Err != "" {
			t.Fatalf("step %d ran on %s (err %q), want %s", i, sr.Agent, sr.Err, want[i])
		}
	}
}

func TestServiceExecutesEmittedPlans(t *testing.T) {
	e := newEnv(t)
	c := New(e.store, e.reg, e.tp, e.model, Options{})
	svc := c.Serve(budget.Limits{MaxCost: 1.0})
	defer svc.Stop()
	seat, shown := svc.Join(sess), shownResults(t, e.store, sess)

	plan, err := e.tp.Plan("I am looking for a data scientist position in SF bay area.")
	if err != nil {
		t.Fatal(err)
	}
	publishPlan(t, e.store, sess, plan)
	// The plan's final outputs surface on the display stream, tagged
	// "result", after its result is kept.
	if m := awaitShown(t, shown, 1)[0]; !m.HasTag("result") {
		t.Fatalf("coordinator displayed %+v, want a result", m)
	}
	if rs := seat.Results(); len(rs) != 1 || rs[0].Aborted {
		t.Fatalf("results = %+v, want one completed plan", rs)
	}
}

// onePlan is a one-step plan for the PROFILER.
func onePlan(id string) *planner.Plan {
	return &planner.Plan{ID: id, Steps: []planner.Step{{
		ID: "s1", Agent: "PROFILER", Bindings: map[string]planner.Binding{"CRITERIA": {Value: id}},
	}}}
}

// A session runs plans for as long as it lives; the service keeps the last
// resultsKept results, not all of them.
func TestServiceKeepsTheLatestResults(t *testing.T) {
	e := newEnv(t)
	c := New(e.store, e.reg, e.tp, e.model, Options{})
	svc := c.Serve(budget.Limits{MaxCost: 1.0})
	defer svc.Stop()
	seat, shown := svc.Join(sess), shownResults(t, e.store, sess)
	const plans = 200
	for i := 1; i <= plans; i++ {
		publishPlan(t, e.store, sess, onePlan(fmt.Sprintf("p%d", i)))
		awaitShown(t, shown, 1)
		rs := seat.Results()
		if res := rs[len(rs)-1]; res.Aborted || len(res.Steps) != 1 || res.Steps[0].Err != "" {
			t.Fatalf("plan %d: %+v", i, res)
		}
	}
	rs := seat.Results()
	if len(rs) != resultsKept {
		t.Fatalf("%d results kept after %d plans, want %d", len(rs), plans, resultsKept)
	}
	for i, r := range rs {
		if want := fmt.Sprintf("p%d", plans-resultsKept+1+i); r.PlanID != want {
			t.Fatalf("result %d is %s's, want %s's (oldest first, ending at the last plan)", i, r.PlanID, want)
		}
	}
}

// A service costs one subscription and one goroutine however many sessions
// join it, takes plans as plan-tagged data and nothing else, and Stop gives
// back what Serve took.
func TestServiceStartsAndStopsClean(t *testing.T) {
	e := newEnv(t)
	c := New(e.store, e.reg, e.tp, e.model, Options{})
	shown := shownResults(t, e.store, sess)
	subs := func() int64 { return e.store.StatsSnapshot().Subscriptions }
	subsBefore, goroutinesBefore := subs(), runtime.NumGoroutine()

	svc := c.Serve(budget.Limits{MaxCost: 1.0})
	seat := svc.Join(sess)
	for i := 1; i < 8; i++ {
		svc.Join(fmt.Sprintf("%s-%d", sess, i))
	}
	if got := subs(); got != subsBefore+1 {
		t.Fatalf("Serve and 8 joins took %d subscriptions, want 1", got-subsBefore)
	}
	if got := runtime.NumGoroutine(); got != goroutinesBefore+1 {
		t.Fatalf("Serve and 8 joins started %d goroutines, want 1", got-goroutinesBefore)
	}
	// A PLAN control directive is not an intake; the same service reads the
	// plan published behind it, so it has passed the directive by then.
	if _, err := e.store.Publish(streams.Message{
		Stream: agent.ControlStream(sess), Session: sess, Kind: streams.Control, Sender: planner.AgentName,
		Directive: &streams.Directive{Op: "PLAN", Args: map[string]any{"plan": onePlan("by-directive")}},
	}); err != nil {
		t.Fatal(err)
	}
	publishPlan(t, e.store, sess, onePlan("as-data"))
	awaitShown(t, shown, 1)
	svc.Stop() // leaves every session, waiting for anything still executing
	if rs := seat.Results(); len(rs) != 1 || rs[0].PlanID != "as-data" {
		t.Fatalf("plans run: %+v, want as-data once", rs)
	}
	if got := subs(); got != subsBefore {
		t.Fatalf("%d subscriptions after Stop, %d before Serve", got, subsBefore)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Stop, %d before Serve", runtime.NumGoroutine(), goroutinesBefore)
		}
		time.Sleep(time.Millisecond)
	}
}
