package coordinator

import (
	"context"
	"fmt"
	"strings"
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

// shownResults subscribes to what the coordinator shows on a session's
// display stream. Made before a plan is published, it is a causal wait for
// the plan's end, with no polling: every plan these tests run displays a
// result, after its Result is kept on the seat.
func shownResults(t testing.TB, store *streams.Store, session string) *streams.Subscription {
	sub := store.Subscribe(streams.Filter{
		Streams: []string{agent.DisplayStream(session)}, Senders: []string{"coordinator"},
	}, false)
	t.Cleanup(sub.Cancel)
	return sub
}

// awaitShown takes the next n messages from a shownResults subscription.
func awaitShown(t testing.TB, shown *streams.Subscription, n int) []streams.Message {
	t.Helper()
	msgs := make([]streams.Message, n)
	for i := range msgs {
		select {
		case msgs[i] = <-shown.C():
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d plan results shown within 10 s", i, n)
		}
	}
	return msgs
}

// A producer's Tags go on all of its outputs, so a plan's companions arrive
// tagged PlanTag too (the Agentic Employer's JOB_ID beside its PLAN). They
// run nothing, show nothing, abort nothing and do not keep Stop waiting — and
// one that cannot be a plan is dropped by the watch loop itself, on the
// payload alone, before a goroutine or a JSON round trip is spent on it.
func TestServiceDropsPlanTaggedStrays(t *testing.T) {
	e := newEnv(t)
	c := New(e.store, e.reg, e.tp, e.model, Options{})
	svc := c.Serve(budget.Limits{MaxCost: 1.0})
	seat, shown := svc.Join(sess), shownResults(t, e.store, sess)

	strays := []any{12, "ae-summarize-12", nil, map[string]any{"job_id": 12}}
	for _, stray := range strays {
		if _, err := e.store.Publish(streams.Message{
			Stream: agent.OutputStream(sess, planner.AgentName), Session: sess, Kind: streams.Data,
			Sender: planner.AgentName, Param: "JOB_ID", Tags: []string{"JOB_ID", PlanTag}, Payload: stray,
		}); err != nil {
			t.Fatal(err)
		}
	}
	publishPlan(t, e.store, sess, onePlan("real"))
	awaitShown(t, shown, 1)
	if res := seat.Results()[0]; res.PlanID != "real" || res.Aborted {
		t.Fatalf("first result = %+v, want the real plan's", res)
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
	if rs := seat.Results(); len(rs) != 1 {
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
	svc := c.Serve(budget.Limits{MaxCost: 1.0})
	defer svc.Stop()
	seat, results := svc.Join(sess), shownResults(t, e.store, sess)
	for _, tc := range []struct {
		agent string
		want  [2]string
	}{
		{"DECLARED", [2]string{"SUMMARY", "DETAIL"}},
		{"UNLISTED", [2]string{"DETAIL", "SUMMARY"}},
	} {
		for run := 0; run < 50; run++ {
			shown := len(coordinatorDisplay(t, e.store))
			publishPlan(t, e.store, sess, &planner.Plan{ID: fmt.Sprintf("%s-%d", tc.agent, run), Steps: []planner.Step{{
				ID: "s1", Agent: tc.agent, Bindings: map[string]planner.Binding{"IN": {Value: run}},
			}}})
			awaitShown(t, results, 2)
			rs := seat.Results()
			if res := rs[len(rs)-1]; res.Aborted || len(res.Final) != 2 {
				t.Fatalf("%s run %d: %+v", tc.agent, run, res)
			}
			got := coordinatorDisplay(t, e.store)[shown:]
			if len(got) != 2 || got[0] != tc.want[0] || got[1] != tc.want[1] {
				t.Fatalf("%s run %d displayed %v, want %v", tc.agent, run, got, tc.want)
			}
		}
	}
}

const other = "session:other"

// gatedAgent deploys GATED into sess and other, with room for every plan
// these tests run at once: an invocation reports its session on started,
// then waits for that session's gate to close.
func gatedAgent(t *testing.T, e *env, gates map[string]chan struct{}) <-chan string {
	t.Helper()
	spec := registry.AgentSpec{
		Name:    "GATED",
		Inputs:  []registry.ParamSpec{{Name: "IN", Type: "text", Optional: true}},
		Outputs: []registry.ParamSpec{{Name: "OUT", Type: "text"}},
	}
	if err := e.reg.Register(spec); err != nil {
		t.Fatal(err)
	}
	started := make(chan string, 4*DefaultMaxConcurrentPlans)
	inst, err := agent.Attach(e.store, sess, agent.New(spec, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		started <- inv.Session
		select {
		case <-gates[inv.Session]:
			return agent.Outputs{Values: map[string]any{"OUT": "done"}}, nil
		case <-ctx.Done():
			return agent.Outputs{}, ctx.Err()
		}
	}), agent.Options{DisableListen: true, Workers: 2 * DefaultMaxConcurrentPlans})
	if err != nil {
		t.Fatal(err)
	}
	e.insts = append(e.insts, inst)
	for _, in := range e.insts {
		if err := in.Join(other); err != nil {
			t.Fatal(err)
		}
	}
	return started
}

func gatedPlan(id string) *planner.Plan {
	return &planner.Plan{ID: id, Steps: []planner.Step{{ID: "s1", Agent: "GATED"}}}
}

// awaitStarted takes n session names from started.
func awaitStarted(t *testing.T, started <-chan string, n int) []string {
	t.Helper()
	got := make([]string, n)
	for i := range got {
		select {
		case got[i] = <-started:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d gated invocations started within 10 s", i, n)
		}
	}
	return got
}

// A session with DefaultMaxConcurrentPlans plans blocked holds up its own
// next plan and no other session's: the watch loop hands every plan on at
// once, and only a worker of the full session waits for a slot.
func TestSeatBoundHoldsUpOnlyItsSession(t *testing.T) {
	e := newEnv(t)
	gates := map[string]chan struct{}{sess: make(chan struct{})}
	started := gatedAgent(t, e, gates)
	svc := New(e.store, e.reg, e.tp, e.model, Options{}).Serve(budget.Limits{MaxCost: 1.0})
	defer svc.Stop()
	full, free := svc.Join(sess), svc.Join(other)
	fullShown, freeShown := shownResults(t, e.store, sess), shownResults(t, e.store, other)

	for i := 0; i <= DefaultMaxConcurrentPlans; i++ {
		publishPlan(t, e.store, sess, gatedPlan(fmt.Sprintf("blocked-%d", i)))
	}
	awaitStarted(t, started, DefaultMaxConcurrentPlans)
	publishPlan(t, e.store, other, onePlan("beside"))
	awaitShown(t, freeShown, 1)
	if rs := free.Results(); len(rs) != 1 || rs[0].PlanID != "beside" || rs[0].Aborted {
		t.Fatalf("the other session ran %+v, want its plan", rs)
	}
	select {
	case s := <-started:
		t.Fatalf("a plan of %s started beyond the bound", s)
	default:
	}

	close(gates[sess])
	awaitStarted(t, started, 1) // the plan that waited for a slot
	awaitShown(t, fullShown, DefaultMaxConcurrentPlans+1)
	if rs := full.Results(); len(rs) != DefaultMaxConcurrentPlans+1 {
		t.Fatalf("the full session completed %d plans, want %d", len(rs), DefaultMaxConcurrentPlans+1)
	}
}

// Leave drops what the session has not started and waits for what it has
// running, and for nothing of another session's.
func TestLeaveWaitsForItsOwnPlansOnly(t *testing.T) {
	e := newEnv(t)
	gates := map[string]chan struct{}{sess: make(chan struct{}), other: make(chan struct{})}
	started := gatedAgent(t, e, gates)
	svc := New(e.store, e.reg, e.tp, e.model, Options{}).Serve(budget.Limits{MaxCost: 1.0})
	defer svc.Stop()
	leaving, staying := svc.Join(sess), svc.Join(other)
	stayingShown := shownResults(t, e.store, other)

	for i := 0; i < DefaultMaxConcurrentPlans; i++ {
		publishPlan(t, e.store, sess, gatedPlan(fmt.Sprintf("running-%d", i)))
	}
	publishPlan(t, e.store, other, gatedPlan("other"))
	awaitStarted(t, started, DefaultMaxConcurrentPlans+1)
	// The watch loop reads in order: once "marker" has run, "waiting" is on a
	// worker, waiting for a slot of the full session.
	publishPlan(t, e.store, sess, gatedPlan("waiting"))
	publishPlan(t, e.store, other, onePlan("marker"))
	awaitShown(t, stayingShown, 1)

	left := make(chan struct{})
	go func() {
		svc.Leave(sess)
		close(left)
	}()
	select {
	case <-left:
		t.Fatal("Leave returned with the session's plans still running")
	case <-time.After(20 * time.Millisecond):
	}
	publishPlan(t, e.store, sess, gatedPlan("after-leave"))
	close(gates[sess])
	select {
	case <-left: // the other session's plan is still blocked
	case <-time.After(10 * time.Second):
		t.Fatal("Leave did not return once the session's own plans ended")
	}
	rs := leaving.Results()
	if len(rs) != DefaultMaxConcurrentPlans {
		t.Fatalf("the session that left completed %d plans, want its %d running ones", len(rs), DefaultMaxConcurrentPlans)
	}
	for _, r := range rs {
		if !strings.HasPrefix(r.PlanID, "running-") || r.Aborted {
			t.Fatalf("the session that left ran %+v", r)
		}
	}

	close(gates[other])
	awaitShown(t, stayingShown, 1)
	if rs := staying.Results(); len(rs) != 2 || rs[1].PlanID != "other" || rs[1].Aborted {
		t.Fatalf("the other session ran %+v, want marker then other", rs)
	}
	select {
	case s := <-started:
		t.Fatalf("a plan of %s started after the session left", s)
	default:
	}
}

// A plan published in a sub-scope of a joined session runs once, on the
// joined session's seat, and shows on its display stream.
func TestSubScopePlanRunsOnItsSessionsSeat(t *testing.T) {
	e := newEnv(t)
	svc := New(e.store, e.reg, e.tp, e.model, Options{}).Serve(budget.Limits{MaxCost: 1.0})
	defer svc.Stop()
	seat, shown := svc.Join(sess), shownResults(t, e.store, sess)

	publishPlan(t, e.store, sess+":profile", onePlan("nested"))
	publishPlan(t, e.store, sess, onePlan("top"))
	awaitShown(t, shown, 2)
	select {
	case m := <-shown.C():
		t.Fatalf("a third result shown: %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
	rs := seat.Results()
	if len(rs) != 2 || (rs[0].PlanID != "nested" && rs[1].PlanID != "nested") {
		t.Fatalf("results %+v, want nested and top once each", rs)
	}
	if _, ok := svc.Seat(sess + ":profile"); ok {
		t.Fatal("a sub-scope has a seat of its own")
	}
}
