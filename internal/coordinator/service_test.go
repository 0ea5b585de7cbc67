package coordinator

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"blueprint/internal/agent"
	"blueprint/internal/budget"
	"blueprint/internal/memo"
	"blueprint/internal/planner"
	"blueprint/internal/registry"
	"blueprint/internal/streams"
	"blueprint/internal/trace"
)

// coordinatorDisplay returns the payload, rendered, of every message the
// coordinator has put on the session's display stream, in order.
func coordinatorDisplay(t *testing.T, store *streams.Store) []string {
	t.Helper()
	msgs, err := store.ReadAll(agent.DisplayStream(sess))
	if err != nil {
		t.Fatal(err)
	}
	var shown []string
	for _, m := range msgs {
		if m.Sender == "coordinator" {
			shown = append(shown, m.PayloadString())
		}
	}
	return shown
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

// A producer's Tags go on all of its outputs, so a value an agent publishes
// beside its plan arrives tagged PlanTag too. Such strays run nothing, show
// nothing, abort nothing and do not keep Stop waiting — and one that cannot
// be a plan is dropped by the watch loop itself, on the payload alone,
// before a goroutine is spent on it.
func TestServiceDropsPlanTaggedStrays(t *testing.T) {
	e := newEnv(t)
	c := New(e.store, e.reg, e.tp, e.model, Options{})
	svc := c.Serve(budget.Limits{MaxCost: 1.0})
	seat, shown := svc.Join(sess), shownResults(t, e.store, sess)

	strays := []any{12, "ae-summarize-12", nil, map[string]any{"job_id": 12}}
	for _, stray := range strays {
		if _, err := e.store.Publish(streams.Message{
			Stream: agent.OutputStream(sess, planner.AgentName), Session: sess, Kind: streams.Data,
			Sender: planner.AgentName, Tags: []string{"JOB_ID", PlanTag}, Payload: stray,
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
	if shown := coordinatorDisplay(t, e.store); len(shown) != 1 || !strings.Contains(shown[0], `"criteria":"real"`) {
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

	if !mayBePlan(onePlan("p")) {
		t.Error("mayBePlan(*planner.Plan) = false")
	}
	// A plan is the *planner.Plan itself, live or recovered from a log: a
	// plan value, a nil plan or a map is turned away.
	for _, stray := range append(strays, *onePlan("v"), (*planner.Plan)(nil), map[string]any{"id": "m"}) {
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
		}), agent.Options{})
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
		{"DECLARED", [2]string{"s", "d"}}, // SUMMARY, DETAIL
		{"UNLISTED", [2]string{"d", "s"}}, // DETAIL, SUMMARY
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

// A plan the service gives up on shows one failure record for its ask: an
// AGENT_ERROR on the display stream naming the failed step's agent, after
// the step's retries and with no substitute, or "coordinator" for a budget
// abort, with the plan's error.
func TestServiceShowsAFailedPlansFailureRecord(t *testing.T) {
	e := newEnv(t)
	failer := registry.AgentSpec{
		Name: "FAILER", Inputs: []registry.ParamSpec{{Name: "IN", Type: "text", Optional: true}},
		Outputs: []registry.ParamSpec{{Name: "OUT", Type: "text"}},
	}
	if err := e.reg.Register(failer); err != nil {
		t.Fatal(err)
	}
	inst, err := agent.Attach(e.store, sess, agent.New(failer, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		return agent.Outputs{}, errors.New("boom")
	}), agent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.insts = append(e.insts, inst)
	c := New(e.store, e.reg, nil, e.model, Options{}) // no planner: no replan
	for i, tc := range []struct {
		limits       budget.Limits
		plan         *planner.Plan
		agent, cause string
	}{
		{budget.Limits{MaxCost: 1.0}, &planner.Plan{ID: "fails", Steps: []planner.Step{{ID: "s1", Agent: "FAILER"}}}, "FAILER", "boom"},
		{budget.Limits{MaxCost: 1e-9}, onePlan("over-budget"), "coordinator", ErrAborted.Error()},
	} {
		svc := c.Serve(tc.limits)
		svc.Join(sess)
		shown := shownResults(t, e.store, sess)
		ask := uint64(100 + i)
		if _, err := e.store.Publish(streams.Message{
			Stream: agent.OutputStream(sess, planner.AgentName), Session: sess, Kind: streams.Data,
			Sender: planner.AgentName, Tags: []string{"PLAN", PlanTag}, Payload: tc.plan, Ask: ask,
		}); err != nil {
			t.Fatal(err)
		}
		m := awaitShown(t, shown, 1)[0]
		svc.Stop()
		if d := m.Directive; m.Ask != ask || d == nil || d.Op != agent.OpAgentError || d.Agent != tc.agent || !strings.Contains(d.Error, tc.cause) {
			t.Fatalf("plan %s showed %+v (directive %+v), want one AGENT_ERROR of %s for ask %d carrying %q", tc.plan.ID, m, m.Directive, tc.agent, ask, tc.cause)
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
	}), agent.Options{Workers: 2 * DefaultMaxConcurrentPlans})
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

// A run never writes its plan: the projection, the scheduler and a replan
// only read it, so the service runs the published payload itself, not a
// copy. Each plan — a memo-warm one, a fan-out one, and one whose step fails
// and is replanned to an alternative agent — equals a deep copy taken before
// its run, after a direct run and after a run through the service while
// another goroutine renders the PLAN message as the flow views do. Under
// -race, a write racing that rendering fails the test too.
func TestPlanRunLeavesPayloadUnchanged(t *testing.T) {
	fe := newFanEnv(t, 3, time.Millisecond)
	registerProc(t, fe.store, fe.reg, registry.AgentSpec{
		Name: "LOOKUP", Description: "look up a job's applicants", Cacheable: true,
		Inputs:  []registry.ParamSpec{{Name: "JOB_ID", Type: "int"}},
		Outputs: []registry.ParamSpec{{Name: "APPLICANTS", Type: "text"}},
		QoS:     registry.QoSProfile{CostPerCall: 0.001, Latency: time.Millisecond, Accuracy: 0.9},
	}, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		return agent.Outputs{Values: map[string]any{"APPLICANTS": fmt.Sprint("applicants of ", inv.Inputs["JOB_ID"])}}, nil
	})
	registerProc(t, fe.store, fe.reg, registry.AgentSpec{
		Name:        "FLAKY_MATCHER",
		Description: "match the job seeker profile with available job listings ranking match quality precisely",
		Inputs:      []registry.ParamSpec{{Name: "JOBSEEKER_DATA", Type: "profile"}},
		Outputs:     []registry.ParamSpec{{Name: "MATCHES", Type: "rows"}},
	}, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		return agent.Outputs{}, errors.New("model unavailable")
	})
	c := New(fe.store, fe.reg, fe.tp, fe.model, Options{Memo: memo.New(64)})

	warm := &planner.Plan{ID: "warm", Utterance: "summarize job 7", Intent: "summarize",
		Steps: []planner.Step{{ID: "s1", Agent: "LOOKUP", Task: "summarize applicants for the selected job",
			Bindings: map[string]planner.Binding{"JOB_ID": {Value: 7}}}},
		Explanation: []string{"one cacheable step"}}
	if _, err := c.ExecutePlan(sess, copyPlan(warm), nil); err != nil {
		t.Fatal(err)
	}
	replanned := &planner.Plan{ID: "replanned", Utterance: "match me", Intent: "rank",
		Steps: []planner.Step{
			{ID: "s1", Agent: "PROFILER", Task: "collect job seeker profile information from the user",
				Bindings: map[string]planner.Binding{"CRITERIA": {FromUserText: true}}},
			{ID: "s2", Agent: "FLAKY_MATCHER", Task: "match the job seeker profile with available job listings",
				Bindings: map[string]planner.Binding{"JOBSEEKER_DATA": {FromStep: "s1", FromParam: "JOBSEEKER_DATA"}}},
		}}
	plans := []*planner.Plan{warm, fanOutPlan(3), replanned}
	check := func(how string, res *Result, payload, before *planner.Plan) {
		t.Helper()
		if res == nil || res.Aborted || len(res.Steps) != len(before.Steps) {
			t.Fatalf("%s run of %s: %+v", how, before.ID, res)
		}
		if before == warm && !res.Steps[0].Cached || before == replanned && res.Replans != 1 {
			t.Fatalf("%s run of %s is not what it stands for: %+v", how, before.ID, res)
		}
		if !reflect.DeepEqual(payload, before) {
			t.Fatalf("%s run of %s wrote its plan:\n got %+v\nwant %+v", how, before.ID, payload, before)
		}
	}

	for _, p := range plans {
		payload := copyPlan(p)
		res, err := c.ExecutePlan(sess, payload, budget.New(budget.Limits{MaxCost: 1}))
		if err != nil {
			t.Fatalf("%s: %v", p.ID, err)
		}
		check("a direct", res, payload, p)
	}

	svc := c.Serve(budget.Limits{MaxCost: 1})
	defer svc.Stop()
	seat, shown := svc.Join(sess), shownResults(t, fe.store, sess)
	stop, rendered := make(chan struct{}), make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				rendered <- n
				return
			default:
			}
			for _, m := range fe.store.History(sess) {
				if m.HasTag(PlanTag) {
					_ = m.PayloadString()
					n++
				}
			}
			_ = trace.Flow(fe.store, sess)
		}
	}()
	for i, p := range plans {
		payload := copyPlan(p)
		if _, err := fe.store.Publish(streams.Message{
			Stream: agent.OutputStream(sess, planner.AgentName), Session: sess, Kind: streams.Data,
			Sender: planner.AgentName, Tags: []string{"PLAN", PlanTag}, Payload: payload,
		}); err != nil {
			t.Fatal(err)
		}
		awaitShown(t, shown, 1) // each plan's last step has one output
		check("a service", seat.Results()[i], payload, p)
	}
	close(stop)
	if n := <-rendered; n == 0 {
		t.Fatal("no PLAN message was rendered during the runs")
	}
}
