package blueprint

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"blueprint/internal/agent"
	"blueprint/internal/budget"
	"blueprint/internal/coordinator"
	"blueprint/internal/hragents"
	"blueprint/internal/planner"
	"blueprint/internal/registry"
	"blueprint/internal/streams"
)

// awaitPlanResults waits until the coordinator service has finished n plans
// of the session and shown the last one's result, and returns them.
func awaitPlanResults(t *testing.T, sess *Session, n int) []*coordinator.Result {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if res := sess.PlanResults(); len(res) >= n {
			msgs, err := sess.Store().ReadAll(agent.DisplayStream(sess.ID))
			if err != nil {
				t.Fatal(err)
			}
			if len(msgs) > 0 && msgs[len(msgs)-1].Sender == "coordinator" {
				return res
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d plans finished", len(sess.PlanResults()), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// A stream hop is delivered to whom it is addressed. Starting a session —
// eleven agents and the coordinator announcing themselves — wakes nobody, and
// a memo-warm planned ask wakes only the agents on its path: before control
// subscriptions selected on the directive these were ~130 and ~30 deliveries.
func TestDeliveriesFollowAddressing(t *testing.T) {
	sys := newSystem(t)
	deliveries := func() int64 { return sys.Store.StatsSnapshot().Deliveries }

	before := deliveries()
	sess, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if got := deliveries() - before; got > 30 {
		t.Fatalf("StartSession made %d deliveries, want at most 30", got)
	}

	const q = "Summarize the applicants for job 3"
	if _, err := sess.Ask(q, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	awaitPlanResults(t, sess, 1)

	before = deliveries()
	if _, err := sess.Ask(q, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	res := awaitPlanResults(t, sess, 2)
	if !res[1].Steps[0].Cached {
		t.Fatalf("the repeated ask was not served from the memo: %+v", res[1].Steps[0])
	}
	if got := deliveries() - before; got > 10 {
		t.Fatalf("a memo-warm planned ask made %d deliveries, want at most 10", got)
	}
}

// A whole session gives back what it took: StartSession, one planned ask
// and Close leave the store's subscriptions and the process's goroutines
// where they were (TestIdleSubscriptionsOwnNoGoroutine's idea, system-wide).
func TestSessionStartsAndStopsClean(t *testing.T) {
	sys := newSystem(t)
	subs := func() int64 { return sys.Store.StatsSnapshot().Subscriptions }
	subsBefore, goroutinesBefore := subs(), runtime.NumGoroutine()

	sess, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("StartSession: +%d subscriptions, +%d goroutines", subs()-subsBefore, runtime.NumGoroutine()-goroutinesBefore)
	if _, err := sess.Ask("Summarize the applicants for job 3", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	awaitPlanResults(t, sess, 1)
	sess.Close()

	deadline := time.Now().Add(5 * time.Second)
	for subs() != subsBefore || runtime.NumGoroutine() > goroutinesBefore {
		if time.Now().After(deadline) {
			t.Fatalf("after Close: %d subscriptions (%d before StartSession), %d goroutines (%d before)",
				subs(), subsBefore, runtime.NumGoroutine(), goroutinesBefore)
		}
		time.Sleep(time.Millisecond)
	}
}

// Closing a System with sessions open closes each as Session.Close does —
// its running plans drained before the agents stop — so when Close
// returns every plan a session started has run to its result, one that
// still had a step to dispatch when Close was called included, and the
// sessions' goroutines are gone.
func TestSystemCloseDrainsOpenSessions(t *testing.T) {
	sys, err := New(Config{ModelAccuracy: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	goroutinesBefore := runtime.NumGoroutine()

	// The lingering plan is in its first step when Close is called and needs
	// the session's agents for its second.
	linger := registry.AgentSpec{
		Name:    "LINGER",
		Inputs:  []registry.ParamSpec{{Name: "IN", Type: "text", Optional: true}},
		Outputs: []registry.ParamSpec{{Name: "OUT", Type: "text"}},
	}
	if err := sys.AgentRegistry.Register(linger); err != nil {
		t.Fatal(err)
	}
	sessions := make([]*Session, 4)
	started := make(chan struct{}, 2*len(sessions)) // one send per step
	for i := range sessions {
		sess, err := sys.StartSession("")
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = sess
		_, err = sess.AddAgent(agent.New(linger, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
			started <- struct{}{}
			select {
			case <-time.After(50 * time.Millisecond):
				return agent.Outputs{Values: map[string]any{"OUT": "done"}}, nil
			case <-ctx.Done():
				return agent.Outputs{}, ctx.Err()
			}
		}), agent.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Ask(fmt.Sprintf("Summarize the applicants for job %d", i+1), 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Store.Publish(streams.Message{
			Stream: agent.OutputStream(sess.ID, hragents.AgenticEmployer), Session: sess.ID, Kind: streams.Data,
			Sender: hragents.AgenticEmployer, Param: "PLAN", Tags: []string{coordinator.PlanTag},
			Payload: &planner.Plan{ID: "linger", Steps: []planner.Step{
				{ID: "s1", Agent: linger.Name},
				{ID: "s2", Agent: linger.Name, Bindings: map[string]planner.Binding{"IN": {FromStep: "s1", FromParam: "OUT"}}},
			}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for range sessions {
		<-started
	}
	sys.Close()

	for _, sess := range sessions {
		res := sess.PlanResults()
		if len(res) != 2 {
			t.Errorf("%s: %d plan results when Close returned, want the ask's and the lingering plan's", sess.ID, len(res))
		}
		for _, r := range res {
			if r.Aborted || len(r.Final) == 0 {
				t.Errorf("%s: plan %s did not complete: %+v", sess.ID, r.PlanID, r)
			}
		}
		if _, open := sys.Session(sess.ID); open {
			t.Errorf("%s is still open after Close", sess.ID)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore {
		if time.Now().After(deadline) {
			t.Fatalf("after Close: %d goroutines, %d before the first StartSession", runtime.NumGoroutine(), goroutinesBefore)
		}
		time.Sleep(time.Millisecond)
	}
}

// An ABORT that names no agent is a broadcast: every agent's control
// subscription still receives it and cancels what it has in flight, while an
// ABORT addressed to one agent reaches only that one.
func TestBroadcastAbortReachesEveryAgent(t *testing.T) {
	sys := newSystem(t)
	const session = "session:abort"
	started := make(chan string, 4)
	ended := make(chan string, 4)
	blocking := func(name string) *agent.Agent {
		return agent.New(registry.AgentSpec{
			Name: name, Inputs: []registry.ParamSpec{{Name: "IN", Type: "text"}},
			Outputs: []registry.ParamSpec{{Name: "OUT", Type: "text"}},
		}, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
			started <- name
			<-ctx.Done()
			ended <- name
			return agent.Outputs{}, ctx.Err()
		})
	}
	for _, name := range []string{"SLOW_A", "SLOW_B"} {
		inst, err := agent.Attach(sys.Store, session, blocking(name), agent.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer inst.Stop()
		for _, inv := range []string{"1", "2"} {
			if err := agent.Execute(sys.Store, session, name, map[string]any{"IN": "x"}, "", name+"-"+inv); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 4; i++ {
		<-started
	}
	// abort appends the directive and checks how many subscriptions it was
	// handed to (an idle control subscription is handed its message inside
	// Append).
	abort := func(d streams.Directive, deliveries int64) {
		t.Helper()
		before := sys.Store.StatsSnapshot().Deliveries
		if _, err := sys.Store.Append(streams.Message{
			Stream: agent.ControlStream(session), Kind: streams.Control, Sender: "coordinator", Directive: &d,
		}); err != nil {
			t.Fatal(err)
		}
		if got := sys.Store.StatsSnapshot().Deliveries - before; got != deliveries {
			t.Fatalf("%+v was delivered to %d subscriptions, want %d", d, got, deliveries)
		}
	}
	await := func(want map[string]int) {
		t.Helper()
		for n := want["SLOW_A"] + want["SLOW_B"]; n > 0; n-- {
			select {
			case name := <-ended:
				want[name]--
			case <-time.After(10 * time.Second):
				t.Fatalf("invocations still in flight: %v", want)
			}
		}
		if want["SLOW_A"] != 0 || want["SLOW_B"] != 0 {
			t.Fatalf("cancelled the wrong invocations: off by %v", want)
		}
	}

	abort(streams.Directive{Op: streams.OpAbort, Agent: "SLOW_A", Args: map[string]any{"invocation_id": "SLOW_A-1"}}, 1)
	await(map[string]int{"SLOW_A": 1})
	abort(streams.Directive{Op: streams.OpAbort}, 2)
	await(map[string]int{"SLOW_A": 1, "SLOW_B": 2})
}

// A plan crosses a stream typed, and reaches the write-ahead log as JSON:
// after a crash the recovered PLAN message carries a generic map, which the
// coordinator service still executes — and, because a step's memo key is the
// same whichever way its plan travelled, answers from the recovered memo.
func TestTypedPlanIsRecoveredAsMapAndExecutes(t *testing.T) {
	dir := t.TempDir()
	sys := newDurableSystem(t, dir)
	sess, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Ask("Summarize the applicants for job 3", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if res := awaitPlanResults(t, sess, 1); res[0].Steps[0].Cached {
		t.Fatal("the first ask found its step memoized")
	}
	planMessage := func(store *streams.Store) streams.Message {
		t.Helper()
		msgs, err := store.ReadAll(agent.OutputStream(sess.ID, hragents.AgenticEmployer))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			if m.Param == "PLAN" {
				return m
			}
		}
		t.Fatal("the Agentic Employer published no plan")
		return streams.Message{}
	}
	published, ok := planMessage(sys.Store).Payload.(*planner.Plan)
	if !ok {
		t.Fatalf("the live PLAN payload is a %T, want the *planner.Plan itself", planMessage(sys.Store).Payload)
	}
	sys.SimulateCrash()

	sys2 := newDurableSystem(t, dir)
	defer sys2.Close()
	recovered := planMessage(sys2.Store)
	if _, ok := recovered.Payload.(map[string]any); !ok {
		t.Fatalf("the recovered PLAN payload is a %T, want a map", recovered.Payload)
	}
	p, err := planner.FromJSON(recovered.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if p.ID != published.ID || len(p.Steps) != 1 || p.Steps[0].Agent != hragents.Summarizer {
		t.Fatalf("recovered plan %s differs from the one published:\n%s", p, published)
	}

	sess2, err := sys2.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys2.Store.Publish(streams.Message{
		Stream: agent.OutputStream(sess2.ID, hragents.AgenticEmployer), Session: sess2.ID, Kind: streams.Data,
		Sender: hragents.AgenticEmployer, Param: "PLAN", Tags: []string{coordinator.PlanTag}, Payload: recovered.Payload,
	}); err != nil {
		t.Fatal(err)
	}
	res := awaitPlanResults(t, sess2, 1)
	if res[0].PlanID != published.ID || res[0].Aborted || len(res[0].Steps) != 1 {
		t.Fatalf("the recovered plan ran as %+v", res[0])
	}
	if !res[0].Steps[0].Cached {
		t.Fatal("the recovered plan's step missed the recovered memo: its key depends on how the plan travelled")
	}

	// The typed road into the same memo entry.
	r2, err := sys2.Coordinator.ExecutePlan(sess2.ID, published, budget.New(budget.Limits{}))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Steps[0].Cached {
		t.Fatal("the typed plan's step missed the memo entry its decoded twin hit")
	}
}

// A statement result crosses its hop typed, and reaches the write-ahead log
// as JSON: after a crash the recovered ROWS message carries the generic
// object, and a query summarizer fed that message answers what the live one
// answered from the typed value.
func TestTypedRowsAreRecoveredAsMapAndSummarized(t *testing.T) {
	dir := t.TempDir()
	sys := newDurableSystem(t, dir)
	sess, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	answer, err := sess.Ask("average salary per city for salary over 100500", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rowsMessage := func(store *streams.Store) streams.Message {
		t.Helper()
		msgs, err := store.ReadAll(agent.OutputStream(sess.ID, hragents.SQLExecutor))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			if m.Param == "ROWS" {
				return m
			}
		}
		t.Fatal("the SQL executor published no rows")
		return streams.Message{}
	}
	live := rowsMessage(sys.Store)
	published, ok := live.Payload.(*hragents.QueryRows)
	if !ok {
		t.Fatalf("the live ROWS payload is a %T, want the *hragents.QueryRows itself", live.Payload)
	}
	if len(published.Rows) < 2 {
		t.Fatalf("the ask selected %d rows; the test wants several: %s", len(published.Rows), published.SQL)
	}
	sys.SimulateCrash()

	sys2 := newDurableSystem(t, dir)
	defer sys2.Close()
	recovered := rowsMessage(sys2.Store)
	obj, ok := recovered.Payload.(map[string]any)
	if !ok {
		t.Fatalf("the recovered ROWS payload is a %T, want a map", recovered.Payload)
	}
	if rows, _ := obj["rows"].([]any); len(rows) != len(published.Rows) || obj["sql"] != published.SQL {
		t.Fatalf("recovered %d rows of %v, published %d of %s", len(rows), obj["sql"], len(published.Rows), published.SQL)
	}
	if recovered.PayloadString() != live.PayloadString() {
		t.Fatalf("the recovered payload renders as\n%s\nthe live one as\n%s", recovered.PayloadString(), live.PayloadString())
	}

	sess2, err := sys2.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	before := sess2.DisplayLen()
	if _, err := sys2.Store.Publish(streams.Message{
		Stream: agent.OutputStream(sess2.ID, hragents.SQLExecutor), Session: sess2.ID, Kind: streams.Data,
		Sender: hragents.SQLExecutor, Param: "ROWS", Tags: []string{hragents.TagRows}, Payload: recovered.Payload,
	}); err != nil {
		t.Fatal(err)
	}
	again, err := sess2.AwaitDisplay(before, "", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if again != answer {
		t.Fatalf("the summarizer answered the recovered rows with\n%s\nthe live ones with\n%s", again, answer)
	}
}
