package agent

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blueprint/internal/registry"
	"blueprint/internal/streams"
)

// Sessions that share a deployment must not see each other. The coordinator
// mints invocation ids as <plan id>-<step id>, so two sessions running the
// same plan carry the same id at the same time: everything a seat keys by
// invocation id is keyed within its session.

const sessionA, sessionB = "session:a", "session:b"

// gated is a deployed agent whose invocations announce themselves on started
// ("<session>/<invocation id>") and then run until their session's gate is
// closed (AGENT_DONE) or their context is cancelled (AGENT_ERROR).
type gated struct {
	inst    *Instance
	started chan string
	gates   map[string]chan struct{}
	calls   atomic.Int64
}

func deployGated(t *testing.T, store *streams.Store, workers int, sessions ...string) *gated {
	t.Helper()
	g := &gated{started: make(chan string, 64), gates: map[string]chan struct{}{}}
	for _, s := range sessions {
		g.gates[s] = make(chan struct{})
	}
	inst, err := Deploy(store, New(registry.AgentSpec{
		Name:    "GATED",
		Inputs:  []registry.ParamSpec{{Name: "IN", Type: "text"}},
		Outputs: []registry.ParamSpec{{Name: "OUT", Type: "text"}},
	}, func(ctx context.Context, inv Invocation) (Outputs, error) {
		g.calls.Add(1)
		g.started <- inv.Session + "/" + inv.InvocationID
		select {
		case <-g.gates[inv.Session]:
			return Outputs{Values: map[string]any{"OUT": inv.Session}}, nil
		case <-ctx.Done():
			return Outputs{}, ctx.Err()
		}
	}), Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.Stop)
	g.inst = inst
	for _, s := range sessions {
		if err := inst.Join(s); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func (g *gated) execute(t *testing.T, store *streams.Store, session string, ids ...string) {
	t.Helper()
	for _, id := range ids {
		if err := Execute(store, session, "GATED", map[string]any{"IN": "x"}, "", id); err != nil {
			t.Fatal(err)
		}
	}
}

// awaitStarted waits until exactly the named invocations have started.
func (g *gated) awaitStarted(t *testing.T, want ...string) {
	t.Helper()
	left := map[string]bool{}
	for _, w := range want {
		left[w] = true
	}
	for len(left) > 0 {
		select {
		case s := <-g.started:
			if !left[s] {
				t.Fatalf("%s started, want only %v", s, want)
			}
			delete(left, s)
		case <-time.After(5 * time.Second):
			t.Fatalf("never started: %v", left)
		}
	}
}

func abort(t *testing.T, store *streams.Store, session, invocation string) {
	t.Helper()
	if _, err := store.Append(streams.Message{
		Stream: ControlStream(session), Kind: streams.Control, Sender: "coordinator",
		Directive: &streams.Directive{Op: streams.OpAbort, Invocation: invocation},
	}); err != nil {
		t.Fatal(err)
	}
}

// awaitReport waits for the report of an invocation in a session and checks
// its op.
func awaitReport(t *testing.T, store *streams.Store, session, id, op string) {
	t.Helper()
	done := make(chan *streams.Directive, 1)
	go func() { done <- AwaitDone(store, session, id) }()
	select {
	case d := <-done:
		if d == nil || d.Op != op {
			t.Fatalf("%s/%s report = %+v, want %s", session, id, d, op)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s/%s: no report, want %s", session, id, op)
	}
}

func TestTargetedAbortStaysInItsSession(t *testing.T) {
	store := newStore(t)
	g := deployGated(t, store, 4, sessionA, sessionB)
	g.execute(t, store, sessionA, "p-s1")
	g.execute(t, store, sessionB, "p-s1")
	g.awaitStarted(t, sessionA+"/p-s1", sessionB+"/p-s1")

	abort(t, store, sessionA, "p-s1")
	awaitReport(t, store, sessionA, "p-s1", OpAgentError)
	// B's invocation of the same id ran on: it completes when its gate opens.
	close(g.gates[sessionB])
	awaitReport(t, store, sessionB, "p-s1", OpAgentDone)
}

func TestBareAbortCancelsOneSessionsWork(t *testing.T) {
	store := newStore(t)
	g := deployGated(t, store, 2, sessionA, sessionB)
	g.execute(t, store, sessionA, "s1", "s2", "s3") // two run, s3 waits for a worker
	g.execute(t, store, sessionB, "s1", "s2")
	g.awaitStarted(t, sessionA+"/s1", sessionA+"/s2", sessionB+"/s1", sessionB+"/s2")

	abort(t, store, sessionA, "")
	for _, id := range []string{"s1", "s2", "s3"} {
		awaitReport(t, store, sessionA, id, OpAgentError) // the queued one as if it had been running
	}
	close(g.gates[sessionB])
	for _, id := range []string{"s1", "s2"} {
		awaitReport(t, store, sessionB, id, OpAgentDone)
	}
	if n := g.calls.Load(); n != 4 {
		t.Fatalf("%d invocations ran, want 4: the aborted queue entry must not start", n)
	}
}

func TestLeaveWaitsForItsOwnSessionOnly(t *testing.T) {
	store := newStore(t)
	g := deployGated(t, store, 1, sessionA, sessionB)
	g.execute(t, store, sessionA, "a1", "a2", "a3") // a1 runs, a2 and a3 queue behind it
	g.execute(t, store, sessionB, "b1")
	g.awaitStarted(t, sessionA+"/a1", sessionB+"/b1")

	left := make(chan struct{})
	go func() {
		g.inst.Leave(sessionA)
		close(left)
	}()
	select {
	case <-left:
		t.Fatal("Leave returned with the session's invocation in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(g.gates[sessionA]) // B's is still in flight and must not be waited for
	select {
	case <-left:
	case <-time.After(5 * time.Second):
		t.Fatal("Leave waits for another session's invocation")
	}
	awaitReport(t, store, sessionA, "a1", OpAgentDone)
	// Left: a new directive for A goes nowhere, and what was queued is gone.
	g.execute(t, store, sessionA, "a4")
	close(g.gates[sessionB])
	awaitReport(t, store, sessionB, "b1", OpAgentDone)
	g.execute(t, store, sessionB, "b2") // appended after a4: had a4 been routed, it would have run by now
	awaitReport(t, store, sessionB, "b2", OpAgentDone)
	if n := g.calls.Load(); n != 3 {
		t.Fatalf("%d invocations ran, want a1, b1 and b2", n)
	}
}

// A session joining, working and leaving over and over beside one that never
// stops working: each Leave waits on its own seat's workers, a seat is never
// reused, and under -race nothing of one session's bookkeeping is touched by
// the other's.
func TestJoinLeaveBesideLiveSession(t *testing.T) {
	store := newStore(t)
	a := echoAgent()
	inst, err := Deploy(store, a, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	if err := inst.Join(sessionB); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // B: a closed loop of asks for the whole test
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := fmt.Sprintf("b%d", i)
			if err := Execute(store, sessionB, "ECHO", map[string]any{"TEXT": "x"}, "", id); err != nil {
				t.Errorf("execute: %v", err)
				return
			}
			if d := AwaitDone(store, sessionB, id); d == nil || d.Op != OpAgentDone {
				t.Errorf("%s report = %+v", id, d)
				return
			}
		}
	}()
	for round := 0; round < 100; round++ {
		if err := inst.Join(sessionA); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ { // some finish, some are in flight, some queued when A leaves
			if err := Execute(store, sessionA, "ECHO", map[string]any{"TEXT": "x"}, "", fmt.Sprintf("a%d-%d", round, i)); err != nil {
				t.Fatal(err)
			}
		}
		inst.Leave(sessionA)
	}
	close(stop)
	wg.Wait()
}

// A multi-input agent pairs tokens within a session, never across two.
func TestTokensPairWithinASession(t *testing.T) {
	store := newStore(t)
	fired := make(chan string, 8)
	inst, err := Deploy(store, New(registry.AgentSpec{
		Name:    "JOINER",
		Inputs:  []registry.ParamSpec{{Name: "A"}, {Name: "B"}},
		Outputs: []registry.ParamSpec{{Name: "AB"}},
		Listen:  registry.ListenRule{IncludeTags: []string{"A", "B"}},
	}, func(ctx context.Context, inv Invocation) (Outputs, error) {
		fired <- fmt.Sprintf("%s: %v+%v", inv.Session, inv.Inputs["A"], inv.Inputs["B"])
		return Outputs{Values: map[string]any{"AB": "joined"}}, nil
	}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	for _, s := range []string{sessionA, sessionB} {
		if err := inst.Join(s); err != nil {
			t.Fatal(err)
		}
	}
	token := func(session, place, value string) {
		t.Helper()
		if _, err := store.Publish(streams.Message{
			Stream: session + ":in", Session: session, Kind: streams.Data, Sender: "user",
			Tags: []string{place}, Payload: value,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// An A in one session and a B in the other complete nothing; each
	// session's own second token does.
	token(sessionA, "A", "a-of-A")
	token(sessionB, "B", "b-of-B")
	token(sessionA, "B", "b-of-A")
	token(sessionB, "A", "a-of-B")
	got := map[string]bool{}
	for i := 0; i < 2; i++ {
		select {
		case f := <-fired:
			got[f] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("fired %v, want one tuple a session", got)
		}
	}
	if !got[sessionA+": a-of-A+b-of-A"] || !got[sessionB+": a-of-B+b-of-B"] {
		t.Fatalf("fired %v, want each session's own pair", got)
	}
	for _, s := range []string{sessionA, sessionB} {
		out := store.Subscribe(streams.Filter{Streams: []string{OutputStream(s, "JOINER")}}, true)
		if m := awaitMessage(t, out); m.Session != s || m.Payload != "joined" {
			t.Fatalf("%s output = %+v", s, m)
		}
		out.Cancel()
	}
}

// A message of a sub-scope reaches an agent that joined the scope, once, and
// the invocation's streams are the joined scope's; with the sub-scope joined
// too it is still one delivery, now the sub-scope's.
func TestSubScopeIsServedOnceByTheInnermostJoin(t *testing.T) {
	store := newStore(t)
	const scope, sub = "s:1", "s:1:PROFILE"
	var calls atomic.Int64
	a := echoAgent()
	echo := a.Process
	a.Process = func(ctx context.Context, inv Invocation) (Outputs, error) {
		calls.Add(1)
		return echo(ctx, inv)
	}
	inst, err := Deploy(store, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	if err := inst.Join(scope); err != nil {
		t.Fatal(err)
	}
	say := func(text string) {
		t.Helper()
		if _, err := store.Publish(streams.Message{
			Stream: sub + ":user", Session: sub, Kind: streams.Data, Sender: "user",
			Tags: []string{"user"}, Payload: text,
		}); err != nil {
			t.Fatal(err)
		}
	}
	outer := store.Subscribe(streams.Filter{Streams: []string{OutputStream(scope, "ECHO")}}, false)
	defer outer.Cancel()
	say("one")
	if m := awaitMessage(t, outer); m.Payload != "ONE" || m.Session != sub {
		t.Fatalf("output on the joined scope's stream = %+v, want ONE with the message's session", m)
	}

	if err := inst.Join(sub); err != nil {
		t.Fatal(err)
	}
	inner := store.Subscribe(streams.Filter{Streams: []string{OutputStream(sub, "ECHO")}}, false)
	defer inner.Cancel()
	say("two")
	if m := awaitMessage(t, inner); m.Payload != "TWO" {
		t.Fatalf("output on the sub-scope's stream = %+v", m)
	}
	say("three") // in order behind a second delivery of "two", had there been one
	if m := awaitMessage(t, inner); m.Payload != "THREE" {
		t.Fatalf("output on the sub-scope's stream = %+v", m)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("%d invocations for three messages", n)
	}
	select {
	case m := <-outer.C():
		t.Fatalf("the outer scope's stream also got %+v", m)
	default:
	}
}
