package session

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blueprint/internal/agent"
	"blueprint/internal/registry"
	"blueprint/internal/streams"
)

func newEnv(t testing.TB) (*streams.Store, *Manager) {
	t.Helper()
	store := streams.NewStore()
	t.Cleanup(func() { store.Close() })
	reg := registry.NewAgentRegistry()
	if err := reg.Register(registry.AgentSpec{
		Name:    "GREETER",
		Inputs:  []registry.ParamSpec{{Name: "TEXT"}},
		Outputs: []registry.ParamSpec{{Name: "GREETING"}},
		Listen:  registry.ListenRule{IncludeTags: []string{"utterance"}},
	}); err != nil {
		t.Fatal(err)
	}
	f := agent.NewFactory(reg)
	f.RegisterConstructor("GREETER", func(spec registry.AgentSpec) agent.Processor {
		return func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
			text, _ := inv.Inputs["TEXT"].(string)
			return agent.Outputs{
				Values:  map[string]any{"GREETING": "hi, " + text},
				Display: "hi, " + text,
			}, nil
		}
	})
	return store, NewManager(store, f)
}

func TestCreateAndList(t *testing.T) {
	_, m := newEnv(t)
	s1, err := m.Create("")
	if err != nil {
		t.Fatal(err)
	}
	if s1.ID != "session:1" {
		t.Fatalf("id = %s", s1.ID)
	}
	s2, err := m.Create("session:custom")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("session:custom"); !errors.Is(err, ErrSessionExists) {
		t.Fatalf("err = %v", err)
	}
	ids := m.List()
	if len(ids) != 2 || ids[0] != "session:1" || ids[1] != "session:custom" {
		t.Fatalf("list = %v", ids)
	}
	got, err := m.Get("session:custom")
	if err != nil || got != s2 {
		t.Fatalf("get = %v, %v", got, err)
	}
	if _, err := m.Get("missing"); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestSpawnAgentAndConversation(t *testing.T) {
	store, m := newEnv(t)
	s, err := m.Create("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.SpawnAgent("GREETER", agent.Options{}); err != nil {
		t.Fatal(err)
	}
	if got := s.Agents(); len(got) != 1 || got[0] != "GREETER" {
		t.Fatalf("agents = %v", got)
	}
	if _, err := s.Agent("GREETER"); err != nil {
		t.Fatal(err)
	}

	disp := store.Subscribe(streams.Filter{Streams: []string{agent.DisplayStream(s.ID)}}, true)
	defer disp.Cancel()

	if _, err := s.PostUserText(0, "alice"); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-disp.C():
		if msg.Payload != "hi, alice" {
			t.Fatalf("display = %v", msg.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no display output")
	}
	if got := s.Display(); len(got) != 1 || got[0] != "hi, alice" {
		t.Fatalf("Display() = %v", got)
	}
}

func TestMembersFromSessionStream(t *testing.T) {
	_, m := newEnv(t)
	s, _ := m.Create("")
	defer s.Close()
	if _, err := s.SpawnAgent("GREETER", agent.Options{}); err != nil {
		t.Fatal(err)
	}
	if got := s.Members(); len(got) != 1 || got[0] != "GREETER" {
		t.Fatalf("members = %v", got)
	}
	if err := s.RemoveAgent("GREETER"); err != nil {
		t.Fatal(err)
	}
	if got := s.Members(); len(got) != 0 {
		t.Fatalf("members after exit = %v", got)
	}
	if err := s.RemoveAgent("GREETER"); !errors.Is(err, ErrAgentInactive) {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateAgentRejected(t *testing.T) {
	_, m := newEnv(t)
	s, _ := m.Create("")
	defer s.Close()
	if _, err := s.SpawnAgent("GREETER", agent.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SpawnAgent("GREETER", agent.Options{}); !errors.Is(err, ErrAgentActive) {
		t.Fatalf("err = %v", err)
	}
}

func TestExtendScoping(t *testing.T) {
	store, m := newEnv(t)
	s, _ := m.Create("session:9")
	child, err := s.Extend("profile")
	if err != nil {
		t.Fatal(err)
	}
	if child.ID != "session:9:profile" {
		t.Fatalf("child id = %s", child.ID)
	}
	// Messages in the child scope appear in the parent's history.
	if _, err := child.PostUserText(0, "nested text"); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, msg := range s.History() {
		if msg.PayloadString() == "nested text" {
			found = true
		}
	}
	if !found {
		t.Fatal("child message not in parent history")
	}
	// Parent close cascades.
	s.Close()
	if got := m.List(); len(got) != 0 {
		t.Fatalf("sessions after close = %v", got)
	}
	_ = store
}

func TestUserEvent(t *testing.T) {
	store, m := newEnv(t)
	s, _ := m.Create("")
	defer s.Close()
	sub := store.Subscribe(streams.Filter{Kinds: []streams.Kind{streams.Event}}, false)
	defer sub.Cancel()
	if _, err := s.PostUserEvent(0, map[string]any{"action": "select", "job_id": 12}); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-sub.C():
		if !msg.HasTag("ui") || msg.Kind != streams.Event {
			t.Fatalf("event = %+v", msg)
		}
		if !strings.Contains(msg.PayloadString(), "job_id") {
			t.Fatalf("payload = %s", msg.PayloadString())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no event delivered")
	}
}

func TestCloseIdempotentAndAddAfterClose(t *testing.T) {
	_, m := newEnv(t)
	s, _ := m.Create("")
	s.Close()
	s.Close()
	if _, err := s.SpawnAgent("GREETER", agent.Options{}); err == nil {
		t.Fatal("spawn on closed session succeeded")
	}
}

// AwaitDisplay must wake on the display append itself (event-driven), find
// messages that raced ahead of the call, respect the `from` index, and time
// out with ErrNoDisplay.
func TestAwaitDisplayEventDriven(t *testing.T) {
	store, m := newEnv(t)
	s, _ := m.Create("")
	defer s.Close()
	display := agent.DisplayStream(s.ID)
	post := func(text string) {
		t.Helper()
		if _, err := store.Append(streams.Message{
			Stream: display, Session: s.ID, Kind: streams.Data,
			Sender: "tester", Payload: text,
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Future append wakes a waiting call.
	done := make(chan struct{})
	go func() {
		defer close(done)
		out, err := s.AwaitDisplay(0, "hello", 5*time.Second)
		if err != nil || out != "hello world" {
			t.Errorf("await = %q, %v", out, err)
		}
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter subscribe
	post("hello world")
	<-done

	// Replay: a message already on the stream is found without new traffic.
	out, err := s.AwaitDisplay(0, "", time.Second)
	if err != nil || out != "hello world" {
		t.Fatalf("replay await = %q, %v", out, err)
	}

	// from skips already-consumed outputs.
	post("second")
	out, err = s.AwaitDisplay(1, "", time.Second)
	if err != nil || out != "second" {
		t.Fatalf("from-indexed await = %q, %v", out, err)
	}

	// Timeout yields ErrNoDisplay.
	if _, err := s.AwaitDisplay(s.DisplayLen(), "", 30*time.Millisecond); !errors.Is(err, ErrNoDisplay) {
		t.Fatalf("timeout err = %v", err)
	}
}

// AwaitDisplay resumes at an offset rather than replaying and counting: the
// offset, not the arrival order, decides what is waited for.
func TestAwaitDisplayFromOffset(t *testing.T) {
	store, m := newEnv(t)
	s, _ := m.Create("")
	defer s.Close()
	post := func(text string) {
		t.Helper()
		if _, err := store.Append(streams.Message{
			Stream: agent.DisplayStream(s.ID), Kind: streams.Data, Sender: "tester", Payload: text,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, text := range []string{"zero", "one", "two"} {
		post(text)
	}
	if got := s.DisplayLen(); got != 3 || got != len(s.Display()) {
		t.Fatalf("DisplayLen = %d, Display has %d", got, len(s.Display()))
	}

	// An answer that lands after the length was read but before the wait
	// subscribes (what a fast agent does to Ask) is not missed.
	before := s.DisplayLen()
	post("raced ahead")
	if out, err := s.AwaitDisplay(before, "", time.Second); err != nil || out != "raced ahead" {
		t.Fatalf("await after a racing append = %q, %v", out, err)
	}

	// substr still skips non-matching messages at or past from, and never
	// reaches back before it ("one" is at index 1).
	post("one more")
	post("the one wanted")
	if out, err := s.AwaitDisplay(before, "one", time.Second); err != nil || out != "one more" {
		t.Fatalf("await substr = %q, %v", out, err)
	}
	if out, err := s.AwaitDisplay(before, "wanted", time.Second); err != nil || out != "the one wanted" {
		t.Fatalf("await substr past a mismatch = %q, %v", out, err)
	}

	// from beyond the end waits for the message that will sit at that index,
	// not for the next one appended.
	from := s.DisplayLen() + 2
	got := make(chan string, 1)
	go func() {
		out, err := s.AwaitDisplay(from, "", 5*time.Second)
		if err != nil {
			t.Errorf("await beyond the end: %v", err)
		}
		got <- out
	}()
	for store.StatsSnapshot().Subscriptions == 0 { // until the waiter subscribed
		time.Sleep(100 * time.Microsecond)
	}
	post("too early")
	post("still too early")
	select {
	case out := <-got:
		t.Fatalf("await beyond the end returned %q at an index before from", out)
	case <-time.After(20 * time.Millisecond):
	}
	post("at from")
	if out := <-got; out != "at from" {
		t.Fatalf("await beyond the end = %q", out)
	}
}

// Membership is one decision under the session's lock: of sixteen concurrent
// adds of one agent exactly one joins — or none, when Close got there first —
// and whatever joined is gone after Close. (Before, the check and the attach
// were apart: several attached, the map kept one, the rest were never
// stopped, and an add racing Close attached to a closed session.)
func TestConcurrentAddAndClose(t *testing.T) {
	store, m := newEnv(t)
	subs := func() int64 { return store.StatsSnapshot().Subscriptions }
	subsBefore, goroutinesBefore := subs(), runtime.NumGoroutine()
	for round := 0; round < 50; round++ {
		s, err := m.Create("")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var added atomic.Int64
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				switch _, err := s.SpawnAgent("GREETER", agent.Options{}); {
				case err == nil:
					added.Add(1)
				case !errors.Is(err, ErrAgentActive) && !errors.Is(err, ErrSessionNotFound):
					t.Errorf("SpawnAgent: %v", err)
				}
			}()
		}
		if round%2 == 0 {
			runtime.Gosched() // let some adds in first, every other round
		}
		s.Close()
		wg.Wait()

		entered := 0
		msgs, err := store.ReadAll(agent.SessionStream(s.ID))
		if err != nil {
			t.Fatal(err)
		}
		for _, msg := range msgs {
			if msg.Directive.Op == streams.OpEnterSession {
				entered++
			}
		}
		if n := int(added.Load()); n > 1 || entered != n {
			t.Fatalf("round %d: %d adds succeeded and %d ENTER_SESSION were announced, want the same number, at most 1", round, n, entered)
		}
		if got := s.Members(); len(got) != 0 {
			t.Fatalf("round %d: members after Close = %v", round, got)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for subs() != subsBefore || runtime.NumGoroutine() > goroutinesBefore {
		if time.Now().After(deadline) {
			t.Fatalf("after the last Close: %d subscriptions (%d before), %d goroutines (%d before)",
				subs(), subsBefore, runtime.NumGoroutine(), goroutinesBefore)
		}
		time.Sleep(time.Millisecond)
	}
}

// A deployment lives as long as a session holds it: the second session joins
// the first one's instance, and the instance stops with the last to leave.
func TestSessionsShareADeployment(t *testing.T) {
	store, m := newEnv(t)
	subs := func() int64 { return store.StatsSnapshot().Subscriptions }
	base := subs()
	s1, _ := m.Create("")
	s2, _ := m.Create("")
	i1, err := s1.SpawnAgent("GREETER", agent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	held := subs()
	i2, err := s2.SpawnAgent("GREETER", agent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if i1 != i2 || subs() != held {
		t.Fatalf("the second session got its own instance (%d subscriptions, %d with one session)", subs(), held)
	}
	for _, s := range []*Session{s1, s2} {
		from := s.DisplayLen()
		if _, err := s.PostUserText(0, s.ID); err != nil {
			t.Fatal(err)
		}
		if out, err := s.AwaitDisplay(from, "", 5*time.Second); err != nil || out != "hi, "+s.ID {
			t.Fatalf("%s display = %q, %v", s.ID, out, err)
		}
	}
	if n := len(s1.Display()) + len(s2.Display()); n != 2 {
		t.Fatalf("%d display messages over both sessions, want one each", n)
	}
	s1.Close()
	if subs() != held {
		t.Fatalf("%d subscriptions after the first session closed, want the deployment's %d", subs(), held)
	}
	from := s2.DisplayLen()
	if _, err := s2.PostUserText(0, "still here"); err != nil {
		t.Fatal(err)
	}
	if out, err := s2.AwaitDisplay(from, "", 5*time.Second); err != nil || out != "hi, still here" {
		t.Fatalf("display after the other session closed = %q, %v", out, err)
	}
	s2.Close()
	if subs() != base {
		t.Fatalf("%d subscriptions after the last session closed, want %d", subs(), base)
	}
}
