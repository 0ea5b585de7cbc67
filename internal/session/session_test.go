package session

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blueprint/internal/agent"
	"blueprint/internal/obs"
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
	// SHOUTER listens to nothing: it only makes a second name to add.
	if err := reg.Register(registry.AgentSpec{
		Name:    "SHOUTER",
		Inputs:  []registry.ParamSpec{{Name: "TEXT"}},
		Outputs: []registry.ParamSpec{{Name: "SHOUT"}},
	}); err != nil {
		t.Fatal(err)
	}
	f := agent.NewFactory(reg)
	f.RegisterConstructor("SHOUTER", func(spec registry.AgentSpec) agent.Processor {
		return func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
			text, _ := inv.Inputs["TEXT"].(string)
			return agent.Outputs{Values: map[string]any{"SHOUT": strings.ToUpper(text)}}, nil
		}
	})
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

// records renders the session stream's membership records, one
// "OP name name…" each, in order.
func records(t *testing.T, store *streams.Store, id string) []string {
	t.Helper()
	msgs, err := store.ReadAll(SessionStream(id))
	if err != nil {
		t.Fatal(err)
	}
	out := []string{}
	for _, m := range msgs {
		out = append(out, m.Directive.Op+" "+strings.ReplaceAll(m.PayloadString(), "\n", " "))
	}
	return out
}

// Every membership change is one record on the session stream, written by
// the session, and Members replays them: a parent and its Extend child, step
// by step, each row the state after its change — until Close, after which
// neither has a stream left, nor a member.
func TestMembersFromSessionStream(t *testing.T) {
	store, m := newEnv(t)
	s, _ := m.Create("session:m")
	child, err := s.Extend("profile")
	if err != nil {
		t.Fatal(err)
	}
	var opts agent.Options
	echo := agent.New(registry.AgentSpec{Name: "ECHO", Inputs: []registry.ParamSpec{{Name: "X"}}},
		func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) { return agent.Outputs{}, nil })
	for _, step := range []struct {
		name                    string
		change                  func() error
		wantErr                 error
		members, childMembers   []string
		recorded, childRecorded []string // nil once the streams of both are dropped
	}{
		{"SpawnAgent", func() error { _, err := s.SpawnAgent("GREETER", opts); return err }, nil,
			[]string{"GREETER"}, nil,
			[]string{"ADD_AGENT GREETER"}, []string{}},
		{"AddAgent", func() error { _, err := s.AddAgent(echo, opts); return err }, nil,
			[]string{"ECHO", "GREETER"}, nil,
			[]string{"ADD_AGENT GREETER", "ADD_AGENT ECHO"}, []string{}},
		{"SpawnAgents with one already active", func() error { return s.SpawnAgents([]string{"SHOUTER", "GREETER"}, opts) }, ErrAgentActive,
			[]string{"ECHO", "GREETER"}, nil,
			[]string{"ADD_AGENT GREETER", "ADD_AGENT ECHO"}, []string{}},
		{"SpawnAgents into the child", func() error { return child.SpawnAgents([]string{"SHOUTER", "GREETER"}, opts) }, nil,
			[]string{"ECHO", "GREETER"}, []string{"GREETER", "SHOUTER"},
			[]string{"ADD_AGENT GREETER", "ADD_AGENT ECHO"}, []string{"ADD_AGENT SHOUTER GREETER"}},
		{"RemoveAgent", func() error { return s.RemoveAgent("ECHO") }, nil,
			[]string{"GREETER"}, []string{"GREETER", "SHOUTER"},
			[]string{"ADD_AGENT GREETER", "ADD_AGENT ECHO", "REMOVE_AGENT ECHO"}, []string{"ADD_AGENT SHOUTER GREETER"}},
		{"RemoveAgent of an inactive one", func() error { return s.RemoveAgent("ECHO") }, ErrAgentInactive,
			[]string{"GREETER"}, []string{"GREETER", "SHOUTER"},
			[]string{"ADD_AGENT GREETER", "ADD_AGENT ECHO", "REMOVE_AGENT ECHO"}, []string{"ADD_AGENT SHOUTER GREETER"}},
		{"Close", func() error { s.Close(); return nil }, nil,
			nil, nil,
			nil, nil},
	} {
		if err := step.change(); !errors.Is(err, step.wantErr) {
			t.Fatalf("%s: err = %v, want %v", step.name, err, step.wantErr)
		}
		if got := s.Members(); !slices.Equal(got, step.members) {
			t.Errorf("%s: members = %v, want %v", step.name, got, step.members)
		}
		if got := child.Members(); !slices.Equal(got, step.childMembers) {
			t.Errorf("%s: child members = %v, want %v", step.name, got, step.childMembers)
		}
		if got, agents := s.Members(), s.Agents(); !slices.Equal(got, agents) {
			t.Errorf("%s: members %v, but the session holds %v", step.name, got, agents)
		}
		if step.recorded == nil {
			if left := store.List(s.ID); len(left) != 0 {
				t.Errorf("%s: the store holds %d streams of the session and its child: %+v", step.name, len(left), left)
			}
			continue
		}
		if got := records(t, store, s.ID); !slices.Equal(got, step.recorded) {
			t.Errorf("%s: session stream = %q, want %q", step.name, got, step.recorded)
		}
		if got := records(t, store, child.ID); !slices.Equal(got, step.childRecorded) {
			t.Errorf("%s: child's session stream = %q, want %q", step.name, got, step.childRecorded)
		}
	}
}

// A name joins a session once. Of concurrent batches naming the same agents
// exactly one joins, and a batch naming an active agent, or one name twice,
// joins none of its names: across the records every name is added once.
func TestDuplicateAgentRejected(t *testing.T) {
	store, m := newEnv(t)
	s, _ := m.Create("")
	defer s.Close()
	var wg sync.WaitGroup
	var joined atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch err := s.SpawnAgents([]string{"GREETER", "SHOUTER"}, agent.Options{}); {
			case err == nil:
				joined.Add(1)
			case !errors.Is(err, ErrAgentActive):
				t.Errorf("SpawnAgents: %v", err)
			}
		}()
	}
	wg.Wait()
	if n := joined.Load(); n != 1 {
		t.Fatalf("%d concurrent batches joined, want 1", n)
	}
	if _, err := s.SpawnAgent("GREETER", agent.Options{}); !errors.Is(err, ErrAgentActive) {
		t.Fatalf("err = %v", err)
	}
	if err := s.RemoveAgent("SHOUTER"); err != nil {
		t.Fatal(err)
	}
	if err := s.SpawnAgents([]string{"SHOUTER", "SHOUTER"}, agent.Options{}); !errors.Is(err, ErrAgentActive) {
		t.Fatalf("a batch naming one agent twice: err = %v", err)
	}
	added := map[string]int{}
	for _, r := range records(t, store, s.ID) {
		if op, names, _ := strings.Cut(r, " "); op == streams.OpAddAgent {
			for _, name := range strings.Fields(names) {
				added[name]++
			}
		}
	}
	if added["GREETER"] != 1 || added["SHOUTER"] != 1 || len(added) != 2 {
		t.Fatalf("names added across the records: %v, want GREETER and SHOUTER once each", added)
	}
	if got := s.Members(); !slices.Equal(got, []string{"GREETER"}) {
		t.Fatalf("members = %v", got)
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

// A child scope's utterance is answered by its parent's agent, on the
// parent's output stream; closing the child drops the child's streams and
// leaves that stream, with the parent's session and every message on it.
func TestChildCloseKeepsParentStreams(t *testing.T) {
	store, m := newEnv(t)
	parent, _ := m.Create("session:p")
	defer parent.Close()
	child, err := parent.Extend("c")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parent.SpawnAgent("GREETER", agent.Options{}); err != nil {
		t.Fatal(err)
	}
	out := agent.OutputStream(parent.ID, "GREETER")
	sub := store.Subscribe(streams.Filter{Streams: []string{out}}, false)
	defer sub.Cancel()
	for _, s := range []*Session{child, parent} { // the child first: its answer creates the stream
		if _, err := s.PostUserText(0, s.ID); err != nil {
			t.Fatal(err)
		}
		select {
		case msg := <-sub.C():
			if want := "hi, " + s.ID; msg.Payload != want {
				t.Fatalf("output %q, want %q", msg.Payload, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no output for %s", s.ID)
		}
	}
	child.Close()
	if n := len(store.List(child.ID)); n != 0 {
		t.Fatalf("%d streams of the closed child remain", n)
	}
	info, err := store.Info(out)
	if err != nil || info.Session != parent.ID || info.Len != 2 {
		t.Fatalf("the parent's output stream after the child's close: %+v (%v), want 2 messages in %s", info, err, parent.ID)
	}
	msgs, _ := store.ReadAll(out)
	for _, msg := range msgs {
		if msg.Session != parent.ID {
			t.Fatalf("message %q is in session %q, its stream's is %q", msg.Payload, msg.Session, parent.ID)
		}
	}
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
	subs := store.StatsSnapshot().Subscriptions
	done := make(chan struct{})
	go func() {
		defer close(done)
		out, err := s.AwaitDisplay(0, "hello", 5*time.Second)
		if err != nil || out != "hello world" {
			t.Errorf("await = %q, %v", out, err)
		}
	}()
	for store.StatsSnapshot().Subscriptions == subs { // until the waiter subscribes
		runtime.Gosched()
	}
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

// An ask's wait ends on the ask's first display message: a failure record
// of its own ask is ErrFailed naming the agent and its cause, one of another
// ask is passed over, and a wait for any ask passes every failure record over.
func TestAwaitAnswerEndsOnItsFailureRecord(t *testing.T) {
	store, m := newEnv(t)
	s, _ := m.Create("")
	defer s.Close()
	from := s.DisplayLen()
	for _, msg := range []streams.Message{
		{Kind: streams.Control, Sender: "RANKER", Ask: 2, Directive: &streams.Directive{Op: agent.OpAgentError, Agent: "RANKER", Error: "other ask's"}},
		{Kind: streams.Control, Sender: "coordinator", Ask: 1, Directive: &streams.Directive{Op: agent.OpAgentError, Agent: "RANKER", Error: "boom"}},
		{Kind: streams.Data, Sender: "RANKER", Ask: 3, Payload: "ranked"},
	} {
		msg.Stream = agent.DisplayStream(s.ID)
		if _, err := store.Append(msg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.AwaitAnswer(t.Context(), from, 1, time.Second); !errors.Is(err, ErrFailed) || errors.Is(err, ErrNoDisplay) ||
		!strings.Contains(err.Error(), "RANKER: boom") {
		t.Fatalf("ask 1's wait = %v, want ErrFailed naming RANKER and its cause", err)
	}
	if out, err := s.AwaitAnswer(t.Context(), from, 3, time.Second); err != nil || out != "ranked" {
		t.Fatalf("ask 3's wait = %q, %v, want its answer past the others' failure records", out, err)
	}
	if out, err := s.AwaitDisplay(from, "", time.Second); err != nil || out != "ranked" {
		t.Fatalf("AwaitDisplay = %q, %v, want the first rendering", out, err)
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
// and whatever joined is gone after Close, the session's streams with it. The
// ADD_AGENT records are counted as they are delivered, by a subscription to
// the session stream opened before the round, which the drop at Close ends.
// (Before, the check and the attach were apart: several attached, the map
// kept one, the rest were never stopped, and an add racing Close attached to
// a closed session.)
func TestConcurrentAddAndClose(t *testing.T) {
	store, m := newEnv(t)
	subs := func() int64 { return store.StatsSnapshot().Subscriptions }
	subsBefore, goroutinesBefore := subs(), runtime.NumGoroutine()
	for round := 0; round < 50; round++ {
		s, err := m.Create("")
		if err != nil {
			t.Fatal(err)
		}
		recorded := store.Subscribe(streams.Filter{Streams: []string{SessionStream(s.ID)}}, true)
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

		named := 0
	delivered: // every record was appended, and so handed to recorded, before Close and wg.Wait returned
		for {
			select {
			case msg, ok := <-recorded.C():
				if !ok { // the drop of the session stream ended the subscription
					break delivered
				}
				if msg.Directive.Op == streams.OpAddAgent && msg.PayloadString() == "GREETER" {
					named++
				}
			default:
				break delivered
			}
		}
		recorded.Cancel()
		if n := int(added.Load()); n > 1 || named != n {
			t.Fatalf("round %d: %d adds succeeded and %d ADD_AGENT records name GREETER, want the same number, at most 1", round, n, named)
		}
		if got := s.Members(); len(got) != 0 {
			t.Fatalf("round %d: members after Close = %v", round, got)
		}
		if left := store.List(s.ID); len(left) != 0 {
			t.Fatalf("round %d: %d streams of the session after Close", round, len(left))
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

// A session's user and event streams are its ask streams: past 256
// utterances, or 256 clicks, the session's streams let go of what lies before
// the horizon — a session of clicks alone too — while the session stream
// keeps every membership record, however many there are.
func TestSessionStreamsKeepTheirLastAsks(t *testing.T) {
	store := streams.NewStore()
	defer store.Close()
	m := NewManager(store, nil)
	talk, err := m.Create("")
	if err != nil {
		t.Fatal(err)
	}
	clicks, err := m.Create("")
	if err != nil {
		t.Fatal(err)
	}
	const n = 3 * obs.KeptAsks
	for i := 0; i < n; i++ {
		if _, err := talk.PostUserText(0, "How many jobs are in San Francisco?"); err != nil {
			t.Fatal(err)
		}
		if _, err := clicks.PostUserEvent(0, map[string]any{"action": "select_job", "job_id": i}); err != nil {
			t.Fatal(err)
		}
		for _, s := range []*Session{talk, clicks} {
			if _, err := store.Append(streams.Message{Stream: agent.DisplayStream(s.ID), Payload: "answer"}); err != nil {
				t.Fatal(err)
			}
		}
		talk.record(streams.OpAddAgent, []string{"A"})
		talk.record(streams.OpRemoveAgent, []string{"A"})
	}
	for _, c := range []struct {
		stream   string
		releases bool
	}{
		{UserStream(talk.ID), true}, {agent.DisplayStream(talk.ID), true}, {SessionStream(talk.ID), false},
		{EventStream(clicks.ID), true}, {agent.DisplayStream(clicks.ID), true},
	} {
		info, err := store.Info(c.stream)
		if err != nil {
			t.Fatal(err)
		}
		if (info.Released > 0) != c.releases || info.Released > n-obs.KeptAsks {
			t.Errorf("%s released %d of %d messages, want some: %t, and never the last %d", c.stream, info.Released, info.Len, c.releases, obs.KeptAsks)
		}
	}
	if got := talk.Members(); len(got) != 0 {
		t.Errorf("Members = %v after every add was removed", got)
	}
}
