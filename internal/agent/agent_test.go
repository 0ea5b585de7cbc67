package agent

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"blueprint/internal/registry"
	"blueprint/internal/streams"
)

const testSession = "session:test"

func newStore(t testing.TB) *streams.Store {
	t.Helper()
	s := streams.NewStore()
	t.Cleanup(func() { s.Close() })
	return s
}

// echoAgent returns TEXT -> ECHO uppercased.
func echoAgent() *Agent {
	return New(registry.AgentSpec{
		Name:        "ECHO",
		Description: "uppercases text",
		Inputs:      []registry.ParamSpec{{Name: "TEXT", Type: "text"}},
		Outputs:     []registry.ParamSpec{{Name: "ECHO", Type: "text"}},
		Listen:      registry.ListenRule{IncludeTags: []string{"user"}},
		QoS:         registry.QoSProfile{CostPerCall: 0.001, Accuracy: 0.99},
	}, func(ctx context.Context, inv Invocation) (Outputs, error) {
		text, _ := inv.Inputs["TEXT"].(string)
		return Outputs{Values: map[string]any{"ECHO": strings.ToUpper(text)}}, nil
	})
}

func awaitMessage(t *testing.T, sub *streams.Subscription) streams.Message {
	t.Helper()
	select {
	case m, ok := <-sub.C():
		if !ok {
			t.Fatal("subscription closed")
		}
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for message")
	}
	return streams.Message{}
}

func TestValidate(t *testing.T) {
	if err := (&Agent{}).Validate(); err == nil {
		t.Fatal("empty agent validated")
	}
	a := New(registry.AgentSpec{Name: "X"}, nil)
	if err := a.Validate(); err == nil {
		t.Fatal("nil processor validated")
	}
	dup := New(registry.AgentSpec{
		Name:   "X",
		Inputs: []registry.ParamSpec{{Name: "A"}, {Name: "A"}},
	}, func(ctx context.Context, inv Invocation) (Outputs, error) { return Outputs{}, nil })
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate inputs validated")
	}
	unnamed := New(registry.AgentSpec{
		Name:   "X",
		Inputs: []registry.ParamSpec{{Name: ""}},
	}, func(ctx context.Context, inv Invocation) (Outputs, error) { return Outputs{}, nil })
	if err := unnamed.Validate(); err == nil {
		t.Fatal("unnamed input validated")
	}
}

func TestCentralizedExecution(t *testing.T) {
	store := newStore(t)
	a := echoAgent()
	var calls atomic.Int64
	echo := a.Process
	a.Process = func(ctx context.Context, inv Invocation) (Outputs, error) {
		calls.Add(1)
		return echo(ctx, inv)
	}
	inst, err := Attach(store, testSession, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()

	if err := Execute(store, testSession, "ECHO", map[string]any{"TEXT": "hello"}, "", "inv1"); err != nil {
		t.Fatal(err)
	}
	d := AwaitDone(store, testSession, "inv1")
	if d == nil || d.Op != OpAgentDone {
		t.Fatalf("done = %+v", d)
	}
	if got := d.Outputs["ECHO"]; got != "HELLO" {
		t.Fatalf("outputs = %+v", d.Outputs)
	}
	if d.Cost != 0.001 {
		t.Fatalf("cost = %v", d.Cost)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("processor ran %d times, want 1", n)
	}
}

// An executed invocation's outputs ride its report, so Execute refuses a
// reply stream and appends nothing.
func TestExecuteRefusesReplyStream(t *testing.T) {
	store := newStore(t)
	inst, err := Attach(store, testSession, echoAgent(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	control := ControlStream(testSession)
	before, err := store.Info(control)
	if err != nil {
		t.Fatal(err)
	}
	if err := Execute(store, testSession, "ECHO", map[string]any{"TEXT": "hello"}, "reply", "inv1"); err == nil {
		t.Fatal("Execute took a reply stream")
	}
	if after, _ := store.Info(control); after.Len != before.Len {
		t.Fatalf("control stream grew %d -> %d", before.Len, after.Len)
	}
}

func TestDecentralizedTagTrigger(t *testing.T) {
	store := newStore(t)
	inst, err := Attach(store, testSession, echoAgent(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()

	out := store.Subscribe(streams.Filter{Streams: []string{OutputStream(testSession, "ECHO")}}, true)
	defer out.Cancel()

	// Message tagged "user" triggers ECHO (its include rule).
	if _, err := store.Publish(streams.Message{
		Stream: testSession + ":user", Session: testSession,
		Kind: streams.Data, Sender: "user", Tags: []string{"user"}, Payload: "stream trigger",
	}); err != nil {
		t.Fatal(err)
	}
	m := awaitMessage(t, out)
	if m.Payload != "STREAM TRIGGER" || len(m.Tags) == 0 || m.Tags[0] != "ECHO" {
		t.Fatalf("output = %+v", m)
	}
	// Its output is its result: a tag-activated success reports nothing.
	inst.Stop() // waits for the invocation to end
	if ctrl, _ := store.ReadAll(ControlStream(testSession)); len(ctrl) != 0 {
		t.Fatalf("a tag-activated success wrote %d control messages, first %+v", len(ctrl), ctrl[0].Directive)
	}
}

func TestExcludeTagsRespected(t *testing.T) {
	store := newStore(t)
	a := echoAgent()
	a.Spec.Listen.ExcludeTags = []string{"draft"}
	inst, err := Attach(store, testSession, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()

	out := store.Subscribe(streams.Filter{Streams: []string{OutputStream(testSession, "ECHO")}}, true)
	defer out.Cancel()

	_, _ = store.Publish(streams.Message{Stream: testSession + ":user", Session: testSession, Kind: streams.Data, Sender: "user", Tags: []string{"user", "draft"}, Payload: "skip me"})
	_, _ = store.Publish(streams.Message{Stream: testSession + ":user", Session: testSession, Kind: streams.Data, Sender: "user", Tags: []string{"user"}, Payload: "take me"})

	m := awaitMessage(t, out)
	if m.Payload != "TAKE ME" {
		t.Fatalf("exclude rule ignored: %+v", m)
	}
}

func TestAgentIgnoresOwnOutput(t *testing.T) {
	store := newStore(t)
	// An agent that listens to everything (no include tags): its own outputs
	// must not re-trigger it.
	var count atomic.Int64
	a := New(registry.AgentSpec{
		Name:       "LOOPY",
		Inputs:     []registry.ParamSpec{{Name: "IN"}},
		Outputs:    []registry.ParamSpec{{Name: "OUT"}},
		Properties: map[string]any{"listen_all": true},
	}, func(ctx context.Context, inv Invocation) (Outputs, error) {
		count.Add(1)
		return Outputs{Values: map[string]any{"OUT": "x"}}, nil
	})
	inst, err := Attach(store, testSession, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()

	_, _ = store.Publish(streams.Message{Stream: testSession + ":in", Session: testSession, Kind: streams.Data, Sender: "user", Payload: "go"})
	time.Sleep(100 * time.Millisecond)
	if got := count.Load(); got != 1 {
		t.Fatalf("invocations = %d, want 1 (self-trigger loop?)", got)
	}
}

func TestPetriZipPairing(t *testing.T) {
	store := newStore(t)
	var mu []string
	done := make(chan string, 8)
	a := New(registry.AgentSpec{
		Name: "JOIN",
		Inputs: []registry.ParamSpec{
			{Name: "A", Type: "text"},
			{Name: "B", Type: "text"},
		},
		Outputs:    []registry.ParamSpec{{Name: "AB", Type: "text"}},
		Properties: map[string]any{"listen_all": true},
	}, func(ctx context.Context, inv Invocation) (Outputs, error) {
		pair := fmt.Sprintf("%v+%v", inv.Inputs["A"], inv.Inputs["B"])
		done <- pair
		return Outputs{Values: map[string]any{"AB": pair}}, nil
	})
	inst, err := Attach(store, testSession, a, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()

	pub := func(param, val string) {
		_, err := store.Publish(streams.Message{
			Stream: testSession + ":" + param, Session: testSession,
			Kind: streams.Data, Sender: "producer", Tags: []string{param}, Payload: val,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	pub("A", "a1")
	pub("A", "a2")
	// No firing yet: B empty.
	select {
	case p := <-done:
		t.Fatalf("fired early: %s", p)
	case <-time.After(50 * time.Millisecond):
	}
	pub("B", "b1")
	pub("B", "b2")
	for _, want := range []string{"a1+b1", "a2+b2"} {
		select {
		case got := <-done:
			mu = append(mu, got)
			if got != want {
				t.Fatalf("pairing = %v, want %s", mu, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("missing pair %s (got %v)", want, mu)
		}
	}
}

func TestPetriLatestPairing(t *testing.T) {
	store := newStore(t)
	done := make(chan string, 8)
	a := New(registry.AgentSpec{
		Name: "STICKY",
		Inputs: []registry.ParamSpec{
			{Name: "CFG", Type: "text"},
			{Name: "REQ", Type: "text"},
		},
		Outputs:    []registry.ParamSpec{{Name: "OUT", Type: "text"}},
		Properties: map[string]any{"trigger_policy": "latest", "listen_all": true},
	}, func(ctx context.Context, inv Invocation) (Outputs, error) {
		done <- fmt.Sprintf("%v|%v", inv.Inputs["CFG"], inv.Inputs["REQ"])
		return Outputs{}, nil
	})
	inst, err := Attach(store, testSession, a, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()

	pub := func(param, val string) {
		if _, err := store.Publish(streams.Message{
			Stream: testSession + ":" + param, Session: testSession,
			Kind: streams.Data, Sender: "producer", Tags: []string{param}, Payload: val,
		}); err != nil {
			t.Fatal(err)
		}
	}
	pub("CFG", "v1")
	pub("REQ", "r1") // fires v1|r1
	if got := <-done; got != "v1|r1" {
		t.Fatalf("first = %s", got)
	}
	// CFG sticks: another request reuses v1.
	pub("REQ", "r2")
	if got := <-done; got != "v1|r2" {
		t.Fatalf("second = %s", got)
	}
	// Updating CFG fires immediately with the latest REQ.
	pub("CFG", "v2")
	if got := <-done; got != "v2|r2" {
		t.Fatalf("third = %s", got)
	}
}

func TestErrorReporting(t *testing.T) {
	store := newStore(t)
	a := New(registry.AgentSpec{
		Name:    "FAILER",
		Inputs:  []registry.ParamSpec{{Name: "X"}},
		Outputs: []registry.ParamSpec{{Name: "Y"}},
		Listen:  registry.ListenRule{IncludeTags: []string{"x"}},
	}, func(ctx context.Context, inv Invocation) (Outputs, error) {
		return Outputs{}, errors.New("boom")
	})
	inst, err := Attach(store, testSession, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()

	if err := Execute(store, testSession, "FAILER", map[string]any{"X": 1}, "", "inv-err"); err != nil {
		t.Fatal(err)
	}
	d := AwaitDone(store, testSession, "inv-err")
	if d == nil || d.Op != OpAgentError {
		t.Fatalf("directive = %+v", d)
	}
	if d.Error != "boom" {
		t.Fatalf("error = %v", d.Error)
	}

	// A tag-activated failure reports too, on the display stream with its
	// ask's id: its AGENT_ERROR is the one record the fault leaves, the
	// failure record its ask's wait ends on.
	display := store.Subscribe(streams.Filter{Streams: []string{DisplayStream(testSession)}}, false)
	defer display.Cancel()
	if _, err := store.Publish(streams.Message{
		Stream: testSession + ":in", Session: testSession, Kind: streams.Data, Sender: "test", Tags: []string{"x"}, Payload: 2, Ask: 7,
	}); err != nil {
		t.Fatal(err)
	}
	awaitMessage(t, display)
	inst.Stop() // so nothing more comes
	ctrl, err := store.ReadAll(ControlStream(testSession))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ctrl {
		if d := m.Directive; d.Op != streams.OpExecuteAgent && d.Invocation != "inv-err" {
			t.Fatalf("a failed tag activation left a control message: %+v", d)
		}
	}
	shown, err := store.ReadAll(DisplayStream(testSession))
	if err != nil {
		t.Fatal(err)
	}
	if len(shown) != 1 || shown[0].Ask != 7 || shown[0].Directive == nil ||
		shown[0].Directive.Op != OpAgentError || shown[0].Directive.Agent != "FAILER" || shown[0].Directive.Error != "boom" {
		t.Fatalf("a failed tag activation left %d display messages, want one AGENT_ERROR of FAILER for ask 7: %+v", len(shown), shown)
	}
}

func TestOptionalDefaults(t *testing.T) {
	store := newStore(t)
	got := make(chan any, 1)
	a := New(registry.AgentSpec{
		Name: "DEFAULTER",
		Inputs: []registry.ParamSpec{
			{Name: "REQ", Type: "text"},
			{Name: "LIMIT", Type: "int", Optional: true, Default: 10},
		},
		Outputs: []registry.ParamSpec{{Name: "OUT"}},
	}, func(ctx context.Context, inv Invocation) (Outputs, error) {
		got <- inv.Inputs["LIMIT"]
		return Outputs{}, nil
	})
	inst, err := Attach(store, testSession, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()

	if err := Execute(store, testSession, "DEFAULTER", map[string]any{"REQ": "x"}, "", "i1"); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != 10 {
			t.Fatalf("default = %v", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
}

func TestWorkerPoolConcurrency(t *testing.T) {
	store := newStore(t)
	var active, peak, calls atomic.Int64
	block := make(chan struct{})
	a := New(registry.AgentSpec{
		Name:    "SLOW",
		Inputs:  []registry.ParamSpec{{Name: "X"}},
		Outputs: []registry.ParamSpec{{Name: "Y"}},
	}, func(ctx context.Context, inv Invocation) (Outputs, error) {
		calls.Add(1)
		cur := active.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		<-block
		active.Add(-1)
		return Outputs{Values: map[string]any{"Y": 1}}, nil
	})
	inst, err := Attach(store, testSession, a, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := Execute(store, testSession, "SLOW", map[string]any{"X": i}, "", fmt.Sprintf("w%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Give workers time to saturate.
	deadline := time.Now().Add(5 * time.Second)
	for active.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if active.Load() != 3 {
		t.Fatalf("active = %d, want exactly 3 (pool size)", active.Load())
	}
	close(block)
	// Stop discards directives still queued in the control subscription, so
	// wait for all six reports before stopping.
	for i := 0; i < 6; i++ {
		if d := AwaitDone(store, testSession, fmt.Sprintf("w%d", i)); d == nil || d.Op != OpAgentDone {
			t.Fatalf("w%d report = %+v, want AGENT_DONE", i, d)
		}
	}
	inst.Stop()
	if peak.Load() != 3 {
		t.Fatalf("peak concurrency = %d, want 3", peak.Load())
	}
	if n := calls.Load(); n != 6 {
		t.Fatalf("invocations = %d", n)
	}
}

func TestDisplayStreamOutput(t *testing.T) {
	store := newStore(t)
	a := New(registry.AgentSpec{
		Name:    "RENDERER",
		Inputs:  []registry.ParamSpec{{Name: "X"}},
		Outputs: []registry.ParamSpec{{Name: "Y"}},
	}, func(ctx context.Context, inv Invocation) (Outputs, error) {
		return Outputs{Values: map[string]any{"Y": 1}, Display: "rendered!"}, nil
	})
	inst, err := Attach(store, testSession, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()

	disp := store.Subscribe(streams.Filter{Streams: []string{DisplayStream(testSession)}}, true)
	defer disp.Cancel()

	if err := Execute(store, testSession, "RENDERER", nil, "", "d1"); err != nil {
		t.Fatal(err)
	}
	m := awaitMessage(t, disp)
	if m.Payload != "rendered!" || !m.HasTag("display") {
		t.Fatalf("display = %+v", m)
	}
}

func TestFactory(t *testing.T) {
	reg := registry.NewAgentRegistry()
	if err := reg.Register(registry.AgentSpec{
		Name:        "ECHO",
		Description: "echo agent",
		Inputs:      []registry.ParamSpec{{Name: "TEXT"}},
		Outputs:     []registry.ParamSpec{{Name: "ECHO"}},
		Deployment:  registry.Deployment{Workers: 2},
	}); err != nil {
		t.Fatal(err)
	}
	f := NewFactory(reg)
	if _, err := f.Build("ECHO"); !errors.Is(err, ErrNoConstructor) {
		t.Fatalf("err = %v", err)
	}
	f.RegisterConstructor("ECHO", func(spec registry.AgentSpec) Processor {
		return func(ctx context.Context, inv Invocation) (Outputs, error) {
			return Outputs{Values: map[string]any{"ECHO": inv.Inputs["TEXT"]}}, nil
		}
	})
	a, err := f.Build("ECHO")
	if err != nil {
		t.Fatal(err)
	}
	store := newStore(t)
	inst, err := Attach(store, testSession, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	if inst.opts.Workers != 2 {
		t.Fatalf("worker pool = %d, want the spec's deployment hint 2", inst.opts.Workers)
	}
	if _, err := f.Build("MISSING"); err == nil {
		t.Fatal("built unregistered agent")
	}

	if err := Execute(store, testSession, "ECHO", map[string]any{"TEXT": "via factory"}, "", "f1"); err != nil {
		t.Fatal(err)
	}
	if d := AwaitDone(store, testSession, "f1"); d == nil || d.Outputs["ECHO"] != "via factory" {
		t.Fatalf("done = %+v", d)
	}
}

func TestAwaitDoneSeesPastReports(t *testing.T) {
	store := newStore(t)
	inst, err := Attach(store, testSession, echoAgent(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	if err := Execute(store, testSession, "ECHO", map[string]any{"TEXT": "x"}, "", "past1"); err != nil {
		t.Fatal(err)
	}
	// Wait for completion first, then call AwaitDone: replay must find it.
	time.Sleep(100 * time.Millisecond)
	d := AwaitDone(store, testSession, "past1")
	if d == nil || d.Op != OpAgentDone {
		t.Fatalf("done = %+v", d)
	}
}

func TestPetriPendingObservability(t *testing.T) {
	pn := newPetriNet([]string{"A", "B"}, PairZip)
	if fired := append(pn.offer("A", 1), pn.offer("A", 2)...); fired != nil {
		t.Fatalf("fired with B empty: %v", fired)
	}
	if fired := pn.offer("C", 9); fired != nil {
		t.Fatalf("unknown place fired: %v", fired)
	}
	// Two tokens wait in A and none in B: each B token takes the oldest A
	// token, and a third finds A empty.
	for i, wantA := range []any{1, 2, nil} {
		fired := pn.offer("B", 3+i)
		if wantA == nil {
			if fired != nil {
				t.Fatalf("B token %d fired with A empty: %v", i, fired)
			}
			continue
		}
		if len(fired) != 1 || fired[0]["A"] != wantA || fired[0]["B"] != 3+i {
			t.Fatalf("B token %d fired %v, want one tuple with A=%v", i, fired, wantA)
		}
	}

	// A transition of eight places fires only once every place holds a
	// token, and then with each place's oldest one.
	places := []string{"P0", "P1", "P2", "P3", "P4", "P5", "P6", "P7"}
	wide := newPetriNet(places, PairZip)
	for round := 0; round < 2; round++ {
		for i, p := range places[:7] {
			if fired := wide.offer(p, 10*round+i); fired != nil {
				t.Fatalf("fired with P7 empty: %v", fired)
			}
		}
	}
	for round := 0; round < 2; round++ {
		fired := wide.offer("P7", 10*round+7)
		if len(fired) != 1 {
			t.Fatalf("P7 token %d fired %d tuples, want 1", round, len(fired))
		}
		for i, p := range places {
			if fired[0][p] != 10*round+i {
				t.Fatalf("P7 token %d fired %v, want %s=%d", round, fired[0], p, 10*round+i)
			}
		}
	}
}
