package agent

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"blueprint/internal/registry"
	"blueprint/internal/resilience"
	"blueprint/internal/streams"
)

// blockingAgent runs until its context is cancelled, reporting the ctx error.
func blockingAgent(name string, started chan<- struct{}) *Agent {
	return New(registry.AgentSpec{
		Name:    name,
		Inputs:  []registry.ParamSpec{{Name: "IN", Type: "text"}},
		Outputs: []registry.ParamSpec{{Name: "OUT", Type: "text"}},
	}, func(ctx context.Context, inv Invocation) (Outputs, error) {
		if started != nil {
			started <- struct{}{}
		}
		<-ctx.Done()
		return Outputs{}, ctx.Err()
	})
}

func awaitError(t *testing.T, store *streams.Store, invID string) string {
	t.Helper()
	done := make(chan *streams.Directive, 1)
	go func() { done <- AwaitDone(store, testSession, invID) }()
	select {
	case d := <-done:
		if d == nil || d.Op != OpAgentError {
			t.Fatalf("report = %+v, want AGENT_ERROR", d)
		}
		msg, _ := d.Args["error"].(string)
		return msg
	case <-time.After(5 * time.Second):
		t.Fatal("no error report")
	}
	return ""
}

func TestCallerDeadlineBoundsProcessor(t *testing.T) {
	store := newStore(t)
	// Instance timeout is long; the caller's deadline must win.
	inst, err := Attach(store, testSession, blockingAgent("SLOW", nil), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()

	start := time.Now()
	deadline := start.Add(100 * time.Millisecond)
	if err := ExecuteInvocation(store, "SLOW", Invocation{Session: testSession, Inputs: map[string]any{"IN": "x"}, ReplyStream: "reply", InvocationID: "inv-dl", Deadline: deadline}); err != nil {
		t.Fatal(err)
	}
	msg := awaitError(t, store, "inv-dl")
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline not honored: ran %s", elapsed)
	}
	if msg != context.DeadlineExceeded.Error() {
		t.Fatalf("error = %q", msg)
	}
}

func TestExpiredDeadlineShortCircuits(t *testing.T) {
	store := newStore(t)
	started := make(chan struct{}, 1)
	inst, err := Attach(store, testSession, blockingAgent("SLOW", started), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()

	past := time.Now().Add(-time.Second)
	if err := ExecuteInvocation(store, "SLOW", Invocation{Session: testSession, Inputs: map[string]any{"IN": "x"}, ReplyStream: "reply", InvocationID: "inv-past", Deadline: past}); err != nil {
		t.Fatal(err)
	}
	awaitError(t, store, "inv-past")
	select {
	case <-started:
		t.Fatal("processor invoked despite expired deadline")
	default:
	}
}

func TestTargetedAbortCancelsInvocation(t *testing.T) {
	store := newStore(t)
	started := make(chan struct{}, 2)
	a := blockingAgent("SLOW", started)
	var finished atomic.Int64
	block := a.Process
	a.Process = func(ctx context.Context, inv Invocation) (Outputs, error) {
		defer finished.Add(1)
		return block(ctx, inv)
	}
	inst, err := Attach(store, testSession, a, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()

	if err := Execute(store, testSession, "SLOW", map[string]any{"IN": "a"}, "reply", "inv-a"); err != nil {
		t.Fatal(err)
	}
	if err := Execute(store, testSession, "SLOW", map[string]any{"IN": "b"}, "reply", "inv-b"); err != nil {
		t.Fatal(err)
	}
	<-started
	<-started

	// Abort only inv-a; inv-b must keep running.
	if _, err := store.Append(streams.Message{
		Stream: ControlStream(testSession), Kind: streams.Control, Sender: "coordinator",
		Directive: &streams.Directive{Op: streams.OpAbort, Args: map[string]any{"invocation_id": "inv-a"}},
	}); err != nil {
		t.Fatal(err)
	}
	if msg := awaitError(t, store, "inv-a"); msg != context.Canceled.Error() {
		t.Fatalf("abort error = %q", msg)
	}
	if n := finished.Load(); n != 1 {
		t.Fatalf("inv-b finished unexpectedly: %d invocations returned", n)
	}

	// A bare session abort cancels the rest.
	if _, err := store.Append(streams.Message{
		Stream: ControlStream(testSession), Kind: streams.Control, Sender: "coordinator",
		Directive: &streams.Directive{Op: streams.OpAbort},
	}); err != nil {
		t.Fatal(err)
	}
	awaitError(t, store, "inv-b")
}

func TestAgentFaultInjection(t *testing.T) {
	resilience.Activate(resilience.NewInjector(1, resilience.Rule{
		Site: resilience.SiteAgent, Kind: resilience.KindError, Probability: 1,
	}))
	defer resilience.Deactivate()

	store := newStore(t)
	inst, err := Attach(store, testSession, echoAgent(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()

	if err := Execute(store, testSession, "ECHO", map[string]any{"TEXT": "x"}, "reply", "inv-fault"); err != nil {
		t.Fatal(err)
	}
	msg := awaitError(t, store, "inv-fault")
	if !strings.Contains(msg, "injected") {
		t.Fatalf("error = %q", msg)
	}
}
