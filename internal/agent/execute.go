package agent

import (
	"blueprint/internal/streams"
)

// Execute publishes an EXECUTE_AGENT directive on the session's control
// stream — the centralized activation path used by the task coordinator
// (§V-H). Outputs will appear on replyStream (or the agent's default output
// stream when empty), and a DONE/ERROR control report follows, carrying
// invocationID.
func Execute(store *streams.Store, session, agentName string, inputs map[string]any, replyStream, invocationID string) error {
	return ExecuteInvocation(store, agentName, Invocation{Session: session, Inputs: inputs, ReplyStream: replyStream, InvocationID: invocationID})
}

// ExecuteInvocation is Execute for the whole invocation the consuming
// runtime is to start. inv.TraceParent (an obs.Span.Token, may be empty)
// rides the directive as the "trace_parent" arg, so the runtime can resume
// the caller's span tree across the stream boundary. A non-zero inv.Deadline
// rides it as "deadline_ms" (absolute Unix milliseconds — JSON-safe across
// the stream/durability boundary), and the runtime bounds the processor at
// min(its own timeout, time until the deadline); the scheduler derives it
// from the plan's remaining latency budget. inv.Ask is the directive
// message's own Ask.
func ExecuteInvocation(store *streams.Store, agentName string, inv Invocation) error {
	if _, err := store.EnsureStream(ControlStream(inv.Session), streams.StreamInfo{Session: inv.Session}); err != nil {
		return err
	}
	args := map[string]any{"inputs": inv.Inputs}
	if inv.ReplyStream != "" {
		args["reply_stream"] = inv.ReplyStream
	}
	if inv.InvocationID != "" {
		args["invocation_id"] = inv.InvocationID
	}
	if inv.TraceParent != "" {
		args["trace_parent"] = inv.TraceParent
	}
	if !inv.Deadline.IsZero() {
		args["deadline_ms"] = float64(inv.Deadline.UnixMilli())
	}
	_, err := store.Append(streams.Message{
		Stream: ControlStream(inv.Session),
		Kind:   streams.Control,
		Sender: "coordinator",
		Ask:    inv.Ask,
		Directive: &streams.Directive{
			Op:    streams.OpExecuteAgent,
			Agent: agentName,
			Args:  args,
		},
	})
	return err
}

// ReportFilter selects the DONE and ERROR reports agents publish on the
// session's control stream.
func ReportFilter(session string) streams.Filter {
	return streams.Filter{
		Streams: []string{ControlStream(session)},
		Kinds:   controlKinds,
		Ops:     reportOps,
	}
}

// AwaitDone blocks until a DONE or ERROR report for invocationID arrives on
// the session control stream, scanning history first so reports that raced
// ahead of the subscription are not missed. It returns the report directive.
func AwaitDone(store *streams.Store, session, invocationID string) *streams.Directive {
	sub := store.Subscribe(ReportFilter(session), true)
	defer sub.Cancel()
	for msg := range sub.C() {
		d := msg.Directive
		if d == nil || (d.Op != OpAgentDone && d.Op != OpAgentError) {
			continue
		}
		if id, _ := d.Args["invocation_id"].(string); id == invocationID {
			return d
		}
	}
	return nil
}
