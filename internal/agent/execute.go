package agent

import (
	"time"

	"blueprint/internal/streams"
)

// Execute publishes an EXECUTE_AGENT directive on the session's control
// stream — the centralized activation path used by the task coordinator
// (§V-H). Outputs will appear on replyStream (or the agent's default output
// stream when empty), and a DONE/ERROR control report follows, carrying
// invocationID.
func Execute(store *streams.Store, session, agentName string, inputs map[string]any, replyStream, invocationID string) error {
	return ExecuteDeadline(store, session, agentName, inputs, replyStream, invocationID, "", time.Time{})
}

// ExecuteDeadline is Execute with a trace parent and a completion deadline.
// traceParent (an obs.Span.Token, may be empty) rides the directive as the
// "trace_parent" arg, so the consuming runtime can resume the caller's span
// tree across the stream boundary. A non-zero deadline rides it as
// "deadline_ms" (absolute Unix milliseconds — JSON-safe across the
// stream/durability boundary), and the consuming runtime bounds the
// processor at min(its own timeout, time until the deadline). The scheduler
// derives it from the plan's remaining latency budget.
func ExecuteDeadline(store *streams.Store, session, agentName string, inputs map[string]any, replyStream, invocationID, traceParent string, deadline time.Time) error {
	if _, err := store.EnsureStream(ControlStream(session), streams.StreamInfo{Session: session}); err != nil {
		return err
	}
	args := map[string]any{"inputs": inputs}
	if replyStream != "" {
		args["reply_stream"] = replyStream
	}
	if invocationID != "" {
		args["invocation_id"] = invocationID
	}
	if traceParent != "" {
		args["trace_parent"] = traceParent
	}
	if !deadline.IsZero() {
		args["deadline_ms"] = float64(deadline.UnixMilli())
	}
	_, err := store.Append(streams.Message{
		Stream: ControlStream(session),
		Kind:   streams.Control,
		Sender: "coordinator",
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
