package agent

import (
	"context"
	"errors"
	"time"

	"blueprint/internal/streams"
)

// Execute publishes an EXECUTE_AGENT directive on the session's control
// stream — the centralized activation path used by the task coordinator
// (§V-H). Outputs will appear on replyStream, or, when it is empty, in the
// "outputs" of the AGENT_DONE report (ReadReport); either way a DONE or ERROR
// control report follows, carrying invocationID.
func Execute(store *streams.Store, session, agentName string, inputs map[string]any, replyStream, invocationID string) error {
	return ExecuteInvocation(store, agentName, Invocation{Session: session, Inputs: inputs, ReplyStream: replyStream, InvocationID: invocationID})
}

// ExecuteInvocation is Execute for the whole invocation the consuming
// runtime is to start: its outputs go to inv.ReplyStream, or ride its report
// when that is empty. inv.TraceParent (an obs.Span.Token, may be empty)
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

// Report is what an AGENT_DONE report says of its invocation. A report is
// the directive an invocation ends with on its session's control stream,
// and this file alone knows its Args: "invocation_id"; for AGENT_DONE the
// usage ("cost", "latency_ms", "accuracy") and, for an invocation that named
// no reply stream, "outputs"; for AGENT_ERROR the "error".
type Report struct {
	Usage Usage
	// Outputs binds each declared output the processor produced to its
	// value, when the invocation named no reply stream; nil otherwise. It is
	// the stored report's own map: read-only.
	Outputs map[string]any
}

// report appends the invocation's report to the session's control stream:
// AGENT_ERROR when err is set (and counted), else AGENT_DONE with usage and,
// unless nil, outputs.
func (in *Instance) report(session string, inv Invocation, usage Usage, outputs map[string]any, err error) {
	op, args := OpAgentDone, map[string]any{"invocation_id": inv.InvocationID}
	if err != nil {
		mInvErrors.Inc()
		op, args["error"] = OpAgentError, err.Error()
	} else {
		args["cost"], args["accuracy"] = usage.Cost, usage.Accuracy
		args["latency_ms"] = float64(usage.Latency) / float64(time.Millisecond)
		if outputs != nil {
			args["outputs"] = outputs
		}
	}
	name := in.agent.Spec.Name
	_, _ = in.store.Append(streams.Message{
		Stream: ControlStream(session), Kind: streams.Control, Sender: name, Ask: inv.Ask,
		Directive: &streams.Directive{Op: op, Agent: name, Args: args},
	})
}

// ReadReport reads a report: an AGENT_ERROR is its error, an AGENT_DONE its
// Report.
func ReadReport(d *streams.Directive) (Report, error) {
	if d.Op == OpAgentError {
		msg, _ := d.Args["error"].(string)
		return Report{}, errors.New(msg)
	}
	var r Report
	r.Usage.Cost, _ = d.Args["cost"].(float64)
	ms, _ := d.Args["latency_ms"].(float64)
	r.Usage.Latency = time.Duration(ms * float64(time.Millisecond))
	r.Usage.Accuracy, _ = d.Args["accuracy"].(float64)
	r.Outputs, _ = d.Args["outputs"].(map[string]any)
	return r, nil
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

// errReportsClosed is AwaitReport's error when its subscription closes first.
var errReportsClosed = errors.New("agent: report subscription closed")

// AwaitReport reads sub, a subscription to the session's ReportFilter (so
// every message it hands over is a report), until the DONE or ERROR report of
// invocationID comes, and returns it. It returns ctx's error when ctx ends
// first.
func AwaitReport(ctx context.Context, sub *streams.Subscription, invocationID string) (*streams.Directive, error) {
	for {
		select {
		case msg, ok := <-sub.C():
			if !ok {
				return nil, errReportsClosed
			}
			if id, _ := msg.Directive.Args["invocation_id"].(string); id == invocationID {
				return msg.Directive, nil
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// AwaitDone blocks until a DONE or ERROR report for invocationID arrives on
// the session control stream, scanning history first so reports that raced
// ahead of the subscription are not missed. It returns the report directive.
func AwaitDone(store *streams.Store, session, invocationID string) *streams.Directive {
	sub := store.Subscribe(ReportFilter(session), true)
	defer sub.Cancel()
	d, _ := AwaitReport(context.Background(), sub, invocationID)
	return d
}
