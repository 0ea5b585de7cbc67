package agent

import (
	"context"
	"errors"

	"blueprint/internal/streams"
)

// Execute publishes an EXECUTE_AGENT directive on the session's control
// stream — the centralized activation path used by the task coordinator
// (§V-H). A DONE or ERROR control report follows, carrying invocationID and,
// for a DONE, the invocation's outputs (ReadReport). replyStream must be
// empty: an executed invocation's outputs go nowhere else, and for any other
// value Execute appends nothing and returns an error.
func Execute(store *streams.Store, session, agentName string, inputs map[string]any, replyStream, invocationID string) error {
	if replyStream != "" {
		return errors.New("agent: an executed invocation's outputs ride its report, not a reply stream")
	}
	return ExecuteInvocation(store, agentName, Invocation{Session: session, Inputs: inputs, InvocationID: invocationID})
}

// ExecuteInvocation is Execute for the whole invocation the consuming
// runtime is to start, whose outputs ride its report. The directive carries
// inv.Inputs as they are, not a copy; inv.TraceParent (the caller's span id,
// 0 for none) as its Parent, so the runtime can resume the caller's span tree
// across the stream boundary; and a non-zero inv.Deadline in Unix
// nanoseconds, by which the runtime bounds the processor at min(its own
// timeout, time until the deadline) — the scheduler derives it from the
// plan's remaining latency budget. inv.Ask is the directive message's own
// Ask.
func ExecuteInvocation(store *streams.Store, agentName string, inv Invocation) error {
	control := ControlStream(inv.Session)
	if _, err := store.EnsureStream(control, streams.StreamInfo{Session: inv.Session}); err != nil {
		return err
	}
	d := &streams.Directive{
		Op: streams.OpExecuteAgent, Agent: agentName, Invocation: inv.InvocationID,
		Inputs: inv.Inputs, Parent: inv.TraceParent,
	}
	if !inv.Deadline.IsZero() {
		d.Deadline = inv.Deadline.UnixNano()
	}
	_, err := store.Append(streams.Message{
		Stream: control, Kind: streams.Control, Sender: "coordinator", Ask: inv.Ask,
		Directive: d,
	})
	return err
}

// Report is what an AGENT_DONE report says of its invocation. A report is
// the directive an executed invocation ends with on its session's control
// stream, naming the invocation: an AGENT_DONE carries the usage and the
// outputs; an AGENT_ERROR the error.
type Report struct {
	Usage Usage
	// Outputs binds each declared output the processor produced to its
	// value. It is the stored report's own map: read-only.
	Outputs map[string]any
}

// report appends the invocation's report to its seat's control stream:
// AGENT_ERROR when err is set (and counted), else AGENT_DONE with usage and,
// unless nil, outputs, which the report keeps without a copy. A
// tag-activated invocation reports only a failure, and to its seat's display
// stream: no caller awaits it and nothing retries it, so its AGENT_ERROR is
// the failure record that ends its ask.
func (in *Instance) report(st *seat, inv Invocation, usage Usage, outputs map[string]any, err error) {
	name := in.agent.Spec.Name
	d := &streams.Directive{Op: OpAgentDone, Agent: name, Invocation: inv.InvocationID}
	if err != nil {
		mInvErrors.Inc()
		d.Op, d.Error = OpAgentError, err.Error()
	} else {
		d.Outputs, d.Cost, d.Accuracy, d.Latency = outputs, usage.Cost, usage.Accuracy, usage.Latency
	}
	stream := st.control
	if inv.tagged {
		stream = DisplayStream(st.session)
	}
	_, _ = in.store.Append(streams.Message{
		Stream: stream, Kind: streams.Control, Sender: name, Ask: inv.Ask,
		Directive: d,
	})
}

// ReadReport reads a report: an AGENT_ERROR is its error, an AGENT_DONE its
// Report.
func ReadReport(d *streams.Directive) (Report, error) {
	if d.Op == OpAgentError {
		return Report{}, errors.New(d.Error)
	}
	return Report{Usage: Usage{Cost: d.Cost, Latency: d.Latency, Accuracy: d.Accuracy}, Outputs: d.Outputs}, nil
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
			if msg.Directive.Invocation == invocationID {
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
