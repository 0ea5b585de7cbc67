// Package agent implements the blueprint's agent runtime (§V-B, Figs. 3-4):
// agents as compute entities with declared input/output parameters and a
// processor() function, activated either centrally (EXECUTE_AGENT control
// messages from the task coordinator) or in a decentralized way (monitoring
// stream tags under inclusion/exclusion rules). Multi-parameter agents are
// triggered through a PetriNet-inspired mechanism: every input parameter is
// a place fed by stream messages; when all places hold a token, a transition
// fires and the processor receives the full input tuple.
//
// An agent is deployed once and joins sessions (§V-B/C: containers behind an
// agent factory; §V-E: a session is a scope agents enter and exit). A
// deployment (Instance, made by Deploy) owns one subscription to the control
// directives addressed to the agent, one to the data it listens for when its
// spec designates tags, and a loop goroutine on each — that, whatever the
// number of sessions it serves. Join files those subscriptions under a
// session's scope and Leave unfiles them: an agent joins by routing alone,
// creating no stream and appending nothing, for membership is recorded by
// the session, its one writer (package session). Stop leaves every session
// and ends the deployment. Attach is Deploy then Join for an agent that
// serves one session on a bare store, and creates the session's control and
// display streams the runtime writes to.
//
// What a joined session holds of a deployment comes into being with the
// first message routed for the pair, and goes when the session leaves: the
// tokens waiting to pair (only for an agent with two or more required
// inputs), the count of its invocations in flight with the queue of those
// waiting behind them, and the cancel funcs ABORT reaches. An invocation runs
// on a worker of the store's pool (streams.Store.Go), a long-lived goroutine
// that keeps the stack earlier tasks grew. The pool bounds nothing, so
// Options.Workers is what bounds the invocations of one (agent, session) pair
// that run at once; one that arrives beyond the bound waits in the pair's
// queue and runs, in arrival order, after the invocation that next finishes
// — the deployment's loops never wait for a worker, so a session at its
// bound delays no other. An
// invocation belongs to the joined scope its message was routed under: its
// output, display and control streams are that session's, and so is every
// message on them (the store stamps a message with its stream's session),
// while Invocation.Session is the triggering message's own, which may be a
// sub-scope. It
// serves the ask its triggering message named (Invocation.Ask): its span is
// charged to that ask, and its outputs, display message and report carry the
// ask's id. An invocation's outputs go to one place: the stream it names
// (Invocation.ReplyStream) — for a tag-activated one the agent's output
// stream in the session (OutputStream), created by its first output there,
// not before — or, when it names none, its AGENT_DONE report. A report
// answers an EXECUTE_AGENT: such an invocation ends with an AGENT_DONE or
// AGENT_ERROR on its session's control stream, carrying its outcome and cost
// (Report, ReadReport, AwaitReport), for the caller that awaits it. A tag
// activation has no caller: its outputs are its result, and it reports only a
// failure, whose AGENT_ERROR goes on the session's display stream with the
// ask's id, the failure record that ends the ask's wait. A deployment
// counts nothing of its own: invocations and errors go to the process-wide
// blueprint_agent_invocations_total and blueprint_agent_errors_total.
package agent

import (
	"context"
	"errors"
	"fmt"
	"time"

	"blueprint/internal/registry"
)

// Control operations specific to the agent runtime.
const (
	// OpAgentDone reports a completed invocation with its QoS actuals.
	OpAgentDone = "AGENT_DONE"
	// OpAgentError reports a failed invocation.
	OpAgentError = "AGENT_ERROR"
)

// Invocation is the prepared input tuple for one processor call.
type Invocation struct {
	// Session is the session scope of the triggering work.
	Session string
	// Inputs binds each input parameter name to its value.
	Inputs map[string]any
	// ReplyStream is the stream the outputs are published on: the agent's
	// OutputStream for a tag-activated invocation, the directive's
	// ReplyStream for an executed one. Empty, the outputs ride the
	// invocation's AGENT_DONE report instead (Report.Outputs), as the task
	// coordinator's are. An executed invocation reports either way; a
	// tag-activated one only when it fails.
	ReplyStream string
	// InvocationID correlates DONE/ERROR reports with requests.
	InvocationID string
	// TraceParent is the id of the caller's span (obs.Span.ID), carried in
	// the EXECUTE_AGENT directive as its Parent so the trace survives the
	// stream boundary: the runtime resumes the span tree under it. 0 for
	// decentralized (tag-triggered) activations, which anchor to the root
	// of their ask.
	TraceParent uint64
	// Ask is the ask the invocation serves (streams.Message.Ask; 0 for none):
	// the Ask of the message that triggered it — the EXECUTE_AGENT directive,
	// or the data message whose token completed the input tuple. Its span is
	// charged to that ask, and its outputs, display message and report (a
	// DONE or ERROR for an executed invocation, an ERROR alone for a
	// tag-activated one) carry it.
	Ask uint64
	// Deadline is the caller's absolute completion deadline (zero = none),
	// carried in the EXECUTE_AGENT directive in Unix nanoseconds, so it
	// crosses the stream and the log to the nanosecond. The runtime
	// bounds the processor context at min(StepTimeout, time until
	// Deadline), so a plan with little latency budget left cannot have one
	// step run for the full default timeout.
	Deadline time.Time
	// tagged marks a decentralized activation, which reports only a failure,
	// on the display stream.
	tagged bool
}

// Usage reports the QoS actuals of one invocation, folded into the session
// budget by the coordinator.
type Usage struct {
	// Cost in dollars.
	Cost float64 `json:"cost"`
	// Latency of the invocation (simulated or measured).
	Latency time.Duration `json:"latency"`
	// Accuracy estimate in [0,1] (0 = unknown).
	Accuracy float64 `json:"accuracy,omitempty"`
}

// Outputs is the result of one processor call.
type Outputs struct {
	// Values binds output parameter names to values.
	Values map[string]any
	// Tags are appended to every output message (in addition to the
	// parameter name tag).
	Tags []string
	// Usage carries QoS actuals; if zero, the spec's QoS profile is used.
	Usage Usage
	// Display, when set, is a user-facing rendering published to the
	// session's display stream.
	Display string
}

// Processor is the agent's logic (§V-B "agents utilize a processor()
// function to handle incoming data and instructions").
type Processor func(ctx context.Context, inv Invocation) (Outputs, error)

// Agent binds a registry spec to its processor.
type Agent struct {
	Spec    registry.AgentSpec
	Process Processor
}

// New creates an agent from a spec and processor.
func New(spec registry.AgentSpec, p Processor) *Agent {
	return &Agent{Spec: spec, Process: p}
}

// Validate checks that the agent is well-formed.
func (a *Agent) Validate() error {
	if a.Spec.Name == "" {
		return errors.New("agent: spec name required")
	}
	if a.Process == nil {
		return fmt.Errorf("agent %s: processor required", a.Spec.Name)
	}
	seen := map[string]bool{}
	for _, p := range a.Spec.Inputs {
		if p.Name == "" {
			return fmt.Errorf("agent %s: unnamed input", a.Spec.Name)
		}
		if seen[p.Name] {
			return fmt.Errorf("agent %s: duplicate input %s", a.Spec.Name, p.Name)
		}
		seen[p.Name] = true
	}
	return nil
}

// TriggerPolicy selects how tokens from multiple places are paired into
// input tuples (Fig. 4: "agent properties can define various configurations
// for triggering, such as pairing tokens from multiple streams").
type TriggerPolicy string

const (
	// PairZip consumes one token per place in FIFO order: the i-th token of
	// every place forms the i-th tuple.
	PairZip TriggerPolicy = "zip"
	// PairLatest keeps only the newest token per place and fires on every
	// arrival once all places are occupied; tokens are not consumed, so a
	// slow stream's last value is reused (sticky joins).
	PairLatest TriggerPolicy = "latest"
)

// PolicyFromSpec reads the trigger policy from spec properties
// ("trigger_policy"), defaulting to PairZip.
func PolicyFromSpec(spec registry.AgentSpec) TriggerPolicy {
	if spec.Properties != nil {
		if v, ok := spec.Properties["trigger_policy"].(string); ok {
			switch TriggerPolicy(v) {
			case PairLatest:
				return PairLatest
			case PairZip:
				return PairZip
			}
		}
	}
	return PairZip
}
