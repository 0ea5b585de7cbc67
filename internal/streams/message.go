// Package streams implements the blueprint architecture's central
// orchestration substrate: streams of data and control messages that
// components produce, distribute, monitor and consume (paper §V-A).
//
// A stream is an ordered, append-only sequence of messages. Messages carry
// either data (payloads flowing between agents) or control (instructions such
// as "execute the SQL agent"). Components subscribe to streams — optionally
// filtered by tags, kinds, sessions or senders — and receive notifications
// for every matching message. Streams are first-class data resources: they
// can be listed, read from any offset, closed, persisted through the shared
// durability engine (durable.go) and recovered, giving the observability and
// controllability the paper calls for.
//
// Every ask crosses this package a dozen times, so its costs follow what is
// delivered, not what exists:
//
//   - Routing. The store files each subscription under one of three classes —
//     the streams its filter names, else its session scope, else unscoped —
//     and Append gathers candidates only from the message's stream, from its
//     session scope and that scope's ":"-ancestors, and from the unscoped
//     set. Filter.Matches still decides every candidate; the index only
//     narrows (route.go). An append costs the same beside one session's
//     subscriptions as beside ten thousand sessions'.
//   - Replay. Subscribe(filter, true) replays history before live messages;
//     SubscribeFrom(filter, from) resumes at an offset and replays only each
//     stream's suffix from it. A filter that names streams reads those
//     suffixes and nothing else; only a filter that names none sweeps the
//     store (and sorts by timestamp). A consumer that knows how far it has
//     read — Info(id).Len is O(1) — never pays for the history before it.
//   - Addressing. A filter can select on the directive: the operations it
//     wants (Filter.Ops) and the agent they are addressed to (Filter.Agent;
//     a directive that names no agent is a broadcast). An agent's control
//     subscription is handed the directives meant for that agent, not every
//     control message of its session to discard all but its own.
//   - Subscriptions. Append sends a message straight into the channel behind
//     C — one goroutine wake-up per delivery — and only a message that finds
//     the channel full is queued (an unbounded slice) behind a drain, a task
//     on the store's pool that moves the queue in order and returns. The
//     channel is a few messages deep and the counters are atomics, so an
//     idle subscription holds about a kilobyte and no goroutine, and a
//     transient one costs its allocation.
//   - Work. Store.Go runs a task on one of the store's long-lived workers:
//     an overflow's drain here, an agent invocation (agent), a plan
//     execution and the steps a plan's own goroutine does not run
//     (coordinator). A worker parks between tasks and keeps the stack they
//     grew, so a hand-off does not grow a fresh 2 KB stack through the
//     agent, registry and relational frames again; one parked for 100 ms
//     exits, and Close ends every parked one. Go never blocks and bounds
//     nothing: a plan waits on its own agents' invocations, which a bounded
//     pool could deadlock, so the governor, agent.Options.Workers and the
//     coordinator's MaxParallel stay the bounds. The store owns the pool
//     because it is the one object the agent deployments, the coordinator
//     and the session manager are all built over, and the last one a System
//     closes: no constructor takes a pool.
package streams

import (
	"encoding/json"
	"fmt"
)

// Kind distinguishes the two message classes of §V-A plus UI events (§VI).
type Kind int

const (
	// Data messages carry payloads between components.
	Data Kind = iota
	// Control messages carry instructions (e.g. invoke SQL agent).
	Control
	// Event messages carry UI events (clicks, form submissions), which the
	// case study (§VI, Fig. 9) processes "just like any other input".
	Event
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case Control:
		return "control"
	case Event:
		return "event"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Well-known control operations exchanged between blueprint components.
const (
	OpExecuteAgent = "EXECUTE_AGENT" // coordinator -> agent: run with given inputs
	OpAddAgent     = "ADD_AGENT"     // session: include an agent in the session
	OpRemoveAgent  = "REMOVE_AGENT"  // session: remove an agent
	OpEnterSession = "ENTER_SESSION" // agent signals entry into a session
	OpExitSession  = "EXIT_SESSION"  // agent signals exit from a session
	OpAbort        = "ABORT"         // coordinator: abort execution (budget)
	OpEOS          = "EOS"           // end of stream sentinel
)

// Directive is the structured body of a control message.
type Directive struct {
	// Op is one of the Op* constants (or an application-defined operation).
	Op string `json:"op"`
	// Agent names the target agent, when the operation addresses one.
	Agent string `json:"agent,omitempty"`
	// Args carries operation parameters (e.g. agent input bindings).
	Args map[string]any `json:"args,omitempty"`
}

// Message is a single entry in a stream.
type Message struct {
	// ID uniquely identifies the message across all streams ("m<global seq>").
	ID string `json:"id"`
	// Stream is the id of the stream this message belongs to.
	Stream string `json:"stream"`
	// Seq is the zero-based offset of the message within its stream.
	Seq int64 `json:"seq"`
	// TS is a store-global logical timestamp establishing a total order
	// across streams (used to reconstruct flows such as Figs. 9 and 10).
	TS int64 `json:"ts"`
	// Kind is the message class.
	Kind Kind `json:"kind"`
	// Tags enable selective consumption ("a message tagged SQL can trigger
	// the SQLExecutor agent", §V-B).
	Tags []string `json:"tags,omitempty"`
	// Sender names the producing component.
	Sender string `json:"sender,omitempty"`
	// Session scopes the message to a collaborative context (§V-E).
	Session string `json:"session,omitempty"`
	// Param optionally names the agent output parameter that produced the
	// payload (used by the coordinator to wire DAG edges).
	Param string `json:"param,omitempty"`
	// Payload is the data body. When the store has a durability sink
	// (SetDurable), a string payload is logged as its bytes and recovers byte
	// for byte; any other payload must be JSON-serializable, is logged as
	// the bytes json.Marshal writes for it, and recovers as what
	// encoding/json decodes them into (map[string]any, []any, float64, ...).
	Payload any `json:"payload,omitempty"`
	// Directive is the control body; non-nil iff Kind == Control.
	Directive *Directive `json:"directive,omitempty"`
	// Ask names the ask that caused the message: the id of the ask's root
	// span (obs.Span.ID), stamped where the ask's input is posted and carried
	// by one rule — a message made in response to a message carries that
	// message's Ask. 0 means no ask. The id is local to the process that
	// minted it, so it is not logged: a recovered message has Ask 0.
	Ask uint64 `json:"-"`
}

// HasTag reports whether the message carries the given tag.
func (m Message) HasTag(tag string) bool {
	for _, t := range m.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// IsEOS reports whether the message is the end-of-stream sentinel.
func (m Message) IsEOS() bool {
	return m.Kind == Control && m.Directive != nil && m.Directive.Op == OpEOS
}

// Clone returns a shallow copy of the message with its own tag slice, so
// consumers may not mutate shared state.
func (m Message) Clone() Message {
	cp := m
	if m.Tags != nil {
		cp.Tags = append([]string(nil), m.Tags...)
	}
	if m.Directive != nil {
		d := *m.Directive
		cp.Directive = &d
	}
	return cp
}

// PayloadString returns the payload rendered as a string: strings verbatim,
// everything else via JSON encoding. It is the "straightforward renderer"
// for simple data types mentioned in §V-B.
func (m Message) PayloadString() string {
	switch p := m.Payload.(type) {
	case nil:
		return ""
	case string:
		return p
	default:
		b, err := json.Marshal(p)
		if err != nil {
			return fmt.Sprintf("%v", p)
		}
		return string(b)
	}
}
