// Package streams implements the blueprint architecture's central
// orchestration substrate: streams of data and control messages that
// components produce, distribute, monitor and consume (paper §V-A).
//
// A stream is an ordered, append-only sequence of messages. Messages carry
// either data (payloads flowing between agents) or control (instructions such
// as "execute the SQL agent"). Components subscribe to streams — optionally
// filtered by tags, kinds, sessions or senders — and receive notifications
// for every matching message. Streams are first-class data resources: they
// can be listed, read from any offset, closed, dropped with the session scope
// they belong to (Drop: a closed session keeps nothing), persisted through the
// shared durability engine (durable.go) and recovered, giving the
// observability and controllability the paper calls for.
//
// A stream belongs to one session scope (StreamInfo.Session), and so does
// every message on it: the store stamps a stored message's Session with its
// stream's, as it assigns Seq and TS, whatever the producer handed in. So a
// scope's streams are its messages — History, List, Drop and a scoped
// subscription's backlog all select by the stream. A message has no id of
// its own: its position is (Stream, Seq), its place in the store's total
// order is TS, which is unique and never handed out twice, Drop and
// recovery included.
//
// Every ask crosses this package a dozen times, so its costs follow what is
// delivered, not what exists:
//
//   - Storage. A stream's history is a chunk.Log: messages sit in chunks
//     that never move, so an Append that finds the last chunk full
//     allocates one chunk under the store lock and copies no history.
//     Chunks double up to 256 messages and then grow by at most a quarter
//     of the length and 512, so a stream holds about the spare room an
//     appended slice would, less on average; Read, replay, History and
//     Snapshot walk the chunks in order.
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
//   - Retention. History is what a stream keeps, and a session keeps the
//     messages of its last obs.KeptAsks (256) asks, not every one since it
//     opened. The streams tagged TagAsks (a session's user and event
//     streams, an utterance or a click an ask) set their scope's horizon:
//     the later of the TSs of their messages KeptAsks back, so the scope's
//     last KeptAsks asks lie past it. On every Append to a stream of the
//     scope, the stream lets go of its leading chunks that lie wholly before
//     the horizon (chunk.Log.Release: whole chunks, nothing moved, nothing
//     allocated), so it keeps those asks' messages and at most one chunk
//     more. A stream tagged TagKeepAll (a session's membership records) and
//     a stream of a scope with no ask stream keep everything. Positions do
//     not move: Seq, Len and offsets go on counting, Released is the first
//     kept Seq, and Read, replay, History and Snapshot serve from there — an
//     offset in the released prefix starts at the first kept message. Log
//     replay applies the same rule, a snapshot holds only what is kept
//     (durable.go), so recovery keeps what the live store kept.
//   - Addressing. A filter can select on the directive: the operations it
//     wants (Filter.Ops) and the agent they are addressed to (Filter.Agent;
//     a directive that names no agent is a broadcast). An agent's control
//     subscription is handed the directives meant for that agent, not every
//     control message of its session to discard all but its own. A
//     session's membership records (ADD_AGENT, REMOVE_AGENT: one per change,
//     on its session stream, written by package session alone) are ops no
//     agent asks for, so they reach no agent.
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
	"maps"
	"slices"
	"time"
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
	OpAddAgent     = "ADD_AGENT"     // session: agents join it (the payload names them, one a line)
	OpRemoveAgent  = "REMOVE_AGENT"  // session: agents leave it (likewise)
	OpAbort        = "ABORT"         // coordinator: abort execution (budget)
	OpEOS          = "EOS"           // end of stream sentinel
)

// Directive is the structured body of a control message. The program
// speaks a fixed set of directives, and each keeps its parameters in the
// typed fields its op uses; the others stay zero:
//
//   - EXECUTE_AGENT: Invocation, Inputs, ReplyStream, Parent, Deadline.
//   - AGENT_DONE: Invocation, Outputs, Cost, Accuracy, Latency.
//   - AGENT_ERROR: Invocation, Error.
//   - ABORT: Invocation to cancel one invocation, or none (a Reason at
//     most) to cancel every invocation of the message's ask.
//
// Inputs and Outputs are the producer's own maps, stored without a copy:
// read-only once appended.
type Directive struct {
	// Op is one of the Op* constants (or an application-defined operation).
	Op string `json:"op"`
	// Agent names the target agent, when the operation addresses one.
	Agent string `json:"agent,omitempty"`
	// Invocation is the id of the agent invocation the directive starts,
	// reports on or aborts.
	Invocation string `json:"invocation,omitempty"`
	// Inputs binds each input parameter the invocation gets to its value.
	Inputs map[string]any `json:"inputs,omitempty"`
	// ReplyStream is where the invocation publishes its outputs; empty, they
	// ride its AGENT_DONE report.
	ReplyStream string `json:"reply_stream,omitempty"`
	// Parent is the id of the caller's span (obs.Span.ID), under which the
	// invocation's span is resumed; 0 is the root of the message's ask.
	Parent uint64 `json:"parent,omitempty"`
	// Deadline is the caller's absolute completion deadline in Unix
	// nanoseconds; 0 is none.
	Deadline int64 `json:"deadline,omitempty"`
	// Outputs binds each output an invocation that named no reply stream
	// produced to its value; nil when it named one.
	Outputs map[string]any `json:"outputs,omitempty"`
	// Cost, Accuracy and Latency are a finished invocation's QoS actuals.
	Cost     float64       `json:"cost,omitempty"`
	Accuracy float64       `json:"accuracy,omitempty"`
	Latency  time.Duration `json:"latency,omitempty"`
	// Error is a failed invocation's error text.
	Error string `json:"error,omitempty"`
	// Reason says why an ABORT stopped a plan.
	Reason string `json:"reason,omitempty"`
}

// Message is a single entry in a stream.
type Message struct {
	// Stream is the id of the stream this message belongs to.
	Stream string `json:"stream"`
	// Seq is the zero-based offset of the message within its stream.
	Seq int64 `json:"seq"`
	// TS is a store-global logical timestamp establishing a total order
	// across streams (used to reconstruct flows such as Figs. 9 and 10). No
	// two messages share one.
	TS int64 `json:"ts"`
	// Kind is the message class.
	Kind Kind `json:"kind"`
	// Tags enable selective consumption ("a message tagged SQL can trigger
	// the SQLExecutor agent", §V-B).
	Tags []string `json:"tags,omitempty"`
	// Sender names the producing component.
	Sender string `json:"sender,omitempty"`
	// Session scopes the message to a collaborative context (§V-E): its
	// stream's session, which the store stamps on append. A producer leaves
	// it empty; Publish reads it only as the scope of a stream it creates.
	Session string `json:"session,omitempty"`
	// Param optionally names the agent output parameter that produced the
	// payload (used by the coordinator to wire DAG edges).
	Param string `json:"param,omitempty"`
	// Payload is the data body. When the store has a durability sink
	// (SetDurable), the payload is logged by durability's value codec: nil,
	// a string (byte for byte), an int, int64, float64 or bool, and a
	// registered type (*planner.Plan, *hragents.QueryRows) recover as the
	// value that was logged; any other payload must be JSON-serializable
	// and recovers as what encoding/json decodes it into (map[string]any,
	// []any, float64, ...).
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

// JSONHeader is a payload whose JSON can be long (a ROWS result), so that a
// short rendering of it need not marshal all of it.
type JSONHeader interface {
	// AppendJSONHead appends the value's JSON to b, or a prefix of it that
	// leaves b longer than n bytes.
	AppendJSONHead(b []byte, n int) ([]byte, error)
}

// PayloadHead returns PayloadString, or a prefix of it longer than n bytes:
// all that obs.Truncate(…, n) reads of it. A JSONHeader payload, or a map
// holding one (an AGENT_DONE report's outputs), is rendered only as far as
// that prefix needs; so a value JSON cannot encode, which PayloadString
// renders with %v instead, is seen only when it lies within the prefix.
func (m Message) PayloadHead(n int) string {
	switch m.Payload.(type) {
	case nil, string:
		return m.PayloadString()
	}
	b, err := appendJSONHead(nil, m.Payload, n)
	if err != nil {
		return m.PayloadString()
	}
	return string(b)
}

// appendJSONHead appends json.Marshal(v) to b, or a prefix of it that leaves
// b longer than n bytes.
func appendJSONHead(b []byte, v any, n int) ([]byte, error) {
	switch v := v.(type) {
	case JSONHeader:
		return v.AppendJSONHead(b, n)
	case map[string]any:
		if v == nil {
			return append(b, "null"...), nil
		}
		b = append(b, '{')
		for i, k := range slices.Sorted(maps.Keys(v)) { // json.Marshal's key order
			if len(b) > n {
				return b, nil
			}
			if i > 0 {
				b = append(b, ',')
			}
			key, _ := json.Marshal(k)
			var err error
			if b, err = appendJSONHead(append(append(b, key...), ':'), v[k], n); err != nil {
				return b, err
			}
		}
		return append(b, '}'), nil
	}
	j, err := json.Marshal(v)
	return append(b, j...), err
}
