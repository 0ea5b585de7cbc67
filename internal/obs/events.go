package obs

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Structured event log. Spans answer "how long", metrics answer "how
// often"; events answer "what did the system decide and why" — the
// governor shedding a tenant, a breaker tripping, a retry charging its
// backoff to the budget, a degraded serve, a WAL group commit. Each event
// is one leveled, timestamped record with a component, a kind, optional
// session/trace correlation ids and key/value attributes, held in a
// bounded ring (GET /events and bpctl events read it; the flight recorder
// copies the matching slice into slow-ask exemplars).
//
// Design constraints mirror the rest of the plane: a disabled log (or an
// event below the minimum level) must cost exactly one atomic load at the
// emission site, and hot sites with expensive attributes guard with
// Events.On(level) before building them. High-frequency sites (per-admit,
// per-group-commit) additionally gate through a Sampler so steady-state
// traffic cannot wash the interesting transitions out of the ring.

// Level orders event severities.
type Level int32

// Event levels, ascending severity. LevelOff disables the log entirely.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
	LevelOff
)

// String renders the conventional lowercase name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	case LevelOff:
		return "off"
	default:
		return "level(" + strconv.Itoa(int(l)) + ")"
	}
}

// ParseLevel parses a level name as rendered by String.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	case "off":
		return LevelOff, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown level %q", s)
}

// MarshalJSON renders levels as strings ("warn", not 2).
func (l Level) MarshalJSON() ([]byte, error) {
	return []byte(`"` + l.String() + `"`), nil
}

// UnmarshalJSON accepts the String form.
func (l *Level) UnmarshalJSON(b []byte) error {
	if len(b) >= 2 && b[0] == '"' {
		b = b[1 : len(b)-1]
	}
	lv, err := ParseLevel(string(b))
	if err != nil {
		return err
	}
	*l = lv
	return nil
}

// Event is one recorded decision or state transition.
type Event struct {
	// Seq is the process-wide emission sequence number (monotonic; the
	// /events since-cursor and the recorder's window boundary).
	Seq   uint64    `json:"seq"`
	Time  time.Time `json:"time"`
	Level Level     `json:"level"`
	// Component names the emitting layer: "governor", "breaker",
	// "scheduler", "session", "durability".
	Component string `json:"component"`
	// Kind names the decision: "shed", "open", "retry", "replan",
	// "degraded-serve", "group-commit", ...
	Kind string `json:"kind"`
	// Session and Trace correlate the event with a session ring and an
	// ask: Trace is the ask's id as AskID renders it, its X-Trace-Id
	// (either may be empty for process-global events).
	Session string `json:"session,omitempty"`
	Trace   string `json:"trace,omitempty"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// DefaultEventCapacity bounds the global event ring.
const DefaultEventCapacity = 4096

// Events is the process-global event log, the events counterpart of
// Default and Spans.
var Events = NewEventLog(DefaultEventCapacity)

// EventLog is a leveled, bounded event ring. Emission below the minimum
// level costs one atomic load; recorded events take the mutex (cold by
// construction — events mark decisions, not per-row work).
type EventLog struct {
	min atomic.Int32
	seq atomic.Uint64

	mu   sync.Mutex
	ring ring[Event]
}

// NewEventLog creates a log recording LevelInfo and above.
func NewEventLog(capacity int) *EventLog {
	l := &EventLog{ring: newRing[Event](capacity)}
	l.min.Store(int32(LevelInfo))
	return l
}

// On reports whether an event at lv would be recorded — the one-atomic-load
// fast path every emission site checks (implicitly via Emit, explicitly
// when building attributes is itself a cost).
func (l *EventLog) On(lv Level) bool {
	return l != nil && lv >= Level(l.min.Load()) && lv < LevelOff
}

// SetLevel sets the minimum recorded level (LevelOff disables).
func (l *EventLog) SetLevel(lv Level) { l.min.Store(int32(lv)) }

// Level returns the minimum recorded level.
func (l *EventLog) Level() Level { return Level(l.min.Load()) }

// Emit records an event with no session/trace correlation.
func (l *EventLog) Emit(lv Level, component, kind string, attrs ...Attr) {
	if !l.On(lv) {
		return
	}
	l.Append(Event{Level: lv, Component: component, Kind: kind, Attrs: attrs})
}

// Append records a fully formed event (Seq and Time are stamped here),
// applying the level gate. The seam for sites that carry session/trace ids.
func (l *EventLog) Append(e Event) {
	if !l.On(e.Level) {
		return
	}
	e.Seq = l.seq.Add(1)
	e.Time = time.Now()
	l.mu.Lock()
	l.ring.push(e)
	l.mu.Unlock()
}

// Seq returns the last assigned sequence number (the /events cursor for
// "everything from now on").
func (l *EventLog) Seq() uint64 { return l.seq.Load() }

// Since returns the retained events with Seq > after, oldest first. An
// after of 0 returns the whole ring.
func (l *EventLog) Since(after uint64) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	// The ring is ordered by Seq: skip to the first qualifying event.
	i := 0
	for i < l.ring.len() && l.ring.at(i).Seq <= after {
		i++
	}
	return l.ring.oldestFirst(i)
}

// Len returns the number of retained events.
func (l *EventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.len()
}

// Sampler admits 1 in every N calls — the per-site sampling gate for
// high-frequency event sources (per-admit, per-group-commit) so they
// cannot wash rare transitions out of the ring. A nil sampler admits
// everything.
type Sampler struct {
	every uint64
	n     atomic.Uint64
}

// NewSampler creates a sampler admitting 1 in every `every` calls
// (every <= 1 admits all).
func NewSampler(every int) *Sampler {
	if every < 1 {
		every = 1
	}
	return &Sampler{every: uint64(every)}
}

// Allow reports whether this call is the sampled one of its stride.
func (s *Sampler) Allow() bool {
	if s == nil || s.every == 1 {
		return true
	}
	return s.n.Add(1)%s.every == 1
}
