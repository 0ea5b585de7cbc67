package obs

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// Span tracing. A Span is one timed unit of work — an ask, a plan, a
// scheduler step, a memo lookup, an agent invocation, a SQL statement —
// with a parent link, a component label and key/value attributes. Spans
// propagate two ways:
//
//   - In-process, via context.Context: StartSpan derives a child of the
//     span carried by ctx (ContextWith/FromContext).
//   - Across stream boundaries, by id: the coordinator puts its span's ID
//     in the EXECUTE_AGENT directive (streams.Directive.Parent) and the
//     agent runtime resumes the trace under it with Tracer.Resume —
//     orchestration crosses goroutines over streams, so the trace context
//     must ride the message, not the call stack.
//
// Completed spans are recorded into a bounded per-session ring
// (Tracer.Session reads it; GET /trace/{session} and bpctl trace render
// it). An ask's root span names the ask: its id rides every message the ask
// causes (streams.Message.Ask), and work started for such a message joins
// the ask's tree through Resume, looked up by that id for as long as any
// span of the ask is open. Work whose message names no open ask (activity on
// an idle session, a late message of a finished ask) produces no span, so
// rings hold coherent ask trees rather than unanchored noise.

// Spans is the process-global tracer, the spans counterpart of Default.
var Spans = NewTracer()

const (
	// DefaultMaxSessions bounds how many per-session rings the tracer
	// retains; beyond it the least-recently-active session's trace is
	// evicted.
	DefaultMaxSessions = 128
	// KeptAsks is the horizon of a conversation: how many of a session's
	// latest asks the process keeps. A session's streams keep the messages
	// of its last KeptAsks asks (streams.TagAsks), and its span ring about
	// as many asks' spans. It is a constant, not an option.
	KeptAsks = 256
	// ringCapacity bounds each session's span ring; older spans are
	// overwritten (an ask on the hragents suite is ~6-8 spans, so the ring
	// holds the last ~250-340 asks of a session).
	ringCapacity = 8 * KeptAsks
)

// Attr is one span attribute.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanData is a completed span as recorded in a session ring.
type SpanData struct {
	// ID is unique within the tracer; Parent is 0 for roots.
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Component names the producing layer: "session", "coordinator",
	// "scheduler", "memo", "agent", "relational".
	Component string `json:"component"`
	// Name describes the unit of work within the component.
	Name  string        `json:"name"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"duration_ns"`
	Attrs []Attr        `json:"attrs,omitempty"`
}

// Span is an in-flight span. All methods are safe on a nil receiver — a
// Resume for no open ask or a StartSpan outside a traced request hands out
// nil spans and instrumentation sites need no conditionals.
type Span struct {
	t         *Tracer
	ask       *openAsk // the ask the span is charged to; its session's ring records it
	id        uint64
	parent    uint64
	component string
	name      string
	start     time.Time

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// openAsk is an ask with a span open, filed in its tracer's table under its
// root's id: the root's session, the count of the ask's spans started and
// not yet ended, and the channel Settled hands out, closed when that count
// falls to zero and the ask leaves the table.
type openAsk struct {
	id      uint64
	session string
	open    atomic.Int64
	settled chan struct{} // made by the first Settled; guarded by Tracer.mu
}

// SetAttr attaches a key/value attribute (no-op after End).
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
	s.mu.Unlock()
}

// End completes the span and records it into its session's ring. Ending
// twice is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()
	s.t.record(s.ask.session, SpanData{
		ID: s.id, Parent: s.parent, Component: s.component, Name: s.name,
		Start: s.start, Dur: time.Since(s.start), Attrs: attrs,
	})
	if s.ask.open.Add(-1) == 0 {
		s.t.settle(s.ask)
	}
}

// closedChan is what Settled hands out for an ask no longer open.
var closedChan = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

// Settled returns a channel closed once every span of this span's ask has
// ended and been recorded (at once for nil). The flight recorder waits on it
// before it reads an ask's tree: the answer displays a hair before the
// agent that posted it, and that agent's coordinator ancestors, end.
func (s *Span) Settled() <-chan struct{} {
	if s == nil {
		return closedChan
	}
	t, a := s.t, s.ask
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.asks[a.id] != a {
		return closedChan
	}
	if a.settled == nil {
		a.settled = make(chan struct{})
	}
	return a.settled
}

// ID returns the span id (0 for nil).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Ask returns the id of the ask the span is charged to — its root's id (0
// for nil).
func (s *Span) Ask() uint64 {
	if s == nil {
		return 0
	}
	return s.ask.id
}

// AskID renders an ask's id (a root span's id, as streams.Message.Ask holds
// it) the one way X-Trace-Id, an Answer, events and exemplars carry it: ""
// for 0, no ask.
func AskID(ask uint64) string {
	if ask == 0 {
		return ""
	}
	return strconv.FormatUint(ask, 10)
}

// Tracer records spans into bounded per-session rings. The session map
// itself is bounded too: past maxSessions the least-recently-active
// session's trace is evicted, so a daemon churning through millions of
// short sessions holds a constant amount of trace memory.
type Tracer struct {
	nextID atomic.Uint64

	mu       sync.Mutex
	max      int
	sessions map[string]*sessionTrace
	lru      sessionTrace        // the recency list's sentinel: lru.next is the least recently active
	asks     map[uint64]*openAsk // by root id, while a span of the ask is open
}

// sessionTrace is a session's ring, linked into the tracer's recency list
// itself, so that making one is a single allocation beside its ring's.
type sessionTrace struct {
	id         string
	prev, next *sessionTrace // guarded by Tracer.mu

	mu   sync.Mutex
	ring ring[SpanData]
}

// NewTracer creates an empty tracer with the default session bound.
func NewTracer() *Tracer { return newTracer(DefaultMaxSessions) }

func newTracer(maxSessions int) *Tracer {
	t := &Tracer{max: maxSessions, sessions: map[string]*sessionTrace{}, asks: map[uint64]*openAsk{}}
	t.lru.prev, t.lru.next = &t.lru, &t.lru
	return t
}

// SessionCount returns the number of retained session rings.
func (t *Tracer) SessionCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.sessions)
}

func (t *Tracer) evictLocked() {
	for len(t.sessions) > t.max {
		st := t.lru.next
		st.unlink()
		delete(t.sessions, st.id)
	}
}

// pushNewestLocked links st in as the most recently active session.
func (t *Tracer) pushNewestLocked(st *sessionTrace) {
	st.prev, st.next = t.lru.prev, &t.lru
	st.prev.next, t.lru.prev = st, st
}

// unlink takes st out of the recency list; the caller holds Tracer.mu.
func (st *sessionTrace) unlink() { st.prev.next, st.next.prev = st.next, st.prev }

// session looks a session's ring up. A create (span activity) bumps the
// session to most-recently-active; pure reads leave the LRU order alone.
func (t *Tracer) session(id string, create bool) *sessionTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.sessions[id]
	if ok {
		if create {
			st.unlink()
			t.pushNewestLocked(st)
		}
		return st
	}
	if !create {
		return nil
	}
	st = &sessionTrace{id: id, ring: newRing[SpanData](ringCapacity)}
	t.sessions[id] = st
	t.pushNewestLocked(st)
	t.evictLocked()
	return st
}

// newSpan makes a span of ask a; the caller has counted it open.
func (t *Tracer) newSpan(a *openAsk, parent uint64, component, name string) *Span {
	return &Span{
		t: t, ask: a, id: t.nextID.Add(1), parent: parent,
		component: component, name: name, start: time.Now(),
	}
}

// StartRoot opens an ask's root span. Its id names the ask: the messages the
// ask causes carry it, and Resume finds the ask by it until the ask's last
// span ends.
func (t *Tracer) StartRoot(session, component, name string) *Span {
	a := &openAsk{session: session}
	a.open.Store(1)
	sp := t.newSpan(a, 0, component, name)
	a.id = sp.id
	t.mu.Lock()
	t.asks[a.id] = a
	t.mu.Unlock()
	return sp
}

// Resume opens a span for work that a message of ask caused, recorded in the
// ask's session and charged to the ask. Its parent is the span id parent —
// a Span.ID carried across a stream boundary — or the ask's root when
// parent is 0. It returns nil, and nothing is recorded, when no span of ask
// is open (ask 0 included): never is the work charged to another ask.
func (t *Tracer) Resume(ask, parent uint64, component, name string) *Span {
	t.mu.Lock()
	a := t.asks[ask]
	if a != nil {
		a.open.Add(1) // under mu, so that settle cannot retire the ask meanwhile
	}
	t.mu.Unlock()
	if a == nil {
		return nil
	}
	if parent == 0 {
		parent = ask
	}
	return t.newSpan(a, parent, component, name)
}

// settle retires an ask whose open count fell to zero, unless a Resume has
// counted a new span of it since.
func (t *Tracer) settle(a *openAsk) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a.open.Load() != 0 || t.asks[a.id] != a {
		return
	}
	delete(t.asks, a.id)
	if a.settled != nil {
		close(a.settled)
	}
}

// record appends a completed span to the session ring.
func (t *Tracer) record(session string, d SpanData) {
	st := t.session(session, true)
	st.mu.Lock()
	st.ring.push(d)
	st.mu.Unlock()
}

// Session returns the session's recorded spans, oldest first.
func (t *Tracer) Session(session string) []SpanData {
	st := t.session(session, false)
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ring.oldestFirst(0)
}

// Tree returns the session's recorded spans belonging to the subtree
// rooted at root (the root itself included), oldest first — the flight
// recorder's one-ask view of a ring that may hold many asks. A root of 0
// returns every recorded span.
func (t *Tracer) Tree(session string, root uint64) []SpanData {
	spans := t.Session(session)
	if root == 0 || len(spans) == 0 {
		return spans
	}
	// Membership cannot assume ring order: a parent usually ends — and so
	// is recorded — after its children, but the ROOT ends the moment the
	// answer displays, a hair before the ask's laggard spans (the posting
	// agent and its scheduler/coordinator ancestors) land behind it. Walk
	// parent links to a fixpoint instead; each pass claims at least one
	// tree level, so iterations are bounded by tree depth.
	keep := make(map[uint64]bool, len(spans))
	keep[root] = true
	for grew := true; grew; {
		grew = false
		for _, d := range spans {
			if !keep[d.ID] && keep[d.Parent] {
				keep[d.ID] = true
				grew = true
			}
		}
	}
	out := make([]SpanData, 0, len(spans))
	for _, d := range spans {
		if keep[d.ID] {
			out = append(out, d)
		}
	}
	return out
}

// ---- context propagation ----

type ctxKey struct{}

// ContextWith returns ctx carrying the span (ctx unchanged for nil spans).
func ContextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// StartSpan derives a child span of the span carried by ctx, returning the
// child-carrying context. Without a parent in ctx it returns (ctx, nil):
// instrumentation is free outside a traced request.
func StartSpan(ctx context.Context, component, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	parent.ask.open.Add(1)
	sp := parent.t.newSpan(parent.ask, parent.id, component, name)
	return ContextWith(ctx, sp), sp
}

// Truncate shortens s to at most n bytes without splitting a multi-byte
// UTF-8 rune, appending "..." when anything was cut.
func Truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	cut := n
	for cut > 0 && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return s[:cut] + "..."
}
