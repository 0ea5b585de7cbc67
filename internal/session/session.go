// Package session implements the blueprint's sessions (§V-E): the context
// and scope in which agents collaborate. A session owns a family of streams
// (user input, UI events, control, its own session stream, display output),
// tracks the agents added to it — explicitly by the user, via configuration,
// or by the task planner — and supports hierarchical sub-scopes such as
// SESSION:ID:PROFILE, analogous to scoping in programming languages.
//
// A session is the one writer of its membership. Each change it makes — an
// add of one agent or of many (SpawnAgents), a RemoveAgent — is one control
// record on the session stream, an ADD_AGENT or REMOVE_AGENT whose string
// payload names the agents it adds or removes, one a line; Members replays
// them. An agent joins and leaves by routing alone (agent.Instance.Join,
// Leave) and writes nothing here.
//
// A closed session leaves nothing: Close takes its agents out and then drops
// its streams, sub-scopes included, from the store (streams.Store.Drop) — one
// drop record, and nothing of the session in memory, in the next snapshot or
// in what recovery rebuilds. A shutdown (Manager.Close) is not a close: it
// takes every open session's agents out, recording each one's REMOVE_AGENT,
// and drops nothing, so the sessions recover and can be reopened by id.
//
// An open session keeps a bounded history: the messages of its last
// obs.KeptAsks (256) asks, not every message since it opened. Its user and
// event streams are the scope's ask streams (streams.TagAsks), an utterance
// or a click an ask, and the later of the TSs of the utterance 256 back and
// the click 256 back is the session's horizon: as each of its streams grows,
// it lets go of its chunks that lie wholly before the horizon, so it holds
// at least the last 256 asks' messages, at most the last 512 asks' (256 of
// each kind), and at most one chunk more. The session stream is never
// released (streams.TagKeepAll): Members replays every membership record.
// Nothing else a session does reads a message once its ask has answered —
// an ask's wait starts at DisplayLen, a report wait matches its own
// invocation — so only History (and the flows built on it) and a snapshot
// see the difference, and each stream's StreamInfo.Released says how many
// messages it let go of. The rule is the store's, applied again on log
// replay, so a recovered session keeps what the live one kept.
package session

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"time"

	"blueprint/internal/agent"
	"blueprint/internal/streams"
)

// Common errors.
var (
	ErrSessionExists   = errors.New("session: session already exists")
	ErrSessionNotFound = errors.New("session: session not found")
	ErrAgentActive     = errors.New("session: agent already active")
	ErrAgentInactive   = errors.New("session: agent not active")
	// ErrNoDisplay is returned by AwaitDisplay when no matching display
	// output arrives before the deadline.
	ErrNoDisplay = errors.New("session: no display output before deadline")
	// ErrClosed is returned by a display wait whose session was closed under
	// it: the drop of the session's streams ended the wait. It wraps
	// ErrNoDisplay, as every failed display wait does.
	ErrClosed = fmt.Errorf("%w: session closed", ErrNoDisplay)
	// ErrFailed is returned by an ask's wait that found the ask's failure
	// record: the AGENT_ERROR an agent or the coordinator shows on the
	// display stream when the ask can no longer be answered. The error
	// names the failed agent and carries its cause.
	ErrFailed = errors.New("session: ask failed")
)

// UserStream is the stream carrying user utterances for a session.
func UserStream(id string) string { return id + ":user" }

// EventStream carries UI events (§VI: "events from UI are processed just
// like any other input through streams").
func EventStream(id string) string { return id + ":events" }

// SessionStream carries the session's membership records: an ADD_AGENT or
// REMOVE_AGENT per change, written by the session alone.
func SessionStream(id string) string { return id + ":session" }

// Manager creates and tracks sessions over one stream store, and owns the
// agents deployed into them: an agent is deployed once, by the first session
// to add it, every later session joins that deployment by the agent's name,
// and it is stopped when the last of them has left.
type Manager struct {
	mu       sync.Mutex
	store    *streams.Store
	factory  *agent.Factory
	sessions map[string]*Session
	nextID   int
	deployed map[string]*deployment
}

// deployment is one agent's instance and the number of sessions holding it
// (joined, joining or still leaving); guarded by Manager.mu.
type deployment struct {
	inst     *agent.Instance
	sessions int
}

// NewManager creates a session manager. The factory may be nil if agents
// are attached directly rather than spawned by name.
func NewManager(store *streams.Store, factory *agent.Factory) *Manager {
	return &Manager{
		store: store, factory: factory,
		sessions: make(map[string]*Session), deployed: make(map[string]*deployment),
	}
}

// join puts the agent deployed under name in a session. When no session
// holds one it deploys a (with opts), built from the factory when nil.
func (m *Manager) join(session, name string, a *agent.Agent, opts agent.Options) (*agent.Instance, error) {
	m.mu.Lock()
	d := m.deployed[name]
	if d == nil {
		var err error
		if a == nil {
			a, err = m.factory.Build(name)
		}
		if err == nil {
			d = &deployment{}
			d.inst, err = agent.Deploy(m.store, a, opts)
		}
		if err != nil {
			m.mu.Unlock()
			return nil, err
		}
		m.deployed[name] = d
	}
	d.sessions++
	m.mu.Unlock()
	if err := d.inst.Join(session); err != nil {
		m.release(name)
		return nil, err
	}
	return d.inst, nil
}

// leave takes the agent deployed under name out of a session that joined it.
func (m *Manager) leave(session, name string, inst *agent.Instance) {
	inst.Leave(session)
	m.release(name)
}

// release gives up one session's hold on a deployment and stops it when that
// was the last.
func (m *Manager) release(name string) {
	m.mu.Lock()
	d := m.deployed[name]
	d.sessions--
	last := d.sessions == 0
	if last {
		delete(m.deployed, name)
	}
	m.mu.Unlock()
	if last {
		d.inst.Stop()
	}
}

// Create opens a new session. An empty id allocates the next "session:<n>"
// whose user stream the store does not hold — a session recovered from the
// log keeps its id and history to itself — while an explicit id reopens its
// streams on purpose. A closed session's id is not handed out again by this
// manager, but may be after a restart: nothing of the closed session is left
// for the new one to inherit.
func (m *Manager) Create(id string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id == "" {
		m.nextID++
		id = fmt.Sprintf("session:%d", m.nextID)
		if _, err := m.store.Info(UserStream(id)); err == nil {
			id = ""
		}
	}
	if _, ok := m.sessions[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrSessionExists, id)
	}
	s := &Session{
		ID:     id,
		store:  m.store,
		mgr:    m,
		agents: make(map[string]*agent.Instance),
	}
	// The user and event streams set the scope's horizon, which every stream
	// of the session but the session stream is held to.
	for _, stream := range []struct {
		id  string
		tag string
	}{
		{UserStream(id), streams.TagAsks}, {EventStream(id), streams.TagAsks},
		{agent.ControlStream(id), ""}, {SessionStream(id), streams.TagKeepAll}, {agent.DisplayStream(id), ""},
	} {
		info := streams.StreamInfo{Session: id, Creator: "session-manager"}
		if stream.tag != "" {
			info.Tags = []string{stream.tag}
		}
		if _, err := m.store.EnsureStream(stream.id, info); err != nil {
			return nil, err
		}
	}
	m.sessions[id] = s
	return s, nil
}

// Get returns an open session.
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrSessionNotFound, id)
	}
	return s, nil
}

// List returns open session ids, sorted.
func (m *Manager) List() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Sorted(maps.Keys(m.sessions))
}

// Close is the shutdown of every open session: each one's agents are taken
// out, its REMOVE_AGENT recorded, and it leaves the manager, but its streams
// are kept, so that the log and a final snapshot hold it whole.
func (m *Manager) Close() {
	m.mu.Lock()
	open := slices.Collect(maps.Values(m.sessions))
	m.mu.Unlock()
	for _, s := range open {
		s.close(false)
	}
}

func (m *Manager) remove(id string) {
	m.mu.Lock()
	delete(m.sessions, id)
	m.mu.Unlock()
}

// Session is one collaborative context.
type Session struct {
	// ID is the session scope identifier.
	ID string

	store *streams.Store
	mgr   *Manager

	mu     sync.Mutex
	agents map[string]*agent.Instance
	subs   []*Session
	closed bool
}

// Store exposes the underlying stream store.
func (s *Session) Store() *streams.Store { return s.store }

// Extend opens a nested sub-scope session (e.g. profile collection grouped
// as SESSION:ID:PROFILE, §V-E). The child shares the store; closing the
// parent closes its children.
func (s *Session) Extend(name string) (*Session, error) {
	child, err := s.mgr.Create(s.ID + ":" + name)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.subs = append(s.subs, child)
	s.mu.Unlock()
	return child, nil
}

// AddAgent puts a pre-built agent in the session, a membership change of
// one. The agent is deployed if no session holds one of its name; otherwise
// the session joins that deployment, and a is not used.
func (s *Session) AddAgent(a *agent.Agent, opts agent.Options) (*agent.Instance, error) {
	return s.joinOne(a.Spec.Name, a, opts)
}

// SpawnAgent adds the named agent, built from the factory when no session
// holds it yet: SpawnAgents of one.
func (s *Session) SpawnAgent(name string, opts agent.Options) (*agent.Instance, error) {
	return s.joinOne(name, nil, opts)
}

// SpawnAgents adds the named agents as one membership change, recorded by
// one ADD_AGENT: all of them join, or — on a name already active or given
// twice, or an agent that fails to build or join — none does and nothing is
// recorded.
func (s *Session) SpawnAgents(names []string, opts agent.Options) error {
	_, err := s.join(names, nil, opts)
	return err
}

func (s *Session) joinOne(name string, a *agent.Agent, opts agent.Options) (*agent.Instance, error) {
	insts, err := s.join([]string{name}, a, opts)
	if err != nil {
		return nil, err
	}
	return insts[0], nil
}

// join makes one membership change under the session's lock, names joining
// whole or not at all: of concurrent adds of one name exactly one joins, and
// none once the session is closed. a, when set, is the pre-built agent behind
// AddAgent's one name; without it the names are built from the factory.
func (s *Session) join(names []string, a *agent.Agent, opts agent.Options) ([]*agent.Instance, error) {
	if a == nil && s.mgr.factory == nil {
		return nil, errors.New("session: no factory configured")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("%w: %s", ErrSessionNotFound, s.ID)
	}
	insts := make([]*agent.Instance, 0, len(names))
	for _, name := range names {
		_, active := s.agents[name] // active, or named twice in names
		var inst *agent.Instance
		var err error
		if !active {
			inst, err = s.mgr.join(s.ID, name, a, opts)
		}
		if active || errors.Is(err, agent.ErrJoined) {
			// ErrJoined: a RemoveAgent of it is still waiting for its invocations.
			err = fmt.Errorf("%w: %s", ErrAgentActive, name)
		}
		if err != nil {
			for _, name := range names[:len(insts)] {
				s.mgr.leave(s.ID, name, s.agents[name])
				delete(s.agents, name)
			}
			return nil, err
		}
		s.agents[name] = inst
		insts = append(insts, inst)
	}
	s.record(streams.OpAddAgent, names)
	return insts, nil
}

// RemoveAgent takes an active agent out of the session, recording the
// REMOVE_AGENT, and waits for what it has in flight here.
func (s *Session) RemoveAgent(name string) error {
	s.mu.Lock()
	inst, ok := s.agents[name]
	if ok {
		delete(s.agents, name)
		s.record(streams.OpRemoveAgent, []string{name})
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrAgentInactive, name)
	}
	s.mgr.leave(s.ID, name, inst)
	return nil
}

// record appends one membership change to the session stream, under s.mu so
// that records follow the order of the changes. The names ride as one string
// payload, one a line, which the log recovers byte for byte; the store may
// already be closed.
func (s *Session) record(op string, names []string) {
	_, _ = s.store.Append(streams.Message{
		Stream: SessionStream(s.ID), Kind: streams.Control, Sender: "session-manager",
		Payload: strings.Join(names, "\n"), Directive: &streams.Directive{Op: op},
	})
}

// Agents returns the names of active agents, sorted.
func (s *Session) Agents() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Sorted(maps.Keys(s.agents))
}

// Agent returns the deployment of an active agent by name: the instance the
// session joined, which other sessions may have joined too.
func (s *Session) Agent(name string) (*agent.Instance, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	inst, ok := s.agents[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrAgentInactive, name)
	}
	return inst, nil
}

// PostUserText publishes a user utterance to the session's user stream,
// tagged "user" and "utterance", as input of ask (0 for none): the id every
// message the utterance causes carries.
func (s *Session) PostUserText(ask uint64, text string) (streams.Message, error) {
	return s.store.Append(streams.Message{
		Stream: UserStream(s.ID), Kind: streams.Data,
		Sender: "user", Tags: []string{"user", "utterance"}, Payload: text, Ask: ask,
	})
}

// PostUserEvent publishes a UI event (click, form submit) to the session's
// event stream (Fig. 9 step 1) as input of ask (0 for none).
func (s *Session) PostUserEvent(ask uint64, event map[string]any) (streams.Message, error) {
	return s.store.Append(streams.Message{
		Stream: EventStream(s.ID), Kind: streams.Event,
		Sender: "user", Tags: []string{"ui", "event"}, Payload: event, Ask: ask,
	})
}

// Display returns the user-facing outputs the session keeps (the display
// stream payloads, in order).
func (s *Session) Display() []string {
	msgs, err := s.store.ReadAll(agent.DisplayStream(s.ID))
	if err != nil {
		return nil
	}
	out := make([]string, 0, len(msgs))
	for _, m := range msgs {
		out = append(out, m.PayloadString())
	}
	return out
}

// DisplayLen is the number of display messages so far: read before an ask
// posts its input, it is the offset the wait for the answer starts from, so
// that the history before it is never replayed. It reads the stream's
// length, not its messages.
func (s *Session) DisplayLen() int {
	info, err := s.store.Info(agent.DisplayStream(s.ID))
	if err != nil {
		return 0
	}
	return int(info.Len)
}

// AwaitAnswer blocks until the display stream carries, at index >= from, a
// message that ask caused, and returns on the first such message: the ask's
// final record. A data message is its answer, whose payload is returned; an
// AGENT_ERROR directive is its failure, returned as ErrFailed. Display
// messages of other asks — a plan result that lands after its own ask
// returned, the answer of an ask running beside this one — are passed over.
// ErrNoDisplay is returned on timeout or when ctx ends, ErrClosed (which
// wraps it) when the session is closed first.
func (s *Session) AwaitAnswer(ctx context.Context, from int, ask uint64, timeout time.Duration) (string, error) {
	return s.awaitDisplay(ctx, from, ask, "", timeout)
}

// AwaitDisplay blocks until the display stream carries a message at index
// >= from whose payload contains substr (empty matches anything), of any
// ask, returning its payload; failure records are passed over. ErrNoDisplay
// is returned on timeout.
func (s *Session) AwaitDisplay(from int, substr string, timeout time.Duration) (string, error) {
	return s.awaitDisplay(context.Background(), from, 0, substr, timeout)
}

// awaitDisplay is the one display wait: the first message at index >= from
// of ask (any, for 0) whose payload contains substr, or the failure record of
// ask when that comes first. It is event-driven: a
// streams subscription resumed at offset from delivers the display messages
// already at or past it (so outputs that raced ahead of the call are not
// missed) and then new ones as they are appended — no polling, no sleeps,
// and no replay of the history before from, so a wait costs the same on a
// long conversation as on a new one. It gives up when ctx ends, and at once,
// with ErrClosed, when the session is closed: the drop of its streams ends
// the subscription.
func (s *Session) awaitDisplay(ctx context.Context, from int, ask uint64, substr string, timeout time.Duration) (string, error) {
	display := agent.DisplayStream(s.ID)
	sub := s.store.SubscribeFrom(streams.Filter{Streams: []string{display}}, int64(from))
	defer sub.Cancel()
	if _, err := s.store.Info(display); err != nil { // dropped before sub was filed: no drop will end sub
		return "", fmt.Errorf("%w: %s", ErrClosed, s.ID)
	}
	timer := s.store.Clock().NewTimer(timeout)
	defer timer.Stop()
	for {
		select {
		case msg, ok := <-sub.C():
			if !ok {
				return "", fmt.Errorf("%w: %s", ErrClosed, s.ID)
			}
			if msg.Seq < int64(from) || (ask != 0 && msg.Ask != ask) || (ask == 0 && msg.Directive != nil) {
				continue // live, but from lies beyond the stream's end; another ask's; or a failure record, no rendering
			}
			if d := msg.Directive; d != nil {
				return "", fmt.Errorf("%w: %s: %s", ErrFailed, d.Agent, d.Error)
			}
			if text := msg.PayloadString(); substr == "" || strings.Contains(text, substr) {
				return text, nil
			}
		case <-timer.C:
			return "", fmt.Errorf("%w: %s after %s", ErrNoDisplay, s.ID, timeout)
		case <-ctx.Done():
			return "", fmt.Errorf("%w: %s: %w", ErrNoDisplay, s.ID, ctx.Err())
		}
	}
}

// History returns every message this session scope (sub-scopes included)
// keeps, in global order — the paper's observability story, back to the
// horizon of its last obs.KeptAsks asks.
func (s *Session) History() []streams.Message {
	return s.store.History(s.ID)
}

// Members replays the session stream's membership records: the
// authoritative, replayable record of which agents the session holds (§V-E).
func (s *Session) Members() []string {
	msgs, err := s.store.ReadAll(SessionStream(s.ID))
	if err != nil {
		return nil
	}
	active := map[string]bool{}
	for _, m := range msgs {
		for _, name := range strings.Split(m.PayloadString(), "\n") {
			switch m.Directive.Op {
			case streams.OpAddAgent:
				active[name] = true
			case streams.OpRemoveAgent:
				delete(active, name)
			}
		}
	}
	return slices.Sorted(maps.Keys(active))
}

// Close ends the session and forgets it: its children and its agents are
// taken out first, each agent's in-flight invocations waited for, and then
// the store drops the session's streams, sub-scopes included (one drop
// record, and no REMOVE_AGENT, which nothing would read), before the session
// leaves its manager — so a Create of its id fails until they are gone.
// Closing twice is a no-op.
func (s *Session) Close() { s.close(true) }

// close takes the session's agents out (children first) and removes it from
// its manager. forget drops its streams; without it the agents' leaving is
// recorded as one REMOVE_AGENT that lists them sorted.
func (s *Session) close(forget bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	subs := s.subs
	s.subs = nil
	agents := s.agents
	s.agents = nil
	if len(agents) > 0 && !forget {
		s.record(streams.OpRemoveAgent, slices.Sorted(maps.Keys(agents)))
	}
	s.mu.Unlock()

	for _, c := range subs {
		c.close(forget)
	}
	for name, inst := range agents {
		s.mgr.leave(s.ID, name, inst)
	}
	if forget {
		// Drop fails only on a closed store or a refused log record; the
		// streams are then kept, as a shutdown keeps them.
		_ = s.store.Drop(s.ID)
	}
	s.mgr.remove(s.ID)
}
