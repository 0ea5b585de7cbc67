// Package session implements the blueprint's sessions (§V-E): the context
// and scope in which agents collaborate. A session owns a family of streams
// (user input, control, session signals, display output), tracks the agents
// added to it — explicitly by the user, via configuration, or by the task
// planner — and supports hierarchical sub-scopes such as SESSION:ID:PROFILE,
// analogous to scoping in programming languages.
package session

import (
	"errors"
	"fmt"
	"sort"
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
)

// UserStream is the stream carrying user utterances for a session.
func UserStream(id string) string { return id + ":user" }

// EventStream carries UI events (§VI: "events from UI are processed just
// like any other input through streams").
func EventStream(id string) string { return id + ":events" }

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

// Create opens a new session. An empty id allocates "session:<n>".
func (m *Manager) Create(id string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id == "" {
		m.nextID++
		id = fmt.Sprintf("session:%d", m.nextID)
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
	for _, stream := range []string{
		UserStream(id), EventStream(id),
		agent.ControlStream(id), agent.SessionStream(id), agent.DisplayStream(id),
	} {
		if _, err := m.store.EnsureStream(stream, streams.StreamInfo{Session: id, Creator: "session-manager"}); err != nil {
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
	out := make([]string, 0, len(m.sessions))
	for id := range m.sessions {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
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

// AddAgent puts a pre-built agent in the session and announces ADD_AGENT on
// the session stream. The agent is deployed if no session holds one of its
// name; otherwise the session joins that deployment, and a is not used.
func (s *Session) AddAgent(a *agent.Agent, opts agent.Options) (*agent.Instance, error) {
	return s.join(a.Spec.Name, a, opts)
}

// SpawnAgent adds the named agent, built from the factory when no session
// holds it yet.
func (s *Session) SpawnAgent(name string, opts agent.Options) (*agent.Instance, error) {
	if s.mgr.factory == nil {
		return nil, errors.New("session: no factory configured")
	}
	return s.join(name, nil, opts)
}

// join decides membership under the session's lock: of concurrent adds of one
// name exactly one joins, and none once the session is closed.
func (s *Session) join(name string, a *agent.Agent, opts agent.Options) (*agent.Instance, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("%w: %s", ErrSessionNotFound, s.ID)
	}
	if _, ok := s.agents[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAgentActive, name)
	}
	inst, err := s.mgr.join(s.ID, name, a, opts)
	if errors.Is(err, agent.ErrJoined) {
		// A RemoveAgent of it is still waiting for its invocations.
		err = fmt.Errorf("%w: %s", ErrAgentActive, name)
	}
	if err != nil {
		return nil, err
	}
	s.agents[name] = inst
	_, _ = s.store.Append(streams.Message{
		Stream: agent.SessionStream(s.ID), Kind: streams.Control, Sender: "session-manager",
		Directive: &streams.Directive{Op: streams.OpAddAgent, Agent: name},
	})
	return inst, nil
}

// RemoveAgent takes an active agent out of the session, waiting for what it
// has in flight here, and announces REMOVE_AGENT.
func (s *Session) RemoveAgent(name string) error {
	s.mu.Lock()
	inst, ok := s.agents[name]
	delete(s.agents, name)
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrAgentInactive, name)
	}
	s.mgr.leave(s.ID, name, inst)
	_, _ = s.store.Append(streams.Message{
		Stream: agent.SessionStream(s.ID), Kind: streams.Control, Sender: "session-manager",
		Directive: &streams.Directive{Op: streams.OpRemoveAgent, Agent: name},
	})
	return nil
}

// Agents returns the names of active agents, sorted.
func (s *Session) Agents() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.agents))
	for n := range s.agents {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
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
		Stream: UserStream(s.ID), Session: s.ID, Kind: streams.Data,
		Sender: "user", Tags: []string{"user", "utterance"}, Payload: text, Ask: ask,
	})
}

// PostUserEvent publishes a UI event (click, form submit) to the session's
// event stream (Fig. 9 step 1) as input of ask (0 for none).
func (s *Session) PostUserEvent(ask uint64, event map[string]any) (streams.Message, error) {
	return s.store.Append(streams.Message{
		Stream: EventStream(s.ID), Session: s.ID, Kind: streams.Event,
		Sender: "user", Tags: []string{"ui", "event"}, Payload: event, Ask: ask,
	})
}

// Display returns the user-facing outputs rendered so far (the display
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
// message that ask caused, and returns the first such message's payload: the
// ask's answer. Display messages of other asks — a plan result that lands
// after its own ask returned, the answer of an ask running beside this one —
// are passed over. ErrNoDisplay is returned on timeout.
func (s *Session) AwaitAnswer(from int, ask uint64, timeout time.Duration) (string, error) {
	return s.awaitDisplay(from, ask, "", timeout)
}

// AwaitDisplay blocks until the display stream carries a message at index
// >= from whose payload contains substr (empty matches anything), of any
// ask, returning its payload. ErrNoDisplay is returned on timeout.
func (s *Session) AwaitDisplay(from int, substr string, timeout time.Duration) (string, error) {
	return s.awaitDisplay(from, 0, substr, timeout)
}

// awaitDisplay is the one display wait: the first message at index >= from
// of ask (any, for 0) whose payload contains substr. It is event-driven: a
// streams subscription resumed at offset from delivers the display messages
// already at or past it (so outputs that raced ahead of the call are not
// missed) and then new ones as they are appended — no polling, no sleeps,
// and no replay of the history before from, so a wait costs the same on a
// long conversation as on a new one.
func (s *Session) awaitDisplay(from int, ask uint64, substr string, timeout time.Duration) (string, error) {
	sub := s.store.SubscribeFrom(streams.Filter{
		Streams: []string{agent.DisplayStream(s.ID)},
	}, int64(from))
	defer sub.Cancel()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		select {
		case msg, ok := <-sub.C():
			if !ok {
				return "", fmt.Errorf("%w: %s (stream closed)", ErrNoDisplay, s.ID)
			}
			if msg.Seq < int64(from) || (ask != 0 && msg.Ask != ask) {
				continue // live, but from lies further beyond the stream's end; or another ask's
			}
			if text := msg.PayloadString(); substr == "" || strings.Contains(text, substr) {
				return text, nil
			}
		case <-timer.C:
			return "", fmt.Errorf("%w: %s after %s", ErrNoDisplay, s.ID, timeout)
		}
	}
}

// History returns every message in this session scope (including
// sub-scopes), in global order — the paper's observability story.
func (s *Session) History() []streams.Message {
	return s.store.History(s.ID)
}

// Members reconstructs agent membership from the session stream's
// ENTER/EXIT signals: the authoritative, replayable record (§V-E).
func (s *Session) Members() []string {
	msgs, err := s.store.ReadAll(agent.SessionStream(s.ID))
	if err != nil {
		return nil
	}
	active := map[string]bool{}
	for _, m := range msgs {
		if m.Directive == nil {
			continue
		}
		switch m.Directive.Op {
		case streams.OpEnterSession:
			active[m.Directive.Agent] = true
		case streams.OpExitSession:
			delete(active, m.Directive.Agent)
		}
	}
	out := make([]string, 0, len(active))
	for n := range active {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Close takes the session's agents out of it (children first) and removes
// the session from its manager. Closing twice is a no-op.
func (s *Session) Close() {
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
	s.mu.Unlock()

	for _, c := range subs {
		c.Close()
	}
	for name, inst := range agents {
		s.mgr.leave(s.ID, name, inst)
	}
	s.mgr.remove(s.ID)
}
