package agent

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"blueprint/internal/obs"
	"blueprint/internal/registry"
	"blueprint/internal/resilience"
	"blueprint/internal/streams"
)

// Process-wide agent-runtime instruments: every instance counts here, for
// /metrics; an instance keeps no counters of its own.
var (
	mInvocations = obs.Default.Counter("blueprint_agent_invocations_total", "agent processor invocations across all instances")
	mInvErrors   = obs.Default.Counter("blueprint_agent_errors_total", "agent invocations that returned an error")
)

// Well-known per-session stream names. Streams are the only channel between
// components, so their naming is part of the architecture's contract.
func ControlStream(session string) string { return session + ":control" }

// DisplayStream carries user-facing renderings (§V-B output rendering).
func DisplayStream(session string) string { return session + ":display" }

// OutputStream is an agent's default output stream within a session.
func OutputStream(session, agent string) string { return session + ":" + agent + ":out" }

// Selectors shared by every control subscription of this package (filters
// only read them).
var (
	controlKinds = []streams.Kind{streams.Control}
	instanceOps  = []string{streams.OpExecuteAgent, streams.OpAbort}
	reportOps    = []string{OpAgentDone, OpAgentError}
)

// Options configure a deployed agent.
type Options struct {
	// Workers bounds the invocations one joined session has running at once
	// (default 4); what arrives beyond it waits in that session's queue.
	Workers int
}

// StepTimeout bounds one invocation: the runtime's processor call, and the
// coordinator's wait for a plan step's report.
const StepTimeout = 30 * time.Second

// Errors of Join.
var (
	ErrJoined  = errors.New("agent: session already joined")
	ErrStopped = errors.New("agent: instance stopped")
)

// Instance is one deployed agent: the subscriptions and loop goroutines that
// serve every session it has joined, and a seat for each of those sessions.
type Instance struct {
	agent  *Agent
	store  *streams.Store
	opts   Options
	params []string // the required inputs: the places tokens pair over
	policy TriggerPolicy

	ctrlSub  *streams.Subscription
	dataSub  *streams.Subscription // nil when the agent does not listen
	loopWg   sync.WaitGroup        // control/data loop goroutines
	stopOnce sync.Once

	// joined maps each joined session scope to its seat, nil until the first
	// message is routed for the pair. Join and Leave also file and unfile
	// the subscriptions under mu, so a scope is joined and routed as one.
	mu      sync.Mutex
	joined  map[string]*seat
	stopped bool
}

// seat is what one joined session holds of a deployment, from the first
// message routed for the pair until the session leaves.
type seat struct {
	session string
	control string // ControlStream(session), where the pair's reports go
	nextInv atomic.Int64
	petri   *petriNet // pairs tokens when the agent has two or more required inputs; the data loop's alone

	mu      sync.Mutex
	running int          // invocations in flight, at most Options.Workers
	queue   []Invocation // what arrived with every worker busy, in order
	// live holds the in-flight invocations by id, so an ABORT stops running
	// processor work instead of letting it burn its full timeout.
	live map[string]liveInv
	left bool           // the session has left: nothing more starts
	wg   sync.WaitGroup // workers; no Add once left is set
}

// liveInv is one in-flight invocation: the ask it serves and how to stop it.
type liveInv struct {
	ask    uint64
	cancel context.CancelFunc
}

// Deploy starts an agent's one instance over a store: a subscription to the
// EXECUTE_AGENT and ABORT directives addressed to it, one to the data its
// listen rule designates when it has one, and a loop goroutine on each. That
// is all a deployment owns, whatever the number of sessions it goes on to
// Join, and it receives nothing until the first. A zero opts.Workers takes
// the spec's Deployment.Workers hint, then the default.
func Deploy(store *streams.Store, a *Agent, opts Options) (*Instance, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if opts.Workers <= 0 {
		opts.Workers = a.Spec.Deployment.Workers
	}
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	in := &Instance{
		agent:  a,
		store:  store,
		opts:   opts,
		policy: PolicyFromSpec(a.Spec),
		joined: make(map[string]*seat),
	}
	for _, p := range a.Spec.Inputs {
		if !p.Optional {
			in.params = append(in.params, p.Name)
		}
	}

	// Centralized activation: EXECUTE_AGENT and ABORT directives addressed
	// to us (or to every agent). A joined session's other control traffic —
	// its membership records, the reports of other agents — is not routed
	// here at all.
	in.ctrlSub = store.SubscribeScoped(streams.Filter{
		Kinds: controlKinds,
		Ops:   instanceOps,
		Agent: a.Spec.Name,
	})
	in.loopWg.Add(1)
	go func() {
		defer in.loopWg.Done()
		in.controlLoop()
	}()

	if f, ok := ListenFilter(a.Spec); ok {
		in.dataSub = store.SubscribeScoped(f)
		in.loopWg.Add(1)
		go func() {
			defer in.loopWg.Done()
			in.dataLoop()
		}()
	}
	return in, nil
}

// ListenFilter is the rule of an agent's decentralized activation: the data
// and events carrying a tag its spec designates (§V-B), never its own
// outputs. ok is false for an agent activated centrally only: one with no
// input, or with no inclusion rule and no "listen_all" property.
func ListenFilter(spec registry.AgentSpec) (f streams.Filter, ok bool) {
	listenAll, _ := spec.Properties["listen_all"].(bool)
	if len(spec.Inputs) == 0 || (len(spec.Listen.IncludeTags) == 0 && !listenAll) {
		return f, false
	}
	return streams.Filter{
		Kinds:          []streams.Kind{streams.Data, streams.Event},
		IncludeTags:    spec.Listen.IncludeTags,
		ExcludeTags:    spec.Listen.ExcludeTags,
		ExcludeSenders: []string{spec.Name},
	}, true
}

// Attach is Deploy and Join for an agent that serves one session on a bare
// store: it first creates the session's control and display streams, which
// the runtime writes its reports and renderings to, and the instance it
// returns has joined session; Stop leaves it. A session manager, whose
// sessions own their streams, calls Deploy and Join itself.
func Attach(store *streams.Store, session string, a *Agent, opts Options) (*Instance, error) {
	for _, id := range []string{ControlStream(session), DisplayStream(session)} {
		if _, err := store.EnsureStream(id, streams.StreamInfo{Session: session, Creator: a.Spec.Name}); err != nil {
			return nil, err
		}
	}
	in, err := Deploy(store, a, opts)
	if err != nil {
		return nil, err
	}
	if err := in.Join(session); err != nil {
		in.Stop()
		return nil, err
	}
	return in, nil
}

// Join puts the deployment in a session by routing alone: it files the
// deployment's subscriptions under the session's scope, sub-scopes included.
// It creates no stream and appends nothing — membership is the session's to
// record — and the pair's seat comes into being with the first message
// routed for it. Joining a session twice fails with ErrJoined and changes
// nothing.
func (in *Instance) Join(session string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.stopped {
		return ErrStopped
	}
	if _, ok := in.joined[session]; ok {
		return fmt.Errorf("%w: %s in %s", ErrJoined, in.agent.Spec.Name, session)
	}
	in.ctrlSub.Join(session)
	if in.dataSub != nil {
		in.dataSub.Join(session)
	}
	in.joined[session] = nil
	return nil
}

// Leave takes the deployment out of a session: nothing more is routed to it
// from there, what is still queued for the session — undispatched messages,
// invocations waiting for a worker — is dropped, and the session's in-flight
// invocations are waited for (those of other sessions are not). Leaving a
// session not joined is a no-op.
func (in *Instance) Leave(session string) {
	in.mu.Lock()
	st, ok := in.joined[session]
	if ok {
		delete(in.joined, session)
		in.ctrlSub.Leave(session)
		if in.dataSub != nil {
			in.dataSub.Leave(session)
		}
	}
	in.mu.Unlock()
	if st != nil {
		st.mu.Lock()
		st.left, st.queue = true, nil
		st.mu.Unlock()
		st.wg.Wait()
	}
}

// Stop leaves every joined session, then cancels the subscriptions and waits
// for the loop goroutines: the end of the deployment.
func (in *Instance) Stop() {
	in.stopOnce.Do(func() {
		in.mu.Lock()
		in.stopped = true
		sessions := slices.Collect(maps.Keys(in.joined))
		in.mu.Unlock()
		for _, session := range sessions {
			in.Leave(session)
		}
		if in.dataSub != nil {
			in.dataSub.Cancel()
		}
		in.ctrlSub.Cancel()
		in.loopWg.Wait()
	})
}

// seatFor returns the seat of the innermost joined scope msgSession lies
// within, creating it on the pair's first message, or nil when the session
// has left since the message was routed.
func (in *Instance) seatFor(msgSession string) *seat {
	in.mu.Lock()
	defer in.mu.Unlock()
	scope, ok := streams.InnermostScope(in.joined, msgSession)
	if !ok {
		return nil
	}
	st := in.joined[scope]
	if st == nil {
		st = &seat{session: scope, control: ControlStream(scope)}
		in.joined[scope] = st
	}
	return st
}

// invocationID mints an id for an invocation that came without one.
func (in *Instance) invocationID(st *seat) string {
	return fmt.Sprintf("%s-%d", in.agent.Spec.Name, st.nextInv.Add(1))
}

// controlLoop serves EXECUTE_AGENT directives addressed to this agent and
// ABORT directives cancelling the work of their message's ask, each within
// the joined session it arrived in.
func (in *Instance) controlLoop() {
	for msg := range in.ctrlSub.C() {
		d := msg.Directive
		if d == nil {
			continue
		}
		st := in.seatFor(msg.Session)
		if st == nil {
			continue
		}
		if d.Op == streams.OpAbort && (d.Agent == "" || d.Agent == in.agent.Spec.Name) {
			in.abort(st, d.Invocation, msg.Ask)
			continue
		}
		if d.Op != streams.OpExecuteAgent || d.Agent != in.agent.Spec.Name {
			continue
		}
		invID := d.Invocation
		if invID == "" {
			invID = in.invocationID(st)
		}
		var deadline time.Time
		if d.Deadline != 0 {
			deadline = time.Unix(0, d.Deadline)
		}
		in.dispatch(st, Invocation{
			Session:      msg.Session,
			Inputs:       maps.Clone(d.Inputs), // fillDefaults writes to it
			InvocationID: invID,
			TraceParent:  d.Parent,
			Deadline:     deadline,
			Ask:          msg.Ask,
		})
	}
}

// abort cancels the session's invocations of ask: the one named id, or every
// one when id is empty (an ABORT that names no invocation). An invocation
// of another ask is never touched. One still waiting for a worker never
// starts: it is reported as cancelled, as it would have been had it been
// running.
func (in *Instance) abort(st *seat, id string, ask uint64) {
	hit := func(invID string, invAsk uint64) bool {
		return invAsk == ask && (id == "" || invID == id)
	}
	st.mu.Lock()
	var cancels []context.CancelFunc
	for invID, l := range st.live {
		if hit(invID, l.ask) {
			cancels = append(cancels, l.cancel)
		}
	}
	var dropped []Invocation
	st.queue = slices.DeleteFunc(st.queue, func(inv Invocation) bool {
		if !hit(inv.InvocationID, inv.Ask) {
			return false
		}
		dropped = append(dropped, inv)
		return true
	})
	st.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	for _, inv := range dropped {
		mInvocations.Inc()
		in.report(st, inv, Usage{}, nil, context.Canceled)
	}
}

// dataLoop implements decentralized activation: each matching message is a
// token offered to its place (placeFor). Tokens pair within the joined
// session the message arrived in.
func (in *Instance) dataLoop() {
	for msg := range in.dataSub.C() {
		place := in.placeFor(msg)
		if place == "" {
			continue
		}
		st := in.seatFor(msg.Session)
		if st == nil {
			continue
		}
		// A tuple fires on the token that completes it: this message's.
		for _, inputs := range in.offer(st, place, msg.Payload) {
			in.dispatch(st, Invocation{
				Session:      msg.Session,
				Inputs:       inputs,
				InvocationID: in.invocationID(st),
				Ask:          msg.Ask,
				tagged:       true,
			})
		}
	}
}

// offer deposits a token and returns the input tuples it completes. With one
// required input every token is a tuple; only an agent with more keeps a
// Petri net, one per joined session, from the session's first token.
func (in *Instance) offer(st *seat, place string, tok any) []map[string]any {
	if len(in.params) == 1 {
		return []map[string]any{{place: tok}}
	}
	if st.petri == nil {
		st.petri = newPetriNet(in.params, in.policy)
	}
	return st.petri.offer(place, tok)
}

// placeFor names the required input a message's token goes to: the first of
// its tags that names one — an agent's output carries its parameter's name as
// its first tag — or, for a single-input agent, the sole input. "" drops it.
func (in *Instance) placeFor(msg streams.Message) string {
	for _, t := range msg.Tags {
		if slices.Contains(in.params, t) {
			return t
		}
	}
	if len(in.params) == 1 {
		return in.params[0]
	}
	return ""
}

// dispatch runs the invocation on a worker of the store's pool when the
// session has fewer than Options.Workers running, or queues it behind them:
// the loops never wait, so a session at its bound holds up no other session's
// messages.
func (in *Instance) dispatch(st *seat, inv Invocation) {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch {
	case st.left: // the session left while the message was in hand
	case st.running < in.opts.Workers:
		st.running++
		st.wg.Add(1)
		in.store.Go(func() { in.work(st, inv) })
	default:
		st.queue = append(st.queue, inv)
	}
}

// work runs inv and then whatever queued up meanwhile, oldest first, and
// gives the worker's slot back once the queue is empty.
func (in *Instance) work(st *seat, inv Invocation) {
	defer st.wg.Done()
	for {
		in.run(st, inv)
		st.mu.Lock()
		if len(st.queue) == 0 {
			st.running--
			st.mu.Unlock()
			return
		}
		inv, st.queue = st.queue[0], st.queue[1:]
		st.mu.Unlock()
	}
}

func (in *Instance) run(st *seat, inv Invocation) {
	if inv.Session == "" {
		inv.Session = st.session
	}
	in.fillDefaults(&inv)
	name := in.agent.Spec.Name

	// The processor context is bounded by min(StepTimeout, time until the
	// caller's deadline) on the store's clock: a plan nearly out of latency
	// budget must not have one step run for the full timeout. The cancel
	// func is registered under the invocation ID so ABORT directives stop
	// the work.
	clk := in.store.Clock()
	timeout := StepTimeout
	if !inv.Deadline.IsZero() {
		if rem := clk.Until(inv.Deadline); rem < timeout {
			timeout = rem
		}
	}
	if timeout <= 0 {
		// Dead on arrival: report without invoking the processor.
		mInvocations.Inc()
		in.report(st, inv, Usage{}, nil, context.DeadlineExceeded)
		return
	}
	ctx, cancel := clk.WithTimeout(context.Background(), timeout)
	defer cancel()
	st.mu.Lock()
	if st.live == nil {
		st.live = make(map[string]liveInv)
	}
	st.live[inv.InvocationID] = liveInv{inv.Ask, cancel}
	st.mu.Unlock()
	defer func() {
		st.mu.Lock()
		delete(st.live, inv.InvocationID)
		st.mu.Unlock()
	}()
	// Resume the ask's trace across the stream boundary: under the caller's
	// span when the directive named one as its Parent, else under the ask's
	// root; nothing is traced for a message of no open ask. The span
	// rides ctx so processors that touch the relational engine extend the
	// tree.
	sp := obs.Spans.Resume(inv.Ask, inv.TraceParent, "agent", name)
	sp.SetAttr("invocation", inv.InvocationID)
	ctx = obs.ContextWith(ctx, sp)
	defer sp.End()

	start := clk.Now()
	// Fault-injection hook: when a chaos injector is active the invocation
	// may error, stall, or crash here instead of running the processor.
	var out Outputs
	err := resilience.Check(ctx, clk, resilience.SiteAgent)
	if err == nil {
		out, err = in.agent.Process(ctx, inv)
	}
	elapsed := clk.Since(start)
	mInvocations.Inc()

	if err != nil {
		sp.SetAttr("error", obs.Truncate(err.Error(), 120))
		in.report(st, inv, Usage{}, nil, err)
		return
	}

	// A tag-activated invocation publishes its outputs on the agent's output
	// stream, one message per output parameter tagged first with its name so
	// downstream agents can listen selectively; an executed one gets them in
	// its report.
	var outputs map[string]any
	var stream string
	if inv.tagged {
		stream = OutputStream(st.session, name)
	} else {
		outputs = make(map[string]any, len(out.Values))
	}
	for _, p := range in.agent.Spec.Outputs {
		v, ok := out.Values[p.Name]
		if !ok {
			continue
		}
		if outputs != nil {
			outputs[p.Name] = v
			continue
		}
		_, _ = in.store.Publish(streams.Message{
			Stream: stream, Session: st.session, Kind: streams.Data,
			Sender: name, Tags: append([]string{p.Name}, out.Tags...),
			Payload: v, Ask: inv.Ask,
		})
	}
	if out.Display != "" {
		_, _ = in.store.Append(streams.Message{
			Stream: DisplayStream(st.session), Kind: streams.Data,
			Sender: name, Payload: out.Display, Tags: []string{"display"}, Ask: inv.Ask,
		})
	}
	if inv.tagged {
		return // its outputs are its result: nothing awaits a report
	}
	usage := out.Usage
	if usage == (Usage{}) {
		usage = Usage{Cost: in.agent.Spec.QoS.CostPerCall, Latency: elapsed, Accuracy: in.agent.Spec.QoS.Accuracy}
	}
	in.report(st, inv, usage, outputs, nil)
}

// fillDefaults binds declared defaults for optional parameters left unbound.
func (in *Instance) fillDefaults(inv *Invocation) {
	if inv.Inputs == nil {
		inv.Inputs = map[string]any{}
	}
	for _, p := range in.agent.Spec.Inputs {
		if _, ok := inv.Inputs[p.Name]; !ok && p.Optional && p.Default != nil {
			inv.Inputs[p.Name] = p.Default
		}
	}
}
