package agent

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blueprint/internal/obs"
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

// SessionStream carries agent entry/exit signals and session directives.
func SessionStream(session string) string { return session + ":session" }

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
	// Timeout bounds one processor call (default 30s).
	Timeout time.Duration
	// DisableListen turns off decentralized (tag) activation; the instance
	// then only reacts to EXECUTE_AGENT directives.
	DisableListen bool
}

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
	nextInv atomic.Int64
	petri   *petriNet // pairs tokens when the agent has two or more required inputs; the data loop's alone

	mu      sync.Mutex
	running int          // invocations in flight, at most Options.Workers
	queue   []Invocation // what arrived with every worker busy, in order
	// live tracks the cancel funcs of in-flight invocations so ABORT
	// directives (session-wide, or targeted via an invocation_id arg) stop
	// running processor work instead of letting it burn its full timeout.
	live map[string]context.CancelFunc
	left bool           // the session has left: nothing more starts
	wg   sync.WaitGroup // workers; no Add once left is set
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
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
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
	// entry and exit signals, plans, the reports of other agents — is not
	// routed here at all.
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

	// Decentralized activation requires *designated* tags (§V-B): an agent
	// with no inclusion rule is centrally activated only, unless it opts
	// into listening to everything via the "listen_all" property.
	listenAll, _ := a.Spec.Properties["listen_all"].(bool)
	if !opts.DisableListen && len(a.Spec.Inputs) > 0 && (len(a.Spec.Listen.IncludeTags) > 0 || listenAll) {
		in.dataSub = store.SubscribeScoped(streams.Filter{
			Kinds:          []streams.Kind{streams.Data, streams.Event},
			IncludeTags:    a.Spec.Listen.IncludeTags,
			ExcludeTags:    a.Spec.Listen.ExcludeTags,
			ExcludeSenders: []string{a.Spec.Name},
		})
		in.loopWg.Add(1)
		go func() {
			defer in.loopWg.Done()
			in.dataLoop()
		}()
	}
	return in, nil
}

// Attach is Deploy and Join for an agent that serves one session: the
// instance it returns has joined session, and Stop leaves it. A session
// manager that places one deployment in many sessions calls the two itself.
func Attach(store *streams.Store, session string, a *Agent, opts Options) (*Instance, error) {
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

// Join puts the deployment in a session: it ensures the session's control,
// session and display streams exist (so it works on a bare store, without a
// session manager), announces ENTER_SESSION (§V-E) and files the deployment's
// subscriptions under the session's scope, sub-scopes included. It creates
// nothing else: the agent's output stream in the session comes into being
// with its first output there, through Publish, and the pair's seat with the
// first message routed for it. Joining a session twice fails with ErrJoined
// and changes nothing.
func (in *Instance) Join(session string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.stopped {
		return ErrStopped
	}
	if _, ok := in.joined[session]; ok {
		return fmt.Errorf("%w: %s in %s", ErrJoined, in.agent.Spec.Name, session)
	}
	name := in.agent.Spec.Name
	for _, id := range []string{ControlStream(session), SessionStream(session), DisplayStream(session)} {
		if _, err := in.store.EnsureStream(id, streams.StreamInfo{Session: session, Creator: name}); err != nil {
			return err
		}
	}
	if _, err := in.store.Append(streams.Message{
		Stream: SessionStream(session), Kind: streams.Control, Sender: name,
		Directive: &streams.Directive{Op: streams.OpEnterSession, Agent: name},
	}); err != nil {
		return err
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
// invocations waiting for a worker — is dropped, the session's in-flight
// invocations are waited for (those of other sessions are not), and
// EXIT_SESSION is announced. Leaving a session not joined is a no-op.
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
	if !ok {
		return
	}
	if st != nil {
		st.mu.Lock()
		st.left, st.queue = true, nil
		st.mu.Unlock()
		st.wg.Wait()
	}
	// Best-effort exit signal; the store may already be closed.
	name := in.agent.Spec.Name
	_, _ = in.store.Append(streams.Message{
		Stream: SessionStream(session), Kind: streams.Control, Sender: name,
		Directive: &streams.Directive{Op: streams.OpExitSession, Agent: name},
	})
}

// Stop leaves every joined session, then cancels the subscriptions and waits
// for the loop goroutines: the end of the deployment.
func (in *Instance) Stop() {
	in.stopOnce.Do(func() {
		in.mu.Lock()
		in.stopped = true
		sessions := make([]string, 0, len(in.joined))
		for session := range in.joined {
			sessions = append(sessions, session)
		}
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
	for scope := msgSession; ; {
		if st, ok := in.joined[scope]; ok {
			if st == nil {
				st = &seat{session: scope}
				in.joined[scope] = st
			}
			return st
		}
		i := strings.LastIndexByte(scope, ':')
		if i < 0 {
			return nil
		}
		scope = scope[:i]
	}
}

// invocationID mints an id for an invocation that came without one.
func (in *Instance) invocationID(st *seat) string {
	return fmt.Sprintf("%s-%d", in.agent.Spec.Name, st.nextInv.Add(1))
}

// controlLoop serves EXECUTE_AGENT directives addressed to this agent and
// ABORT directives cancelling in-flight work, each within the joined session
// it arrived in.
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
			// Targeted abort (invocation_id arg) cancels one invocation;
			// a bare abort cancels everything the session has in flight.
			id, _ := d.Args["invocation_id"].(string)
			in.abort(st, id)
			continue
		}
		if d.Op != streams.OpExecuteAgent || d.Agent != in.agent.Spec.Name {
			continue
		}
		inputs := map[string]any{}
		if raw, ok := d.Args["inputs"].(map[string]any); ok {
			for k, v := range raw {
				inputs[k] = v
			}
		}
		reply, _ := d.Args["reply_stream"].(string)
		invID, _ := d.Args["invocation_id"].(string)
		traceParent, _ := d.Args["trace_parent"].(string)
		if invID == "" {
			invID = in.invocationID(st)
		}
		var deadline time.Time
		if ms, ok := d.Args["deadline_ms"].(float64); ok && ms > 0 {
			deadline = time.UnixMilli(int64(ms))
		}
		in.dispatch(st, Invocation{
			Session:      msg.Session,
			Inputs:       inputs,
			ReplyStream:  reply,
			InvocationID: invID,
			TraceParent:  traceParent,
			Deadline:     deadline,
			Ask:          msg.Ask,
		})
	}
}

// abort cancels the session's in-flight invocation id, or all of them when
// id is empty. An invocation still waiting for a worker never starts: it is
// reported as cancelled, as it would have been had it been running.
func (in *Instance) abort(st *seat, id string) {
	st.mu.Lock()
	var cancels []context.CancelFunc
	var dropped []Invocation
	if id == "" {
		for _, c := range st.live {
			cancels = append(cancels, c)
		}
		dropped, st.queue = st.queue, nil
	} else {
		if c := st.live[id]; c != nil {
			cancels = append(cancels, c)
		}
		st.queue = slices.DeleteFunc(st.queue, func(inv Invocation) bool {
			if inv.InvocationID != id {
				return false
			}
			dropped = append(dropped, inv)
			return true
		})
	}
	st.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	for _, inv := range dropped {
		mInvocations.Inc()
		in.reportError(st.session, inv, context.Canceled)
	}
}

// dataLoop implements decentralized activation: each matching message is a
// token offered to the place named by the message's Param, a tag matching an
// input name, or — for single-input agents — the sole input. Tokens pair
// within the joined session the message arrived in.
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

func (in *Instance) placeFor(msg streams.Message) string {
	required := in.params
	if msg.Param != "" {
		for _, p := range required {
			if p == msg.Param {
				return p
			}
		}
	}
	for _, p := range required {
		if msg.HasTag(p) {
			return p
		}
	}
	if len(required) == 1 {
		return required[0]
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

	// The processor context is bounded by min(instance timeout, time until
	// the caller's deadline): a plan nearly out of latency budget must not
	// have one step run for the full default timeout. The cancel func is
	// registered under the invocation ID so ABORT directives stop the work.
	timeout := in.opts.Timeout
	if !inv.Deadline.IsZero() {
		if rem := time.Until(inv.Deadline); rem < timeout {
			timeout = rem
		}
	}
	if timeout <= 0 {
		// Dead on arrival: report without invoking the processor.
		mInvocations.Inc()
		in.reportError(st.session, inv, context.DeadlineExceeded)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if inv.InvocationID != "" {
		st.mu.Lock()
		if st.live == nil {
			st.live = make(map[string]context.CancelFunc)
		}
		st.live[inv.InvocationID] = cancel
		st.mu.Unlock()
		defer func() {
			st.mu.Lock()
			delete(st.live, inv.InvocationID)
			st.mu.Unlock()
		}()
	}
	// Resume the ask's trace across the stream boundary: under the caller's
	// span when the directive carried a trace_parent token, else under the
	// ask's root; nothing is traced for a message of no open ask. The span
	// rides ctx so processors that touch the relational engine extend the
	// tree.
	sp := obs.Spans.Resume(inv.Ask, inv.TraceParent, "agent", name)
	sp.SetAttr("invocation", inv.InvocationID)
	ctx = obs.ContextWith(ctx, sp)
	defer sp.End()

	start := time.Now()
	// Fault-injection hook: when a chaos injector is active the invocation
	// may error, stall, or crash here instead of running the processor.
	var out Outputs
	err := resilience.Check(ctx, resilience.SiteAgent)
	if err == nil {
		out, err = in.agent.Process(ctx, inv)
	}
	elapsed := time.Since(start)
	mInvocations.Inc()

	if err != nil {
		sp.SetAttr("error", obs.Truncate(err.Error(), 120))
		in.reportError(st.session, inv, err)
		return
	}

	usage := out.Usage
	if usage == (Usage{}) {
		usage = Usage{
			Cost:     in.agent.Spec.QoS.CostPerCall,
			Latency:  elapsed,
			Accuracy: in.agent.Spec.QoS.Accuracy,
		}
	}

	// Publish outputs: one message per output parameter, tagged with the
	// parameter name so downstream agents can listen selectively.
	outStream := inv.ReplyStream
	if outStream == "" {
		outStream = OutputStream(st.session, name)
	}
	for _, p := range in.agent.Spec.Outputs {
		v, ok := out.Values[p.Name]
		if !ok {
			continue
		}
		_, _ = in.store.Publish(streams.Message{
			Stream: outStream, Session: inv.Session, Kind: streams.Data,
			Sender: name, Param: p.Name,
			Tags:    append([]string{p.Name}, out.Tags...),
			Payload: v, Ask: inv.Ask,
		})
	}
	if out.Display != "" {
		_, _ = in.store.Append(streams.Message{
			Stream: DisplayStream(st.session), Session: inv.Session, Kind: streams.Data,
			Sender: name, Payload: out.Display, Tags: []string{"display"}, Ask: inv.Ask,
		})
	}
	_, _ = in.store.Append(streams.Message{
		Stream: ControlStream(st.session), Kind: streams.Control, Sender: name, Ask: inv.Ask,
		Directive: &streams.Directive{Op: OpAgentDone, Agent: name, Args: map[string]any{
			"invocation_id": inv.InvocationID,
			"cost":          usage.Cost,
			"latency_ms":    float64(usage.Latency) / float64(time.Millisecond),
			"accuracy":      usage.Accuracy,
			"reply_stream":  outStream,
		}},
	})
}

// reportError counts a failed invocation and reports it to the coordinator
// as an AGENT_ERROR on the session's control stream.
func (in *Instance) reportError(session string, inv Invocation, err error) {
	mInvErrors.Inc()
	name := in.agent.Spec.Name
	_, _ = in.store.Append(streams.Message{
		Stream: ControlStream(session), Kind: streams.Control, Sender: name, Ask: inv.Ask,
		Directive: &streams.Directive{Op: OpAgentError, Agent: name, Args: map[string]any{
			"invocation_id": inv.InvocationID,
			"error":         err.Error(),
		}},
	})
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
