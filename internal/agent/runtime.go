package agent

import (
	"context"
	"fmt"
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

// Options configure an agent instance attachment.
type Options struct {
	// Workers is the worker-pool size (default 4).
	Workers int
	// Timeout bounds one processor call (default 30s).
	Timeout time.Duration
	// DisableListen turns off decentralized (tag) activation; the instance
	// then only reacts to EXECUTE_AGENT directives.
	DisableListen bool
}

// Instance is one running agent attached to a session's streams.
type Instance struct {
	agent   *Agent
	store   *streams.Store
	session string
	opts    Options
	petri   *petriNet
	sem     chan struct{}
	wg      sync.WaitGroup // in-flight worker invocations
	loopWg  sync.WaitGroup // control/data loop goroutines
	dataSub *streams.Subscription
	ctrlSub *streams.Subscription

	nextInv  atomic.Int64
	stopOnce sync.Once

	// live tracks the cancel funcs of in-flight invocations so ABORT
	// directives (session-wide, or targeted via an invocation_id arg) stop
	// running processor work instead of letting it burn its full timeout.
	liveMu sync.Mutex
	live   map[string]context.CancelFunc
}

// Attach starts an agent instance in a session: it subscribes to the
// session's streams per the agent's listen rule and to EXECUTE_AGENT
// directives on the control stream, announces ENTER_SESSION, and serves
// until Stop. It ensures the session's control, session and display streams
// exist (so it works on a bare store, without a session manager) and creates
// nothing else: the agent's own output stream comes into being with its
// first output, through Publish. A zero opts.Workers takes the spec's
// Deployment.Workers hint, then the default.
func Attach(store *streams.Store, session string, a *Agent, opts Options) (*Instance, error) {
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
	params := make([]string, 0, len(a.Spec.Inputs))
	for _, p := range a.Spec.Inputs {
		if !p.Optional {
			params = append(params, p.Name)
		}
	}
	inst := &Instance{
		agent:   a,
		store:   store,
		session: session,
		opts:    opts,
		petri:   newPetriNet(params, PolicyFromSpec(a.Spec)),
		sem:     make(chan struct{}, opts.Workers),
		live:    make(map[string]context.CancelFunc),
	}

	for _, id := range []string{ControlStream(session), SessionStream(session), DisplayStream(session)} {
		if _, err := store.EnsureStream(id, streams.StreamInfo{Session: session, Creator: a.Spec.Name}); err != nil {
			return nil, err
		}
	}

	// Announce entry (§V-E).
	if _, err := store.Append(streams.Message{
		Stream: SessionStream(session), Kind: streams.Control, Sender: a.Spec.Name,
		Directive: &streams.Directive{Op: streams.OpEnterSession, Agent: a.Spec.Name},
	}); err != nil {
		return nil, err
	}

	// Centralized activation: EXECUTE_AGENT and ABORT directives addressed
	// to us (or to every agent). The session's other control traffic — entry
	// and exit signals, plans, the reports of other agents — is not routed
	// here at all.
	inst.ctrlSub = store.Subscribe(streams.Filter{
		Session: session,
		Kinds:   controlKinds,
		Ops:     instanceOps,
		Agent:   a.Spec.Name,
	}, false)
	inst.loopWg.Add(1)
	go func() {
		defer inst.loopWg.Done()
		inst.controlLoop()
	}()

	// Decentralized activation requires *designated* tags (§V-B): an agent
	// with no inclusion rule is centrally activated only, unless it opts
	// into listening to everything via the "listen_all" property.
	listenAll := false
	if v, ok := a.Spec.Properties["listen_all"].(bool); ok {
		listenAll = v
	}
	if !opts.DisableListen && len(a.Spec.Inputs) > 0 && (len(a.Spec.Listen.IncludeTags) > 0 || listenAll) {
		inst.dataSub = store.Subscribe(streams.Filter{
			Session:        session,
			Kinds:          []streams.Kind{streams.Data, streams.Event},
			IncludeTags:    a.Spec.Listen.IncludeTags,
			ExcludeTags:    a.Spec.Listen.ExcludeTags,
			ExcludeSenders: []string{a.Spec.Name},
		}, false)
		inst.loopWg.Add(1)
		go func() {
			defer inst.loopWg.Done()
			inst.dataLoop()
		}()
	}
	return inst, nil
}

// Stop announces EXIT_SESSION, cancels subscriptions and waits for in-flight
// workers.
func (in *Instance) Stop() {
	in.stopOnce.Do(func() {
		if in.dataSub != nil {
			in.dataSub.Cancel()
		}
		in.ctrlSub.Cancel()
		// Wait for the loop goroutines first: they are the only dispatchers,
		// so once they exit no new wg.Add can race with wg.Wait below.
		in.loopWg.Wait()
		in.wg.Wait()
		// Best-effort exit signal; the store may already be closed.
		_, _ = in.store.Append(streams.Message{
			Stream: SessionStream(in.session), Kind: streams.Control, Sender: in.agent.Spec.Name,
			Directive: &streams.Directive{Op: streams.OpExitSession, Agent: in.agent.Spec.Name},
		})
	})
}

// controlLoop serves EXECUTE_AGENT directives addressed to this agent and
// ABORT directives cancelling in-flight work.
func (in *Instance) controlLoop() {
	for msg := range in.ctrlSub.C() {
		d := msg.Directive
		if d == nil {
			continue
		}
		if d.Op == streams.OpAbort && (d.Agent == "" || d.Agent == in.agent.Spec.Name) {
			// Targeted abort (invocation_id arg) cancels one invocation;
			// a bare abort cancels everything in flight.
			if id, _ := d.Args["invocation_id"].(string); id != "" {
				in.cancelInvocation(id)
			} else {
				in.cancelAll()
			}
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
			invID = fmt.Sprintf("%s-%d", in.agent.Spec.Name, in.nextInv.Add(1))
		}
		var deadline time.Time
		if ms, ok := d.Args["deadline_ms"].(float64); ok && ms > 0 {
			deadline = time.UnixMilli(int64(ms))
		}
		in.dispatch(Invocation{
			Session:      msg.Session,
			Inputs:       inputs,
			ReplyStream:  reply,
			InvocationID: invID,
			TraceParent:  traceParent,
			Deadline:     deadline,
		})
	}
}

// cancelInvocation cancels one in-flight invocation by ID (no-op when it is
// not running here).
func (in *Instance) cancelInvocation(id string) {
	in.liveMu.Lock()
	cancel := in.live[id]
	in.liveMu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// cancelAll cancels every in-flight invocation on this instance.
func (in *Instance) cancelAll() {
	in.liveMu.Lock()
	cancels := make([]context.CancelFunc, 0, len(in.live))
	for _, c := range in.live {
		cancels = append(cancels, c)
	}
	in.liveMu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// dataLoop implements decentralized activation: each matching message is a
// token offered to the PetriNet place named by the message's Param, a tag
// matching an input name, or — for single-input agents — the sole input.
func (in *Instance) dataLoop() {
	for msg := range in.dataSub.C() {
		place := in.placeFor(msg)
		if place == "" {
			continue
		}
		for _, inputs := range in.petri.offer(place, msg.Payload) {
			in.dispatch(Invocation{
				Session:      msg.Session,
				Inputs:       inputs,
				InvocationID: fmt.Sprintf("%s-%d", in.agent.Spec.Name, in.nextInv.Add(1)),
			})
		}
	}
}

func (in *Instance) placeFor(msg streams.Message) string {
	required := in.petri.params
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

// dispatch runs the invocation on the worker pool.
func (in *Instance) dispatch(inv Invocation) {
	in.sem <- struct{}{}
	in.wg.Add(1)
	go func() {
		defer func() {
			<-in.sem
			in.wg.Done()
		}()
		in.run(inv)
	}()
}

func (in *Instance) run(inv Invocation) {
	if inv.Session == "" {
		inv.Session = in.session
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
		in.reportError(inv.InvocationID, context.DeadlineExceeded)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if inv.InvocationID != "" {
		in.liveMu.Lock()
		in.live[inv.InvocationID] = cancel
		in.liveMu.Unlock()
		defer func() {
			in.liveMu.Lock()
			delete(in.live, inv.InvocationID)
			in.liveMu.Unlock()
		}()
	}
	// Resume the caller's trace across the stream boundary (centralized
	// activation carries a trace_parent token); tag-triggered activations
	// anchor beneath the session's active root, or trace nothing when no
	// ask is in flight. The span rides ctx so processors that touch the
	// relational engine extend the tree.
	sp := obs.Spans.Resume(in.session, inv.TraceParent, "agent", name)
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
		in.reportError(inv.InvocationID, err)
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
		outStream = OutputStream(in.session, name)
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
			Payload: v,
		})
	}
	if out.Display != "" {
		_, _ = in.store.Append(streams.Message{
			Stream: DisplayStream(in.session), Session: inv.Session, Kind: streams.Data,
			Sender: name, Payload: out.Display, Tags: []string{"display"},
		})
	}
	_, _ = in.store.Append(streams.Message{
		Stream: ControlStream(in.session), Kind: streams.Control, Sender: name,
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
func (in *Instance) reportError(invocationID string, err error) {
	mInvErrors.Inc()
	name := in.agent.Spec.Name
	_, _ = in.store.Append(streams.Message{
		Stream: ControlStream(in.session), Kind: streams.Control, Sender: name,
		Directive: &streams.Directive{Op: OpAgentError, Agent: name, Args: map[string]any{
			"invocation_id": invocationID,
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
