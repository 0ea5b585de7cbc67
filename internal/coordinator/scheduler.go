package coordinator

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"blueprint/internal/budget"
	"blueprint/internal/memo"
	"blueprint/internal/obs"
	"blueprint/internal/planner"
	"blueprint/internal/registry"
	"blueprint/internal/resilience"
)

// DefaultMaxParallel bounds how many of a plan's steps execute at once when
// Options does not set one.
const DefaultMaxParallel = 8

// errReplanned marks a memoized-step execution whose replan retry executed
// a different agent than the one the memo key names; the result is returned
// to the leader but never cached or shared.
var errReplanned = errors.New("coordinator: step replanned to an alternative agent; result not memoizable under the original key")

// errDegraded marks a memoized-step execution that was answered from a stale
// entry (breaker open): the leader keeps its degraded success, but the stale
// value must not be re-cached as fresh (that would reset its age), so
// waiters re-execute — and typically degrade the same way.
var errDegraded = errors.New("coordinator: step served degraded from a stale entry; not re-cacheable")

// scheduler executes one plan as a dependency-driven DAG: it takes the plan's
// graph from ExecutePlan (planner.Graph, the value the projection walked),
// runs every step whose dependencies are satisfied — one on the plan's own
// goroutine, the others on the store's pool (streams.Store.Go), at most
// MaxParallel at once counting the plan's own — merges step outputs under a
// lock, and admits each step through the
// budget's atomic Reserve/Commit path so concurrently executing steps cannot
// jointly overshoot the cost limit; latency is enforced against the critical
// path of actual step latencies (each commit charges only the critical
// path's growth), matching the optimizer's projection in the same units.
// The first failure or budget abort cancels the shared context, which
// unblocks in-flight steps; ready steps not yet started are skipped.
type scheduler struct {
	c       *Coordinator
	session string
	ask     uint64 // the ask the plan runs for; every message it writes carries it
	plan    *planner.Plan
	graph   planner.Graph // the plan's dependency DAG, as projected
	budget  *budget.Budget
	res     *Result

	ctx    context.Context
	cancel context.CancelFunc

	mu             sync.Mutex
	outputs        map[string]map[string]any // completed step outputs by step ID
	results        map[string]StepResult     // recorded step results by step ID
	failErr        error                     // first failure; nil while healthy
	simFinish      map[string]time.Duration  // per-step critical-path finish time
	chargedLatency time.Duration             // critical-path latency charged so far
}

// stepIdentity is what the scheduler needs to know about a ready step's
// agent: the cut of its registry entry that prices the step's admission and
// commit and bounds its freshness — read once, by runStep — and, for
// a Cacheable agent with a memo store configured, the memo key runStep adds
// from the resolved inputs. It is handed by value through the step's life;
// only a replan looks an agent up again: the alternative's.
type stepIdentity struct {
	known     bool                // the agent is registered; the fields below are its entry's
	name      string              // registry name
	version   int                 // registry version, part of the memo key
	cacheable bool                // results are a function of inputs and reads
	reads     []string            // data assets whose updates invalidate its results
	qos       registry.QoSProfile // projected cost, accuracy, freshness
	key       memo.Key            // valid when keyed
	keyed     bool                // the step's result lives in the memo store under key
}

// identify reads the agent's registry entry into a stepIdentity without a key;
// an unregistered agent is the zero identity.
func (s *scheduler) identify(agentName string) stepIdentity {
	spec, err := s.c.reg.Get(agentName)
	if err != nil {
		return stepIdentity{}
	}
	return stepIdentity{known: true, name: spec.Name, version: spec.Version,
		cacheable: spec.Cacheable, reads: spec.Reads, qos: spec.QoS}
}

// stepOutcome is one worker's report back to the scheduling loop.
type stepOutcome struct {
	stepID string
	ran    bool // false when the step was skipped (cancelled before start)
	err    error
}

func newScheduler(c *Coordinator, session string, ask uint64, p *planner.Plan, g planner.Graph, b *budget.Budget, res *Result, span *obs.Span) *scheduler {
	ctx, cancel := context.WithCancel(context.Background())
	// The plan span rides the scheduler context so step spans parent to it.
	ctx = obs.ContextWith(ctx, span)
	return &scheduler{
		c: c, session: session, ask: ask, plan: p, graph: g, budget: b, res: res,
		ctx: ctx, cancel: cancel,
		outputs:   map[string]map[string]any{},
		results:   map[string]StepResult{},
		simFinish: map[string]time.Duration{},
	}
}

// run executes the plan to completion (or first failure) and assembles the
// result. It always leaves res.Steps in plan order regardless of the actual
// completion order. The plan's goroutine runs one ready step itself and hands
// the others to the store's pool, with at most MaxParallel in flight counting
// its own: a one-step plan, or any plan under MaxParallel 1, runs on the
// plan's goroutine alone and makes no channel.
func (s *scheduler) run() error {
	defer s.cancel()
	steps := s.plan.Steps
	waiting := make(map[string]int, len(s.graph.Deps)) // dependencies a step still waits for
	for id, ds := range s.graph.Deps {
		waiting[id] = len(ds)
	}
	parallel := s.c.opts.MaxParallel
	if parallel <= 0 {
		parallel = DefaultMaxParallel
	}

	wave := s.graph.Waves[0]
	ready := wave[:len(wave):len(wave)] // the initial wave, in plan order; appending copies it
	var done chan stepOutcome           // made with the first hand-off
	handedOff := 0                      // steps handed to the pool whose outcome is not taken yet
	stopped := false
	for len(ready) > 0 || handedOff > 0 {
		for len(ready) > 1 && handedOff+1 < parallel {
			if done == nil {
				done = make(chan stepOutcome, len(steps)) // one send per step at most
			}
			id := ready[0]
			ready = ready[1:]
			handedOff++
			s.c.store.Go(func() { done <- s.step(id) })
		}
		var oc stepOutcome
		if len(ready) > 0 {
			oc = s.step(ready[0])
			ready = ready[1:]
		} else {
			oc = <-done
			handedOff--
		}
		if oc.err != nil {
			stopped = true // failure already recorded; drain in-flight work
		}
		if stopped || !oc.ran {
			continue
		}
		for _, child := range s.graph.Children[oc.stepID] {
			waiting[child]--
			if waiting[child] == 0 {
				ready = append(ready, child)
			}
		}
	}

	// Assemble results in plan order; Final is the last completed step's
	// outputs, matching the sequential contract.
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range steps {
		sr, ok := s.results[st.ID]
		if !ok {
			continue
		}
		s.res.Steps = append(s.res.Steps, sr)
		if sr.Err == "" {
			s.res.Final = sr.Outputs
		}
	}
	return s.failErr
}

// step runs the ready step id to its outcome, on whichever goroutine calls it.
func (s *scheduler) step(id string) stepOutcome {
	st, _ := s.plan.Step(id)
	mBusyWorkers.Add(1)
	oc := s.runStep(st)
	mBusyWorkers.Add(-1)
	return oc
}

// runStep executes one plan step end to end: input resolution
// (planner.Plan.Resolve over the completed steps' outputs), the registry entry
// and, for a memoizable step, the memo key that complete the step's identity,
// then either the memoized path or the fresh path — budget admission
// (Reserve), agent execution with one optional replan retry, and the Commit of
// actuals. Policy decisions on violations happen inline; the scheduling loop
// only learns success or failure.
func (s *scheduler) runStep(step planner.Step) stepOutcome {
	if s.ctx.Err() != nil {
		return stepOutcome{stepID: step.ID, ran: false}
	}
	mSteps.Inc()
	ctx, sp := obs.StartSpan(s.ctx, "scheduler", "step:"+step.ID)
	sp.SetAttr("agent", step.Agent)
	defer sp.End()
	clk := s.c.store.Clock()
	start := clk.Now()
	defer func() { mStepLatency.Observe(clk.Since(start).Seconds()) }()

	inputs, err := s.plan.Resolve(step, s.output, s.c.transformer(s.budget))
	if err != nil {
		err = fmt.Errorf("%w: %s: %v", ErrStepFailed, step.ID, err)
		s.fail(err)
		return stepOutcome{stepID: step.ID, err: err}
	}
	id := s.identify(step.Agent)
	if id.cacheable && s.c.opts.Memo != nil {
		if key, err := memo.ComputeKey(id.name, id.version, inputs); err == nil {
			id.key, id.keyed = key, true
			return s.runMemoized(ctx, step, id, inputs)
		}
	}
	return s.runFresh(ctx, step, id, inputs)
}

// output reports a completed step's outputs: what Resolve binds a downstream
// input to. Per-step maps are written once, at completion, and never mutated.
func (s *scheduler) output(step string) (map[string]any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out, ok := s.outputs[step]
	return out, ok
}

// runMemoized satisfies the step from the memoization store when possible:
// a resident entry is a hit (zero cost, zero marginal critical-path
// latency); otherwise the step executes under single-flight deduplication,
// so concurrent identical steps — including ones from other plans and
// sessions sharing this Coordinator — run once and share the result. The
// leader runs the full fresh path (admission, execution, commit) so its
// plan is charged normally; only the winners' waiters ride free.
func (s *scheduler) runMemoized(ctx context.Context, step planner.Step, id stepIdentity, inputs map[string]any) stepOutcome {
	// The memo span covers the whole Do (for a leader that includes the
	// fresh execution it led); the agent execution itself is a sibling child
	// of the step span, so hit/coalesced trees show a bare memo/lookup and
	// miss trees show lookup + execution side by side.
	_, msp := obs.StartSpan(ctx, "memo", "lookup")
	msp.SetAttr("agent", id.name)
	var leaderOC stepOutcome
	led := false
	entry, outcome, err := s.c.opts.Memo.Do(s.ctx, id.key, id.name, id.reads, id.qos.Freshness, func() (memo.Entry, error) {
		led = true
		leaderOC = s.runFresh(ctx, step, id, inputs)
		if leaderOC.err != nil || !leaderOC.ran {
			e := leaderOC.err
			if e == nil {
				e = context.Canceled
			}
			return memo.Entry{}, e
		}
		s.mu.Lock()
		sr := s.results[step.ID]
		s.mu.Unlock()
		if sr.Agent != id.name {
			// A replan retry swapped in an alternative agent: its result
			// must not be cached under the original agent's key (wrong
			// invalidation attribution — Reads, version — and wrong QoS
			// accuracy on later hits). The leader keeps its success;
			// waiters re-execute.
			return memo.Entry{}, errReplanned
		}
		if sr.Degraded {
			return memo.Entry{}, errDegraded
		}
		return memo.Entry{Outputs: sr.Outputs, Cost: sr.Cost, Latency: sr.Latency}, nil
	})
	msp.SetAttr("outcome", outcome.String())
	msp.End()
	if outcome != memo.Miss {
		mStepsCached.Inc()
	}
	if led {
		// This goroutine executed (and already recorded) the step itself.
		return leaderOC
	}
	if err != nil {
		// Cancelled while awaiting an identical in-flight execution
		// (plan-level abort or failure elsewhere).
		s.record(StepResult{StepID: step.ID, Agent: step.Agent, Err: "cancelled"})
		ferr := s.firstFailure(fmt.Errorf("%w: %s (%s): %v", ErrStepFailed, step.ID, step.Agent, err))
		return stepOutcome{stepID: step.ID, ran: true, err: ferr}
	}
	// Hit or coalesced share, handled identically.
	sr := StepResult{StepID: step.ID, Agent: step.Agent, Outputs: entry.Outputs, Cached: true}
	return s.satisfy(sr, step.ID+":"+step.Agent, id.qos.Accuracy)
}

// satisfy completes a step without executing it — a memo hit, a coalesced
// share of an identical in-flight execution, or a degraded serve of a stale
// entry; sr says which. The step is charged zero cost and zero marginal
// critical-path latency (it finishes "instantly" after its dependencies),
// and accuracy keeps the plan's estimate honest with the profile of the
// agent that produced the entry.
func (s *scheduler) satisfy(sr StepResult, label string, accuracy float64) stepOutcome {
	vs := s.budget.ChargeMemoHit(label, accuracy)
	s.mu.Lock()
	s.simFinish[sr.StepID] = s.graph.ReadyAt(sr.StepID, s.simFinish) // nothing added to the critical path
	s.results[sr.StepID] = sr
	s.res.Degraded = s.res.Degraded || sr.Degraded
	s.mu.Unlock()
	if len(vs) > 0 && !s.confirmViolations(vs) {
		return stepOutcome{stepID: sr.StepID, ran: true, err: s.abort(vs[0].String())}
	}
	s.mu.Lock()
	s.outputs[sr.StepID] = sr.Outputs
	s.mu.Unlock()
	return stepOutcome{stepID: sr.StepID, ran: true}
}

// runFresh executes the step for real: circuit-breaker consult, budget
// admission, agent execution under the retry policy, with a degraded
// stale-memo serve or one replan fallback when the breaker rejects or the
// retries are exhausted, and the Commit of actuals.
func (s *scheduler) runFresh(ctx context.Context, step planner.Step, id stepIdentity, inputs map[string]any) stepOutcome {
	// Circuit breaker: an open breaker rejects the dispatch outright. The
	// step is then answered from a stale memo entry when the degradation
	// policy tolerates its age, or falls through (execErr set, nothing
	// reserved or executed) to the replan fallback below — routing around
	// the broken agent instead of hammering it.
	if !s.c.opts.Breakers.Allow(step.Agent) {
		if oc, ok := s.serveStale(step, id); ok {
			return oc
		}
		sr := StepResult{StepID: step.ID, Agent: step.Agent, Err: resilience.ErrBreakerOpen.Error()}
		execErr := fmt.Errorf("%s: %w", step.Agent, resilience.ErrBreakerOpen)
		return s.replanOrFail(ctx, step, id, inputs, nil, false, sr, execErr)
	}

	rsv, confirmed, err := s.admit(step.ID+":"+step.Agent, id)
	if err != nil {
		s.c.opts.Breakers.Forgo(step.Agent) // the dispatch Allow admitted is not made
		return stepOutcome{stepID: step.ID, err: err}
	}
	sr, execErr := s.executeAttempts(ctx, step, inputs)
	return s.replanOrFail(ctx, step, id, inputs, rsv, confirmed, sr, execErr)
}

// admit reserves the agent's projected cost (from its registry profile) so
// parallel steps cannot jointly overshoot the cost limit. Latency is
// deliberately NOT reserved per step — concurrent steps overlap in time, so
// summing their projected latencies would falsely reject parallel plans the
// critical-path projection already admitted; latency is enforced at commit
// time against the critical path of actual step latencies. A reservation
// that does not fit goes to the violation policy: refused, the plan aborts
// (err); confirmed, the step executes without a reservation, its actuals are
// charged (and recorded as violations) on completion, and the commit-stage
// violations it already confirmed do not prompt again. Steps of unknown
// agents (no QoS profile) skip the reservation and fail in executeStep.
func (s *scheduler) admit(label string, id stepIdentity) (rsv *budget.Reservation, confirmed bool, err error) {
	if !id.known {
		return nil, false, nil
	}
	rsv, vs := s.budget.Reserve(label, id.qos.CostPerCall, 0)
	if len(vs) > 0 {
		if !s.confirmViolations(vs) {
			return nil, false, s.abort(vs[0].String())
		}
		confirmed = true
	}
	return rsv, confirmed, nil
}

// executeAttempts runs one step under the retry policy: transient failures
// retry against the same agent with exponential backoff, each backoff
// charged to the plan's latency budget (a plan pays for its own waiting and
// therefore never retries itself past its SLO) and slept on the clock. Every
// attempt's outcome feeds the agent's breaker; retries stop when the error is
// not transient, the attempts are spent, the breaker trips, the budget has no
// headroom for the backoff, or the plan is cancelled. A retry the breaker
// admitted and that is not made is given back to it.
func (s *scheduler) executeAttempts(ctx context.Context, step planner.Step, inputs map[string]any) (StepResult, error) {
	for attempt := 1; ; attempt++ {
		sr, err := s.attempt(ctx, step, inputs)
		if err == nil || !resilience.Retryable(err) || s.ctx.Err() != nil {
			return sr, err
		}
		backoff, again := resilience.Backoff(attempt)
		// This failure may have tripped the breaker; the next attempt needs
		// its admission like any other dispatch.
		if !again || !s.c.opts.Breakers.Allow(step.Agent) {
			return sr, err
		}
		if lim := s.budget.Limits(); lim.MaxLatency > 0 {
			if _, rem := s.budget.Remaining(); backoff > rem {
				// No latency headroom left to back off in; retrying would
				// bust the SLO the budget protects.
				s.c.opts.Breakers.Forgo(step.Agent)
				return sr, err
			}
		}
		s.budget.ChargeRetryBackoff(step.ID+":"+step.Agent, backoff)
		if !s.c.store.Clock().Sleep(s.ctx, backoff) {
			s.c.opts.Breakers.Forgo(step.Agent)
			return sr, err
		}
		mStepRetries.Inc()
		s.mu.Lock()
		s.res.Retries++
		s.mu.Unlock()
		s.event(obs.LevelInfo, "retry",
			obs.Attr{Key: "step", Value: step.ID},
			obs.Attr{Key: "agent", Value: step.Agent},
			obs.Attr{Key: "attempt", Value: strconv.Itoa(attempt)},
			obs.Attr{Key: "backoff", Value: backoff.String()},
			obs.Attr{Key: "error", Value: obs.Truncate(err.Error(), 120)})
	}
}

// attempt executes the step once and feeds the outcome to the agent's
// breaker and its SLO series.
func (s *scheduler) attempt(ctx context.Context, step planner.Step, inputs map[string]any) (StepResult, error) {
	clk := s.c.store.Clock()
	start := clk.Now()
	sr, err := s.executeStep(ctx, step, inputs, s.c.stepDeadline(s.budget))
	s.c.opts.Breakers.Record(step.Agent, err == nil)
	s.c.opts.SLO.Record(obs.SLOAgent, step.Agent, clk.Since(start), err != nil)
	return sr, err
}

// serveStale answers a breaker-rejected step from a stale memo entry when
// the step is keyed (a cacheable agent, a memo store), an entry is resident,
// and resilience.ServeStale tolerates its age under the agent's declared
// freshness. The serve is charged like a memo hit (zero cost, zero
// marginal critical-path latency) and marked Degraded with its staleness.
func (s *scheduler) serveStale(step planner.Step, id stepIdentity) (stepOutcome, bool) {
	if !id.keyed {
		return stepOutcome{}, false
	}
	entry, age, ok := s.c.opts.Memo.GetStale(id.key)
	if !ok || !resilience.ServeStale(id.qos.Freshness, age) {
		return stepOutcome{}, false
	}
	mStepsStale.Inc()
	s.event(obs.LevelWarn, "degraded-serve",
		obs.Attr{Key: "step", Value: step.ID},
		obs.Attr{Key: "agent", Value: step.Agent},
		obs.Attr{Key: "stale_for", Value: age.String()})
	sr := StepResult{StepID: step.ID, Agent: step.Agent, Outputs: entry.Outputs, Cached: true, Degraded: true, StaleFor: age}
	return s.satisfy(sr, step.ID+":"+step.Agent+":stale", id.qos.Accuracy), true
}

// replanOrFail finishes a step after its execution attempts: on failure it
// applies the one replan fallback when the coordinator has a planner, then
// records the result and commits actuals.
func (s *scheduler) replanOrFail(ctx context.Context, step planner.Step, id stepIdentity, inputs map[string]any, rsv *budget.Reservation, confirmed bool, sr StepResult, execErr error) stepOutcome {
	if execErr != nil && s.c.tp != nil && s.ctx.Err() == nil {
		if np, rerr := s.c.tp.Replan(s.plan, step.ID); rerr == nil {
			s.mu.Lock()
			s.res.Replans++
			s.mu.Unlock()
			alt, _ := np.Step(step.ID)
			s.event(obs.LevelWarn, "replan",
				obs.Attr{Key: "step", Value: step.ID},
				obs.Attr{Key: "from", Value: step.Agent},
				obs.Attr{Key: "to", Value: alt.Agent},
				obs.Attr{Key: "error", Value: obs.Truncate(execErr.Error(), 120)})
			// Re-admit the retry: the alternative agent's projected cost
			// may differ from the reservation held for the failed one, and
			// executing it unreserved would reopen the joint-overshoot
			// window Reserve exists to close.
			rsv.Release()
			altID := s.identify(alt.Agent)
			altRsv, again, err := s.admit(step.ID+":"+alt.Agent, altID)
			if err != nil {
				s.record(sr) // the original failure
				return stepOutcome{stepID: step.ID, ran: true, err: err}
			}
			rsv, confirmed = altRsv, confirmed || again
			sr, execErr = s.attempt(ctx, alt, inputs)
			if execErr == nil {
				step, id = alt, altID
			}
		}
	}
	s.record(sr)
	if execErr != nil {
		rsv.Release()
		err := fmt.Errorf("%w: %s (%s): %w", ErrStepFailed, step.ID, step.Agent, execErr)
		if s.ctx.Err() != nil {
			// Cancelled by another step's failure: this step is collateral.
			err = s.firstFailure(err)
		} else {
			s.fail(err)
		}
		return stepOutcome{stepID: step.ID, ran: true, err: err}
	}

	// Commit actuals (the executed agent may differ from the reserved one
	// after a replan; the accuracy signal follows the executed agent).
	// Latency is charged as the step's marginal contribution to the plan's
	// *critical path over actual step latencies*: the step finishes at
	// max(finish of its deps) + its own reported latency, and only growth
	// of the overall critical path is charged. Parallel steps overlap
	// instead of summing, sequential chains accumulate exactly as before,
	// and the units stay the agents' reported latencies — the same units
	// the optimizer's critical-path projection uses (essential for the
	// simulated LLM, whose reported latency is not slept wall time).
	acc := id.qos.Accuracy // zero for an unregistered agent
	s.mu.Lock()
	finish := s.graph.ReadyAt(step.ID, s.simFinish) + sr.Latency
	s.simFinish[step.ID] = finish
	marginal := finish - s.chargedLatency
	if marginal < 0 {
		marginal = 0
	}
	s.chargedLatency += marginal
	s.mu.Unlock()
	var vs []budget.Violation
	if rsv != nil {
		vs = rsv.Commit(sr.Cost, marginal, acc)
	} else {
		vs = s.budget.Charge(step.ID+":"+step.Agent, sr.Cost, marginal, acc)
	}
	if len(vs) > 0 && !confirmed && !s.confirmViolations(vs) {
		err := s.abort(vs[0].String())
		return stepOutcome{stepID: step.ID, ran: true, err: err}
	}

	s.mu.Lock()
	s.outputs[step.ID] = sr.Outputs
	s.mu.Unlock()
	return stepOutcome{stepID: step.ID, ran: true}
}

// confirmViolations applies the violation policy for an in-flight step:
// only the Confirm policy can wave execution on, and confirmations are
// serialized (Coordinator.confirm) so a human (or test) sees one prompt at
// a time. Abort and Replan fall through to abort — replanning for budget
// reasons happens only at the whole-plan projection stage.
func (s *scheduler) confirmViolations(vs []budget.Violation) bool {
	if s.c.opts.OnViolation != Confirm {
		return false
	}
	return s.c.confirm(vs)
}

// event logs a scheduler decision (a retry, a degraded serve, a replan)
// against the session; the log applies its level gate.
func (s *scheduler) event(lv obs.Level, kind string, attrs ...obs.Attr) {
	obs.Events.Append(obs.Event{Level: lv, Component: "scheduler", Kind: kind, Session: s.session, Attrs: attrs})
}

// record stores a step's result for the plan-order assembly in run.
func (s *scheduler) record(sr StepResult) {
	s.mu.Lock()
	s.results[sr.StepID] = sr
	s.mu.Unlock()
}

// firstFailure picks the error a step that did not complete reports: the
// plan's recorded failure when there is one — the step was cancelled as
// collateral of it, and the plan error stays the first — and err otherwise.
func (s *scheduler) firstFailure(err error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failErr != nil {
		return s.failErr
	}
	return err
}

// fail records the first plan-level failure and cancels outstanding work.
func (s *scheduler) fail(err error) {
	s.mu.Lock()
	if s.failErr == nil {
		s.failErr = err
	}
	s.mu.Unlock()
	s.cancel()
}

// abort records a budget abort, cancels outstanding work and emits the ABORT
// control message. Only the first abort/failure wins; later calls return
// the recorded error.
func (s *scheduler) abort(reason string) error {
	s.mu.Lock()
	first := s.failErr == nil
	if first {
		s.failErr = markAborted(s.res, reason)
	}
	err := s.failErr
	s.mu.Unlock()
	s.cancel()
	if first {
		s.c.emitAbort(s.session, s.ask, "", map[string]any{"reason": reason})
	}
	return err
}
