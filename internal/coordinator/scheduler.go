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
	"blueprint/internal/optimizer"
	"blueprint/internal/planner"
	"blueprint/internal/resilience"
	"blueprint/internal/streams"
)

// DefaultMaxParallel bounds how many of a plan's steps execute at once when
// Options does not set one.
const DefaultMaxParallel = 8

// errReplanned marks a memoized-step execution whose replan retry executed
// a different agent than the one the memo key names; the result is returned
// to the leader but never cached or shared.
var errReplanned = errors.New("coordinator: step replanned to an alternative agent; result not memoizable under the original key")

// failedAgent is the agent a failed step's error names, wrapped in it so
// that the plan's failure record can name the agent too.
type failedAgent string

func (a failedAgent) Error() string { return string(a) }

// errDegraded marks a memoized-step execution that was answered from a stale
// entry (breaker open): the leader keeps its degraded success, but the stale
// value must not be re-cached as fresh (that would reset its age), so
// waiters re-execute — and typically degrade the same way.
var errDegraded = errors.New("coordinator: step served degraded from a stale entry; not re-cacheable")

// scheduler executes one plan as a dependency-driven DAG: it takes the plan's
// graph and its steps' identities from ExecutePlan (planner.Graph and
// optimizer.IdentifyPlan, the values the projection walked), runs every step
// whose dependencies are satisfied — one on the plan's own goroutine, the
// others on the store's pool (streams.Store.Go), at most MaxParallel at once
// counting the plan's own — merges step outputs under a lock, and admits each
// step through the budget's atomic Reserve/Commit path so concurrently
// executing steps cannot jointly overshoot the cost limit; latency is
// enforced against the critical path of actual step latencies (each commit
// charges only the critical path's growth), matching the optimizer's
// projection in the same units. The first failure or budget abort cancels the
// shared context, which unblocks in-flight steps; ready steps not yet started
// are skipped. A step is named by its position in the plan, as the graph
// names it, and its state is kept at that position.
type scheduler struct {
	c       *Coordinator
	session string
	ask     uint64 // the ask the plan runs for; every message it writes carries it
	plan    *planner.Plan
	graph   planner.Graph            // the plan's dependency DAG, as projected
	ids     []optimizer.StepIdentity // each step's identity, as projected; read-only
	budget  *budget.Budget
	res     *Result

	ctx    context.Context
	cancel context.CancelFunc

	mu             sync.Mutex
	steps          []stepState     // each step's progress, by position
	finish         []time.Duration // each step's critical-path finish, by position: what Graph.ReadyAt reads
	failErr        error           // first failure; nil while healthy
	chargedLatency time.Duration   // critical-path latency charged so far
}

// stepState is one step's part of a plan run. waiting belongs to run's loop;
// the rest is written under the scheduler's lock, each once.
type stepState struct {
	waiting  int            // dependencies that have not completed
	done     bool           // the step completed: outputs are what downstream inputs bind to
	outputs  map[string]any // never mutated once set
	recorded bool           // result holds the step's result
	result   StepResult
}

// stepOutcome is one worker's report back to the scheduling loop.
type stepOutcome struct {
	step int  // the step's position in the plan
	ran  bool // false when the step was skipped (cancelled before start)
	err  error
}

func newScheduler(c *Coordinator, session string, ask uint64, p *planner.Plan, g planner.Graph, ids []optimizer.StepIdentity, b *budget.Budget, res *Result, span *obs.Span) *scheduler {
	ctx, cancel := context.WithCancel(context.Background())
	// The plan span rides the scheduler context so step spans parent to it.
	ctx = obs.ContextWith(ctx, span)
	steps := make([]stepState, len(p.Steps))
	for i, ds := range g.Deps {
		steps[i].waiting = len(ds)
	}
	return &scheduler{
		c: c, session: session, ask: ask, plan: p, graph: g, ids: ids, budget: b, res: res,
		ctx: ctx, cancel: cancel,
		steps: steps, finish: make([]time.Duration, len(p.Steps)),
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
				done = make(chan stepOutcome, len(s.steps)) // one send per step at most
			}
			i := ready[0]
			ready = ready[1:]
			handedOff++
			out := done // captured by value: done itself stays off the heap
			s.c.store.Go(func() { out <- s.step(i) })
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
		for _, child := range s.graph.Children[oc.step] {
			s.steps[child].waiting--
			if s.steps[child].waiting == 0 {
				ready = append(ready, child)
			}
		}
	}

	// Assemble results in plan order; Final is the last completed step's
	// outputs, matching the sequential contract.
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.steps {
		st := &s.steps[i]
		if !st.recorded {
			continue
		}
		s.res.Steps = append(s.res.Steps, st.result)
		if st.result.Err == "" {
			s.res.Final = st.result.Outputs
		}
	}
	return s.failErr
}

// step runs the ready step i to its outcome, on whichever goroutine calls it.
func (s *scheduler) step(i int) stepOutcome {
	mBusyWorkers.Add(1)
	oc := s.runStep(i)
	mBusyWorkers.Add(-1)
	return oc
}

// runStep executes one plan step end to end. Its identity comes from
// ExecutePlan; a step whose inputs the plan does not fix first resolves them
// (planner.Plan.Resolve over the completed steps' outputs) and, when
// memoizable, keys them. Then either the memoized path or the fresh path —
// budget admission (Reserve), agent execution with one optional replan
// retry, and the Commit of actuals. Policy decisions on violations happen
// inline; the scheduling loop only learns success or failure.
func (s *scheduler) runStep(i int) stepOutcome {
	if s.ctx.Err() != nil {
		return stepOutcome{step: i, ran: false}
	}
	step := s.plan.Steps[i]
	mSteps.Inc()
	ctx, sp := obs.StartSpan(s.ctx, "scheduler", "step:"+step.ID)
	sp.SetAttr("agent", step.Agent)
	defer sp.End()
	clk := s.c.store.Clock()
	start := clk.Now()
	defer func() { mStepLatency.Observe(clk.Since(start).Seconds()) }()

	id := s.ids[i]
	if id.Inputs == nil {
		inputs, err := s.plan.Resolve(step, s.output, s.c.transformer(s.budget))
		if err != nil {
			err = fmt.Errorf("%w: %s (%w): %v", ErrStepFailed, step.ID, failedAgent(step.Agent), err)
			s.fail(err)
			return stepOutcome{step: i, err: err}
		}
		id = id.WithInputs(inputs, s.c.opts.Memo)
	}
	if id.Keyed {
		return s.runMemoized(ctx, i, id)
	}
	return s.runFresh(ctx, i, id)
}

// output reports a completed step's outputs: what Resolve binds a downstream
// input to. A step's outputs are written once, at completion, and never
// mutated.
func (s *scheduler) output(step string) (map[string]any, bool) {
	i := s.plan.Index(step) // a plan step: the graph checked every binding
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.steps[i].outputs, s.steps[i].done
}

// runMemoized satisfies the step from the memoization store when possible:
// a resident entry is a hit (zero cost, zero marginal critical-path
// latency); otherwise the step executes under single-flight deduplication,
// so concurrent identical steps — including ones from other plans and
// sessions sharing this Coordinator — run once and share the result. The
// leader runs the full fresh path (admission, execution, commit) so its
// plan is charged normally; only the winners' waiters ride free.
func (s *scheduler) runMemoized(ctx context.Context, i int, id optimizer.StepIdentity) stepOutcome {
	step := s.plan.Steps[i]
	// The memo span covers the whole Do (for a leader that includes the
	// fresh execution it led); the agent execution itself is a sibling child
	// of the step span, so hit/coalesced trees show a bare memo/lookup and
	// miss trees show lookup + execution side by side.
	_, msp := obs.StartSpan(ctx, "memo", "lookup")
	msp.SetAttr("agent", id.Name)
	var leaderOC stepOutcome
	led := false
	entry, outcome, err := s.c.opts.Memo.Do(s.ctx, id.Key, id.Name, id.Reads, id.QoS.Freshness, func() (memo.Entry, error) {
		led = true
		leaderOC = s.runFresh(ctx, i, id)
		if leaderOC.err != nil || !leaderOC.ran {
			e := leaderOC.err
			if e == nil {
				e = context.Canceled
			}
			return memo.Entry{}, e
		}
		s.mu.Lock()
		sr := s.steps[i].result
		s.mu.Unlock()
		if sr.Agent != id.Name {
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
		s.record(i, StepResult{StepID: step.ID, Agent: step.Agent, Err: "cancelled"})
		ferr := s.firstFailure(fmt.Errorf("%w: %s (%s): %v", ErrStepFailed, step.ID, step.Agent, err))
		return stepOutcome{step: i, ran: true, err: ferr}
	}
	// Hit or coalesced share, handled identically: the outputs are the
	// stored entry's, shared with every other hit and never written.
	sr := StepResult{StepID: step.ID, Agent: step.Agent, Outputs: entry.Outputs, Cached: true}
	return s.satisfy(i, sr, step.ID+":"+step.Agent, id.QoS.Accuracy)
}

// satisfy completes a step without executing it — a memo hit, a coalesced
// share of an identical in-flight execution, or a degraded serve of a stale
// entry; sr says which. The step is charged zero cost and zero marginal
// critical-path latency (it finishes "instantly" after its dependencies),
// and accuracy keeps the plan's estimate honest with the profile of the
// agent that produced the entry.
func (s *scheduler) satisfy(i int, sr StepResult, label string, accuracy float64) stepOutcome {
	vs := s.budget.ChargeMemoHit(label, accuracy)
	s.mu.Lock()
	s.finish[i] = s.graph.ReadyAt(i, s.finish) // nothing added to the critical path
	s.steps[i].result, s.steps[i].recorded = sr, true
	s.res.Degraded = s.res.Degraded || sr.Degraded
	s.mu.Unlock()
	if len(vs) > 0 && !s.c.confirm(vs) {
		return stepOutcome{step: i, ran: true, err: s.abort(vs[0].String())}
	}
	s.complete(i, sr.Outputs)
	return stepOutcome{step: i, ran: true}
}

// complete publishes step i's outputs to the steps that bind to them.
func (s *scheduler) complete(i int, outputs map[string]any) {
	s.mu.Lock()
	s.steps[i].outputs, s.steps[i].done = outputs, true
	s.mu.Unlock()
}

// runFresh executes the step for real: circuit-breaker consult, budget
// admission, agent execution under the retry policy, with a degraded
// stale-memo serve or one replan fallback when the breaker rejects or the
// retries are exhausted, and the Commit of actuals.
func (s *scheduler) runFresh(ctx context.Context, i int, id optimizer.StepIdentity) stepOutcome {
	step := s.plan.Steps[i]
	// Circuit breaker: an open breaker rejects the dispatch outright. The
	// step is then answered from a stale memo entry when the degradation
	// policy tolerates its age, or falls through (execErr set, nothing
	// reserved or executed) to the replan fallback below — routing around
	// the broken agent instead of hammering it.
	if !s.c.opts.Breakers.Allow(step.Agent) {
		if oc, ok := s.serveStale(i, id); ok {
			return oc
		}
		sr := StepResult{StepID: step.ID, Agent: step.Agent, Err: resilience.ErrBreakerOpen.Error()}
		execErr := fmt.Errorf("%s: %w", step.Agent, resilience.ErrBreakerOpen)
		return s.replanOrFail(ctx, i, id, nil, false, sr, execErr)
	}

	rsv, confirmed, err := s.admit(step.ID+":"+step.Agent, id)
	if err != nil {
		s.c.opts.Breakers.Forgo(step.Agent) // the dispatch Allow admitted is not made
		return stepOutcome{step: i, err: err}
	}
	sr, execErr := s.executeAttempts(ctx, step, id.Inputs)
	return s.replanOrFail(ctx, i, id, rsv, confirmed, sr, execErr)
}

// admit reserves the agent's projected cost (from its registry profile) so
// parallel steps cannot jointly overshoot the cost limit. Latency is
// deliberately NOT reserved per step — concurrent steps overlap in time, so
// summing their projected latencies would falsely reject parallel plans the
// critical-path projection already admitted; latency is enforced at commit
// time against the critical path of actual step latencies. A reservation
// that does not fit goes to Options.Confirm: refused, the plan aborts
// (err); confirmed, the step executes without a reservation, its actuals are
// charged (and recorded as violations) on completion, and the commit-stage
// violations it already confirmed do not prompt again. Steps of unknown
// agents (no QoS profile) skip the reservation and fail in executeStep.
func (s *scheduler) admit(label string, id optimizer.StepIdentity) (rsv *budget.Reservation, confirmed bool, err error) {
	if !id.Known {
		return nil, false, nil
	}
	rsv, vs := s.budget.Reserve(label, id.QoS.CostPerCall, 0)
	if len(vs) > 0 {
		if !s.c.confirm(vs) {
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
func (s *scheduler) serveStale(i int, id optimizer.StepIdentity) (stepOutcome, bool) {
	if !id.Keyed {
		return stepOutcome{}, false
	}
	entry, age, ok := s.c.opts.Memo.GetStale(id.Key)
	if !ok || !resilience.ServeStale(id.QoS.Freshness, age) {
		return stepOutcome{}, false
	}
	step := s.plan.Steps[i]
	mStepsStale.Inc()
	s.event(obs.LevelWarn, "degraded-serve",
		obs.Attr{Key: "step", Value: step.ID},
		obs.Attr{Key: "agent", Value: step.Agent},
		obs.Attr{Key: "stale_for", Value: age.String()})
	sr := StepResult{StepID: step.ID, Agent: step.Agent, Outputs: entry.Outputs, Cached: true, Degraded: true, StaleFor: age}
	return s.satisfy(i, sr, step.ID+":"+step.Agent+":stale", id.QoS.Accuracy), true
}

// replanOrFail finishes a step after its execution attempts: on failure it
// applies the one replan fallback when the coordinator has a planner — a
// substitute agent that takes the step's bound inputs and returns its
// agent's outputs (planner.Candidates), run once on the same inputs; with no
// such agent the step fails — then records the result and commits actuals.
func (s *scheduler) replanOrFail(ctx context.Context, i int, id optimizer.StepIdentity, rsv *budget.Reservation, confirmed bool, sr StepResult, execErr error) stepOutcome {
	step := s.plan.Steps[i]
	if execErr != nil && s.c.tp != nil && s.ctx.Err() == nil {
		if alt, rerr := s.c.tp.Replan(s.plan, step.ID); rerr == nil {
			s.mu.Lock()
			s.res.Replans++
			s.mu.Unlock()
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
			altID := optimizer.Identify(s.c.reg, alt.Agent)
			altRsv, again, err := s.admit(step.ID+":"+alt.Agent, altID)
			if err != nil {
				s.record(i, sr) // the original failure
				return stepOutcome{step: i, ran: true, err: err}
			}
			rsv, confirmed = altRsv, confirmed || again
			sr, execErr = s.attempt(ctx, alt, id.Inputs)
			if execErr == nil {
				step, id = alt, altID
			}
		}
	}
	s.record(i, sr)
	if execErr != nil {
		rsv.Release()
		err := fmt.Errorf("%w: %s (%w): %w", ErrStepFailed, step.ID, failedAgent(step.Agent), execErr)
		if s.ctx.Err() != nil {
			// Cancelled by another step's failure: this step is collateral.
			err = s.firstFailure(err)
		} else {
			s.fail(err)
		}
		return stepOutcome{step: i, ran: true, err: err}
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
	acc := id.QoS.Accuracy // zero for an unregistered agent
	s.mu.Lock()
	finish := s.graph.ReadyAt(i, s.finish) + sr.Latency
	s.finish[i] = finish
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
	if len(vs) > 0 && !confirmed && !s.c.confirm(vs) {
		err := s.abort(vs[0].String())
		return stepOutcome{step: i, ran: true, err: err}
	}

	s.complete(i, sr.Outputs)
	return stepOutcome{step: i, ran: true}
}

// event logs a scheduler decision (a retry, a degraded serve, a replan)
// against the session and the ask the plan runs for; the log applies its
// level gate.
func (s *scheduler) event(lv obs.Level, kind string, attrs ...obs.Attr) {
	obs.Events.Append(obs.Event{Level: lv, Component: "scheduler", Kind: kind,
		Session: s.session, Trace: obs.AskID(s.ask), Attrs: attrs})
}

// record stores step i's result for the plan-order assembly in run.
func (s *scheduler) record(i int, sr StepResult) {
	s.mu.Lock()
	s.steps[i].result, s.steps[i].recorded = sr, true
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
		s.c.emitAbort(s.session, s.ask, streams.Directive{Error: reason})
	}
	return err
}
