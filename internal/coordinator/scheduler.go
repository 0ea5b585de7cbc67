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

// DefaultMaxParallel is the scheduler's worker-pool bound when Options does
// not set one: up to this many plan steps execute concurrently.
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

// scheduler executes one plan as a dependency-driven DAG: it derives the
// step dependencies from the plan's bindings (planner.Plan.Deps), dispatches
// every step whose dependencies are satisfied onto a bounded worker pool,
// merges step outputs under a lock, and admits each step through the
// budget's atomic Reserve/Commit path so concurrently executing steps cannot
// jointly overshoot the cost limit; latency is enforced against the critical
// path of actual step latencies (each commit charges only the critical
// path's growth), matching the optimizer's projection in the same units.
// The first failure or budget abort cancels the shared context, which
// unblocks in-flight steps; queued-but-unstarted steps are skipped.
type scheduler struct {
	c       *Coordinator
	session string
	plan    *planner.Plan
	budget  *budget.Budget
	res     *Result

	ctx    context.Context
	cancel context.CancelFunc
	deps   map[string][]string // plan dependency DAG (set once in run)

	mu             sync.Mutex
	outputs        map[string]map[string]any // completed step outputs by step ID
	results        map[string]StepResult     // recorded step results by step ID
	failErr        error                     // first failure; nil while healthy
	simFinish      map[string]time.Duration  // per-step critical-path finish time
	chargedLatency time.Duration             // critical-path latency charged so far
}

// stepOutcome is one worker's report back to the scheduling loop.
type stepOutcome struct {
	stepID string
	ran    bool // false when the step was skipped (cancelled before start)
	err    error
}

func newScheduler(c *Coordinator, session string, p *planner.Plan, b *budget.Budget, res *Result, span *obs.Span) *scheduler {
	ctx, cancel := context.WithCancel(context.Background())
	// The plan span rides the scheduler context so step spans parent to it.
	ctx = obs.ContextWith(ctx, span)
	return &scheduler{
		c: c, session: session, plan: p, budget: b, res: res,
		ctx: ctx, cancel: cancel,
		outputs:   map[string]map[string]any{},
		results:   map[string]StepResult{},
		simFinish: map[string]time.Duration{},
	}
}

// run executes the plan to completion (or first failure) and assembles the
// result. It always leaves res.Steps in plan order regardless of the actual
// completion order.
func (s *scheduler) run() error {
	defer s.cancel()
	steps := s.plan.Steps
	deps := s.plan.Deps()
	s.deps = deps // published to workers via the ready-channel send
	index := make(map[string]planner.Step, len(steps))
	indeg := make(map[string]int, len(steps))
	children := map[string][]string{}
	for _, st := range steps {
		index[st.ID] = st
		indeg[st.ID] = len(deps[st.ID])
		for _, d := range deps[st.ID] {
			children[d] = append(children[d], st.ID)
		}
	}

	workers := s.c.opts.MaxParallel
	if workers <= 0 {
		workers = DefaultMaxParallel
	}
	if workers > len(steps) {
		workers = len(steps)
	}

	ready := make(chan planner.Step, len(steps))
	done := make(chan stepOutcome, len(steps))
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for st := range ready {
				mBusyWorkers.Add(1)
				oc := s.runStep(st)
				mBusyWorkers.Add(-1)
				done <- oc
			}
		}()
	}

	dispatched := 0
	for _, st := range steps { // seed the initial wave, in plan order
		if indeg[st.ID] == 0 {
			ready <- st
			dispatched++
		}
	}
	stopped := false
	for finished := 0; finished < dispatched; finished++ {
		oc := <-done
		if oc.err != nil {
			stopped = true // failure already recorded; drain in-flight work
			continue
		}
		if stopped || !oc.ran {
			continue
		}
		for _, child := range children[oc.stepID] {
			indeg[child]--
			if indeg[child] == 0 {
				ready <- index[child]
				dispatched++
			}
		}
	}
	close(ready)
	wg.Wait()

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

// runStep executes one plan step end to end: input resolution, then either
// the memoized path (cacheable agent, memo store configured) or the fresh
// path — budget admission (Reserve), agent execution with one optional
// replan retry, and the Commit of actuals. Policy decisions on violations
// happen inline; the scheduling loop only learns success or failure.
func (s *scheduler) runStep(step planner.Step) stepOutcome {
	if s.ctx.Err() != nil {
		return stepOutcome{stepID: step.ID, ran: false}
	}
	mSteps.Inc()
	ctx, sp := obs.StartSpan(s.ctx, "scheduler", "step:"+step.ID)
	sp.SetAttr("agent", step.Agent)
	defer sp.End()
	defer mStepLatency.ObserveSince(time.Now())

	inputs, err := s.c.resolveInputs(s.session, s.plan, step, s.snapshotOutputs(), s.budget)
	if err != nil {
		err = fmt.Errorf("%w: %s: %v", ErrStepFailed, step.ID, err)
		s.fail(err)
		return stepOutcome{stepID: step.ID, err: err}
	}
	if s.c.opts.Memo != nil {
		if spec, err := s.c.reg.Get(step.Agent); err == nil && spec.Cacheable {
			if key, kerr := memo.ComputeKey(spec.Name, spec.Version, inputs); kerr == nil {
				return s.runMemoized(ctx, step, spec, key, inputs)
			}
		}
	}
	return s.runFresh(ctx, step, inputs)
}

// runMemoized satisfies the step from the memoization store when possible:
// a resident entry is a hit (zero cost, zero marginal critical-path
// latency); otherwise the step executes under single-flight deduplication,
// so concurrent identical steps — including ones from other plans and
// sessions sharing this Coordinator — run once and share the result. The
// leader runs the full fresh path (admission, execution, commit) so its
// plan is charged normally; only the winners' waiters ride free.
func (s *scheduler) runMemoized(ctx context.Context, step planner.Step, spec registry.AgentSpec, key memo.Key, inputs map[string]any) stepOutcome {
	// The memo span covers the whole Do (for a leader that includes the
	// fresh execution it led); the agent execution itself is a sibling child
	// of the step span, so hit/coalesced trees show a bare memo/lookup and
	// miss trees show lookup + execution side by side.
	_, msp := obs.StartSpan(ctx, "memo", "lookup")
	msp.SetAttr("agent", spec.Name)
	var leaderOC stepOutcome
	led := false
	entry, outcome, err := s.c.opts.Memo.Do(s.ctx, key, spec.Name, spec.Reads, spec.QoS.Freshness, func() (memo.Entry, error) {
		led = true
		leaderOC = s.runFresh(ctx, step, inputs)
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
		if sr.Agent != spec.Name {
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
	return s.satisfy(sr, step.ID+":"+step.Agent, spec.QoS.Accuracy)
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
	s.simFinish[sr.StepID] = s.depsFinishLocked(sr.StepID) // nothing added to the critical path
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

// depsFinishLocked returns when the step's dependencies have all finished on
// the plan's critical path: the step's own start time there.
func (s *scheduler) depsFinishLocked(stepID string) time.Duration {
	startAt := time.Duration(0)
	for _, d := range s.deps[stepID] {
		if s.simFinish[d] > startAt {
			startAt = s.simFinish[d]
		}
	}
	return startAt
}

// runFresh executes the step for real: circuit-breaker consult, budget
// admission, agent execution under the retry policy, with a degraded
// stale-memo serve or one replan fallback when the breaker rejects or the
// retries are exhausted, and the Commit of actuals.
func (s *scheduler) runFresh(ctx context.Context, step planner.Step, inputs map[string]any) stepOutcome {
	// Circuit breaker: an open breaker rejects the dispatch outright. The
	// step is then answered from a stale memo entry when the degradation
	// policy tolerates its age, or falls through (execErr set, nothing
	// reserved or executed) to the replan fallback below — routing around
	// the broken agent instead of hammering it.
	if !s.c.opts.Breakers.Allow(step.Agent) {
		if oc, ok := s.serveStale(step, inputs); ok {
			return oc
		}
		sr := StepResult{StepID: step.ID, Agent: step.Agent, Err: resilience.ErrBreakerOpen.Error()}
		execErr := fmt.Errorf("%s: %w", step.Agent, resilience.ErrBreakerOpen)
		return s.replanOrFail(ctx, step, inputs, nil, false, sr, execErr)
	}

	rsv, confirmed, err := s.admit(step.ID, step.Agent)
	if err != nil {
		return stepOutcome{stepID: step.ID, err: err}
	}
	sr, execErr := s.executeAttempts(ctx, step, inputs)
	return s.replanOrFail(ctx, step, inputs, rsv, confirmed, sr, execErr)
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
func (s *scheduler) admit(stepID, agentName string) (rsv *budget.Reservation, confirmed bool, err error) {
	spec, specErr := s.c.reg.Get(agentName)
	if specErr != nil {
		return nil, false, nil
	}
	rsv, vs := s.budget.Reserve(stepID+":"+agentName, spec.QoS.CostPerCall, 0)
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
// therefore never retries itself past its SLO). Every attempt's outcome
// feeds the agent's breaker; retries stop when the error is not transient,
// the breaker trips, the budget has no headroom for the backoff, or the
// plan is cancelled.
func (s *scheduler) executeAttempts(ctx context.Context, step planner.Step, inputs map[string]any) (StepResult, error) {
	pol := s.c.opts.Retry
	attempts := pol.Attempts()
	var sr StepResult
	var err error
	for attempt := 1; ; attempt++ {
		sr, err = s.attempt(ctx, s.plan, step, inputs, attempt)
		if err == nil || attempt >= attempts || !resilience.Retryable(err) || s.ctx.Err() != nil {
			return sr, err
		}
		// This failure may have tripped the breaker; the next attempt needs
		// its admission like any other dispatch.
		if !s.c.opts.Breakers.Allow(step.Agent) {
			return sr, err
		}
		if backoff := pol.Backoff(attempt); backoff > 0 {
			if lim := s.budget.Limits(); lim.MaxLatency > 0 {
				if _, rem := s.budget.Remaining(); backoff > rem {
					// No latency headroom left to back off in; retrying
					// would bust the SLO the budget protects.
					return sr, err
				}
			}
			s.budget.ChargeRetryBackoff(step.ID+":"+step.Agent, backoff)
			if !resilience.SleepBudgeted(s.ctx, backoff) {
				return sr, err
			}
		}
		mStepRetries.Inc()
		s.mu.Lock()
		s.res.Retries++
		s.mu.Unlock()
		s.event(obs.LevelInfo, "retry",
			obs.Attr{Key: "step", Value: step.ID},
			obs.Attr{Key: "agent", Value: step.Agent},
			obs.Attr{Key: "attempt", Value: strconv.Itoa(attempt)},
			obs.Attr{Key: "backoff", Value: pol.Backoff(attempt).String()},
			obs.Attr{Key: "error", Value: obs.Truncate(err.Error(), 120)})
	}
}

// attempt executes the step of plan p once — the n-th try of it — and feeds
// the outcome to the agent's breaker and its SLO series.
func (s *scheduler) attempt(ctx context.Context, p *planner.Plan, step planner.Step, inputs map[string]any, n int) (StepResult, error) {
	start := time.Now()
	sr, err := s.c.executeStep(ctx, s.session, p, step, inputs, s.c.stepDeadline(s.budget), n)
	s.c.opts.Breakers.Record(step.Agent, err == nil)
	s.c.opts.SLO.Record(obs.SLOAgent, step.Agent, time.Since(start), err != nil)
	return sr, err
}

// serveStale answers a breaker-rejected step from a stale memo entry when
// the agent is cacheable, an entry is resident, and its age is within the
// degradation policy's bound of the agent's declared freshness. The serve
// is charged like a memo hit (zero cost, zero marginal critical-path
// latency) and marked Degraded with its staleness.
func (s *scheduler) serveStale(step planner.Step, inputs map[string]any) (stepOutcome, bool) {
	st := s.c.opts.Memo
	if st == nil {
		return stepOutcome{}, false
	}
	spec, err := s.c.reg.Get(step.Agent)
	if err != nil || !spec.Cacheable {
		return stepOutcome{}, false
	}
	key, kerr := memo.ComputeKey(spec.Name, spec.Version, inputs)
	if kerr != nil {
		return stepOutcome{}, false
	}
	entry, age, ok := st.GetStale(key)
	if !ok || !s.c.opts.Degrade.Allows(spec.QoS.Freshness, age) {
		return stepOutcome{}, false
	}
	mStepsStale.Inc()
	s.event(obs.LevelWarn, "degraded-serve",
		obs.Attr{Key: "step", Value: step.ID},
		obs.Attr{Key: "agent", Value: step.Agent},
		obs.Attr{Key: "stale_for", Value: age.String()})
	sr := StepResult{StepID: step.ID, Agent: step.Agent, Outputs: entry.Outputs, Cached: true, Degraded: true, StaleFor: age}
	return s.satisfy(sr, step.ID+":"+step.Agent+":stale", spec.QoS.Accuracy), true
}

// replanOrFail finishes a step after its execution attempts: on failure it
// applies the one replan fallback (RetryOnError), then records the result
// and commits actuals.
func (s *scheduler) replanOrFail(ctx context.Context, step planner.Step, inputs map[string]any, rsv *budget.Reservation, confirmed bool, sr StepResult, execErr error) stepOutcome {
	if execErr != nil && s.c.opts.RetryOnError && s.c.tp != nil && s.ctx.Err() == nil {
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
			altRsv, again, err := s.admit(step.ID, alt.Agent)
			if err != nil {
				s.record(sr) // the original failure
				return stepOutcome{stepID: step.ID, ran: true, err: err}
			}
			rsv, confirmed = altRsv, confirmed || again
			sr, execErr = s.attempt(ctx, np, alt, inputs, 1)
			if execErr == nil {
				step = alt
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
	acc := 0.0
	if exSpec, err := s.c.reg.Get(step.Agent); err == nil {
		acc = exSpec.QoS.Accuracy
	}
	s.mu.Lock()
	finish := s.depsFinishLocked(step.ID) + sr.Latency
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

// snapshotOutputs copies the completed-outputs map so resolveInputs can read
// it without holding the scheduler lock (per-step maps are written once and
// never mutated after completion).
func (s *scheduler) snapshotOutputs() map[string]map[string]any {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]map[string]any, len(s.outputs))
	for k, v := range s.outputs {
		out[k] = v
	}
	return out
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
		s.c.emitAbort(s.session, "", map[string]any{"reason": reason})
	}
	return err
}
