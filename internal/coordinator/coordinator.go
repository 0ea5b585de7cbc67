// Package coordinator implements the blueprint's task coordinator (§V-H):
// it receives a task plan DAG (with an initial budget and the optimizer's
// projections), directs execution by streaming EXECUTE_AGENT instructions to
// agents, applies the data planner's transformations so upstream outputs fit
// downstream inputs (e.g. PROFILER.CRITERIA <- USER.TEXT), monitors actual
// cost/latency/accuracy against the budget, and aborts or triggers
// replanning when thresholds are exceeded.
//
// # Concurrent DAG scheduling
//
// ExecutePlan honours the plan's DAG structure rather than its listing
// order, and reads that structure once: its first line derives the plan's
// planner.Graph (which is also the plan's validation), and the same value
// goes to the optimizer's projection and to the scheduler. It identifies
// each step once as well (see "One step's life"), and runs the plan it is
// handed in place: no run writes a plan, so the service runs the published
// payload itself. The graph names a step by its position in the plan, and the
// scheduler keeps each step's state — its waiting count, outputs, result and
// critical-path finish — at that position, in slices of the plan's length.
// It counts down the graph's dependencies and runs a step's children as they
// reach zero: one on the plan's own goroutine, the others on the store's pool
// of long-lived workers (streams.Store.Go), with at most Options.MaxParallel
// (default DefaultMaxParallel) in flight counting the plan's own. So a
// one-step plan hands nothing off, a fan-out plan with N independent steps
// completes in one wave (Graph.Waves describes the wave structure), and the
// optimizer projects its latency as the critical path over the same DAG, not
// the sum of the steps.
//
// Violation semantics under concurrency: each step is admitted through the
// budget's atomic Reserve/Commit path, so concurrently dispatched steps can
// never jointly overshoot the cost limit; latency is charged as each step's
// marginal growth of the plan's critical path over actual step latencies,
// so the latency limit means the plan's (possibly simulated) end-to-end
// latency rather than a sum that would double-count overlapping steps. That
// is the optimizer's critical-path projection in the same units and by the
// same rule — a step starts when planner.Graph.ReadyAt says its dependencies
// have finished, in optimizer.CriticalPath over registered latencies and in
// the scheduler's commit over reported ones — so the latency a completed plan
// was charged is CriticalPath over what its agents reported. A step that does
// not fit goes to Options.Confirm — serialized so one prompt shows at a
// time, and at most once per step — and, refused or with no Confirm set,
// aborts the plan: the shared context is cancelled, which unblocks every
// in-flight step and skips queued ones. Step results are always reported in
// plan order regardless of completion order, and Final remains the outputs
// of the last completed step in plan order.
//
// Service is the coordinator deployed once per process, and sessions join it
// as they join an agent deployment. It has one intake: data messages tagged
// PlanTag in a joined session's scope (one scoped subscription and one
// goroutine reading it, for every session). It hands each such plan at once
// to a worker of the store's pool, which takes one of the session's
// DefaultMaxConcurrentPlans slots, so plans of one session — and of many —
// run concurrently, and a session at its bound holds up no other's. A
// session's Seat keeps its latest 64 results, readable after it has left. A
// plan the service runs ends on the session's display stream: its results,
// or, for a plan it gave up on, one AGENT_ERROR naming the failed step's
// agent ("coordinator" for a budget abort) — the failure
// record that ends its ask's wait. The ask a plan message names
// (streams.Message.Ask) goes down with the plan, to the scheduler: the plan's
// span joins that ask's tree, and every EXECUTE_AGENT, ABORT, result and
// failure message the plan writes, and its Result, carry the ask's id.
// ExecutePlan runs a plan for no ask, ExecuteAsk for one.
//
// # Step-result memoization
//
// With Options.Memo set, the scheduler consults the memoization store
// (internal/memo) before dispatching a ready step whose agent is declared
// Cacheable in the registry: a hit satisfies the step immediately — zero
// cost and zero marginal critical-path latency charged to the budget
// (budget.ChargeMemoHit) — and unblocks its dependents; a miss executes
// under single-flight deduplication, so N concurrent identical steps
// (within a plan, across plans, and across sessions — every session's plans
// run on one Coordinator and therefore one store) run exactly once while
// the rest await the winner. The pre-execution projection prices plans
// against the same store (optimizer.EstimatePlanWithMemo), so a warm
// repeated ask is admitted at its true residual cost. Registry version
// bumps and data-source updates invalidate entries (and poison in-flight
// executions) through the store's epoch machinery, so no stale result is
// ever cached or shared.
//
// # One step's life
//
// A step has one identity per execution (optimizer.StepIdentity), made by
// ExecutePlan before the projection (optimizer.IdentifyPlan): the agent's
// registry entry, read once, and — for a step whose inputs the plan fixes
// (literals and the untransformed utterance) — those inputs, resolved with
// planner.Plan.Resolve, the one reading of bindings, and for a Cacheable
// agent with a memo store configured their memo key. The projection prices
// the step with that value and runStep runs it. A step that reads an
// upstream output or needs a transform is resolved by runStep when it is
// ready, over the outputs of completed steps (read under the scheduler's
// lock) and with a transform that runs the data planner and charges the
// budget, and keyed then (StepIdentity.WithInputs). Everything after takes
// that value — only a replan's alternative agent is looked up again. A keyed
// step takes runMemoized and any other runFresh.
//
//   - runMemoized asks the store (memo.Store.Do): a hit, or a coalesced share
//     of an identical in-flight execution, goes to satisfy with the stored
//     outputs themselves, which the run only reads; on a miss this goroutine
//     leads, runs runFresh and hands the result to the store.
//   - runFresh consults the agent's breaker. Open: serveStale answers from a
//     stale entry under the step's key that the degradation policy tolerates
//     (satisfy, marked Degraded), else the step goes straight to the replan
//     fallback. Closed: admit reserves the agent's projected cost (confirm or
//     abort when it does not fit), executeAttempts runs attempt (executeStep
//     plus the breaker and SLO records) under the retry policy, and
//     replanOrFail finishes: after a failure one replan (admit, attempt
//     once on the same inputs) to a substitute that takes the step's bound
//     inputs and returns its agent's outputs (planner.Candidates; with none
//     the step fails), then record, and either fail — firstFailure for a
//     step cancelled as collateral — or the commit of actuals against the
//     critical path (Graph.ReadyAt plus the step's own latency).
//   - executeStep is one execution: an EXECUTE_AGENT directive naming no
//     reply stream, under an invocation id of its own (a per-Coordinator
//     count), so runs of one plan id — and a step's retries — never share
//     one. The agent's AGENT_DONE report (agent.ReadReport) carries the
//     step's outputs beside its cost and latency; nothing is published for
//     the step, so no stream is named for a plan or step and no agent
//     listening for tags runs beside the plan.
//   - satisfy is the one way a step completes without executing: zero cost,
//     zero marginal latency, the producing agent's accuracy.
//   - fail and abort record the plan's first error and cancel the rest.
//     Every ABORT directive — the scheduler's, Coordinator.abort's at the
//     projection stage, one invocation's on timeout or cancellation — is
//     published by Coordinator.emitAbort.
package coordinator

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"blueprint/internal/agent"
	"blueprint/internal/budget"
	"blueprint/internal/dataplan"
	"blueprint/internal/llm"
	"blueprint/internal/memo"
	"blueprint/internal/obs"
	"blueprint/internal/optimizer"
	"blueprint/internal/planner"
	"blueprint/internal/registry"
	"blueprint/internal/resilience"
	"blueprint/internal/streams"
)

// Process-wide coordinator instruments.
var (
	mPlans       = obs.Default.Counter("blueprint_plans_total", "plan executions started")
	mPlanAborts  = obs.Default.Counter("blueprint_plan_aborts_total", "plan executions aborted on budget violations")
	mSteps       = obs.Default.Counter("blueprint_scheduler_steps_total", "plan steps scheduled (executed or satisfied from the memo)")
	mStepsCached = obs.Default.Counter("blueprint_scheduler_steps_cached_total", "plan steps satisfied from the memoization store")
	mBusyWorkers = obs.Default.Gauge("blueprint_scheduler_busy_workers", "plan steps currently executing, on a plan's goroutine or a pooled worker")
	mStepLatency = obs.Default.Histogram("blueprint_step_latency_seconds", "wall time of one scheduled step, admission to commit", obs.LatencyBuckets)
	mStepRetries = obs.Default.Counter("blueprint_scheduler_step_retries_total", "same-agent step retries dispatched under the retry policy")
	mStepsStale  = obs.Default.Counter("blueprint_scheduler_steps_degraded_total", "plan steps answered from stale memo entries while the agent's breaker was open")
)

// Coordinator errors.
var (
	ErrAborted     = errors.New("coordinator: execution aborted")
	ErrStepFailed  = errors.New("coordinator: step failed")
	ErrStepTimeout = errors.New("coordinator: step timed out")
)

// Options configure a coordinator.
type Options struct {
	// Confirm is consulted when the budget is, or would be, exceeded ("prompt
	// the user to confirm budget violations", §V-H): the plan goes on over
	// budget when it returns true, and aborts with an ABORT control message
	// otherwise. Calls are serialized even when concurrent steps violate
	// simultaneously. nil aborts on every violation.
	Confirm func(violations []budget.Violation) bool
	// MaxParallel bounds how many of a plan's steps execute at once, counting
	// the one the plan's own goroutine runs (default DefaultMaxParallel; 1
	// runs every step on the plan's goroutine, one after another).
	MaxParallel int
	// Memo enables cross-session step-result memoization: results of
	// Cacheable agents are reused (and concurrent identical executions
	// deduplicated) through this store. nil disables memoization.
	Memo *memo.Store
	// Breakers, when set, gates every step dispatch through the target
	// agent's circuit breaker and records each execution outcome. An open
	// breaker rejects the dispatch; the step is then served degraded from a
	// stale memo entry that resilience.ServeStale tolerates (marked
	// Degraded), or replanned to an alternative agent.
	Breakers *resilience.Set
	// SLO, when set, receives one per-agent observation per fresh step
	// execution attempt (latency + error), feeding the per-agent burn
	// rates GET /slo and bpctl top report. nil disables (nil-safe).
	SLO *obs.SLOTracker
}

// Coordinator executes task plans over a stream store.
type Coordinator struct {
	store      *streams.Store
	reg        *registry.AgentRegistry
	tp         *planner.TaskPlanner
	model      *llm.Model
	opts       Options
	transforms *dataplan.Executor // runs the data planner's transformations on the store's clock
	confirmMu  sync.Mutex         // serializes Confirm consultations
	// invocations numbers the agent invocations executeStep starts, so
	// each has an id of its own.
	invocations atomic.Uint64
}

// New creates a coordinator on the store's clock. A failed step is replanned
// to an alternative agent once when tp is set; tp is nil when replanning is
// not wanted. The model backs user-text transforms (criteria extraction).
func New(store *streams.Store, reg *registry.AgentRegistry, tp *planner.TaskPlanner, model *llm.Model, opts Options) *Coordinator {
	return &Coordinator{store: store, reg: reg, tp: tp, model: model, opts: opts,
		transforms: dataplan.NewExecutor(dataplan.Sources{Model: model}, store.Clock())}
}

// StepResult records one executed step.
type StepResult struct {
	StepID  string
	Agent   string
	Outputs map[string]any
	Cost    float64
	Latency time.Duration
	Err     string
	// Cached reports that the step was satisfied from the memoization
	// store (a cache hit or a coalesced share of a concurrent identical
	// execution) rather than executed; Cost and Latency are then zero.
	Cached bool
	// Degraded reports a graceful-degradation serve: the agent's breaker
	// was open and the step was answered from a stale memo entry whose age
	// (StaleFor) the degradation policy judged freshness-valid.
	Degraded bool
	// StaleFor is the age of the stale entry served (Degraded only).
	StaleFor time.Duration
}

// Result is the outcome of one plan execution.
type Result struct {
	PlanID string
	// Ask is the ask the plan ran for (streams.Message.Ask; 0 for none):
	// what a reader picks the result of one ask out by.
	Ask uint64
	// Steps holds per-step results in plan order (steps execute
	// concurrently; completion order is not meaningful).
	Steps []StepResult
	// Final holds the last step's outputs.
	Final map[string]any
	// Budget is the closing budget report.
	Budget budget.Report
	// Aborted reports whether execution stopped on a violation.
	Aborted bool
	// AbortReason describes why.
	AbortReason string
	// Replans counts replanning events.
	Replans int
	// Retries counts same-agent step retries dispatched under the retry
	// policy (each also charged its backoff in Budget.Retries).
	Retries int
	// Degraded reports that at least one step was answered from a stale
	// memo entry (see StepResult.Degraded).
	Degraded bool
}

// ExecutePlan runs the plan within the session, charging b for every step.
// Steps execute concurrently along the plan's dependency DAG (see the
// package comment); the call itself blocks until the plan completes, fails,
// or aborts. It runs the plan for no ask: ExecuteAsk is the call on behalf
// of one.
func (c *Coordinator) ExecutePlan(session string, p *planner.Plan, b *budget.Budget) (*Result, error) {
	return c.ExecuteAsk(session, 0, p, b)
}

// ExecuteAsk is ExecutePlan on behalf of ask (a root span id, as
// streams.Message.Ask holds it): the plan's span joins the ask's tree, and
// every EXECUTE_AGENT and ABORT the plan writes, and the Result, carry the
// id.
func (c *Coordinator) ExecuteAsk(session string, ask uint64, p *planner.Plan, b *budget.Budget) (*Result, error) {
	return c.execute(session, ask, p, b, nil)
}

// execute is ExecuteAsk with done, when set, handed the outcome before the
// plan's span ends: so whatever waits for the ask's spans to end (the flight
// recorder) finds what done did with it.
func (c *Coordinator) execute(session string, ask uint64, p *planner.Plan, b *budget.Budget, done func(*Result, error)) (res *Result, err error) {
	g, err := p.Graph()
	if err != nil {
		return nil, err
	}
	if b == nil {
		b = budget.New(budget.Limits{})
	}
	res = &Result{PlanID: p.ID, Ask: ask}
	mPlans.Inc()

	// Watched plans arrive on streams with no caller context: the ask the
	// plan message named, not a ctx parameter, links the plan into its tree.
	span := obs.Spans.Resume(ask, 0, "coordinator", "plan")
	span.SetAttr("plan", p.ID)
	if p.Utterance != "" {
		span.SetAttr("utterance", obs.Truncate(p.Utterance, 60))
	}
	defer span.End()
	if done != nil {
		defer func() { done(res, err) }()
	}

	// Pre-execution projection (§V-H: plan arrives "along with an initial
	// budget and projected costs (estimated by the optimizer)"). The
	// latency projection is the critical path over the DAG, so fan-out
	// plans are not falsely rejected for the sum of their parallel steps;
	// with memoization on, steps expected to hit the cache are priced at
	// zero, so warm plans are admitted at their residual cost.
	// Each step is identified here, once: the projection prices the plan
	// with the identities and the scheduler runs each step under its own.
	ids := optimizer.IdentifyPlan(p, c.reg, c.opts.Memo)
	projCost, projLatency, _, _ := optimizer.EstimatePlanWithMemo(p, g, ids, c.opts.Memo)
	if b.WouldExceed(projCost, projLatency) && !c.confirm(nil) {
		return c.abort(session, ask, res, b, fmt.Sprintf("projected cost $%.4f/latency %s exceeds budget", projCost, projLatency))
	}

	err = newScheduler(c, session, ask, p, g, ids, b, res, span).run()
	res.Budget = b.Snapshot()
	return res, err
}

// confirm consults Options.Confirm under confirmMu, so prompts are
// serialized across concurrent steps and concurrently executing plans
// (Service runs watched plans concurrently over one shared Coordinator). nil
// vs is the plan's projection; without a Confirm every violation is refused.
func (c *Coordinator) confirm(vs []budget.Violation) bool {
	if c.opts.Confirm == nil {
		return false
	}
	c.confirmMu.Lock()
	defer c.confirmMu.Unlock()
	return c.opts.Confirm(vs)
}

// abort refuses a plan at the projection stage, before any step ran.
func (c *Coordinator) abort(session string, ask uint64, res *Result, b *budget.Budget, reason string) (*Result, error) {
	err := markAborted(res, reason)
	res.Budget = b.Snapshot()
	c.emitAbort(session, ask, streams.Directive{Error: reason})
	return res, err
}

// markAborted counts a budget abort, marks res with it and returns the
// ErrAborted the plan reports.
func markAborted(res *Result, reason string) error {
	mPlanAborts.Inc()
	res.Aborted = true
	res.AbortReason = reason
	return fmt.Errorf("%w: %s", ErrAborted, reason)
}

// emitAbort publishes d as an ABORT directive on the session's control
// stream, carrying the ask the plan runs for: addressed to no agent it
// announces that the plan stopped, and why (d.Error), and every agent of
// the session cancels what it runs for the ask; addressed to one it cancels
// that agent's invocation d.Invocation, so a step that timed out or was
// cancelled does not keep burning agent work.
func (c *Coordinator) emitAbort(session string, ask uint64, d streams.Directive) {
	d.Op = streams.OpAbort
	_, _ = c.store.Append(streams.Message{
		Stream: agent.ControlStream(session), Kind: streams.Control, Sender: "coordinator", Ask: ask,
		Directive: &d,
	})
}

// transformer is the transform the scheduler hands planner.Plan.Resolve: a
// binding's named transformation of USER.TEXT runs through transform and its
// usage is charged to b. Without a model the text passes through unchanged.
func (c *Coordinator) transformer(b *budget.Budget) func(param, name, text string) (string, error) {
	return func(param, name, text string) (string, error) {
		if c.model == nil {
			return text, nil
		}
		transformed, usage, err := c.transform(name, text)
		if err != nil {
			return "", err
		}
		b.Charge("transform:"+param, usage.Cost, usage.Latency, 0)
		return transformed, nil
	}
}

// transform runs USER.TEXT through the data planner's extract operator
// (§V-H: "the coordinator invokes the data planner to identify and generate
// a sequence of data operations to transform output data").
func (c *Coordinator) transform(transform, text string) (string, dataplan.Estimate, error) {
	instruction := transform
	if len(transform) > 7 && transform[:7] == "derive:" {
		instruction = transform[7:]
	}
	plan := &dataplan.Plan{
		Query:    "transform " + instruction,
		Strategy: "transform",
		Nodes: []dataplan.Node{{
			ID: "x", Kind: dataplan.OpExtract,
			Args: map[string]any{"instruction": instruction, "text": text},
		}},
		Output: "x",
	}
	out, err := c.transforms.Execute(plan)
	if err != nil {
		return "", dataplan.Estimate{}, err
	}
	return out.Text, out.Usage, nil
}

// stepDeadline derives one attempt's absolute completion deadline:
// agent.StepTimeout, tightened to the plan's remaining latency headroom when
// a latency limit is set — a plan nearly out of budget must not let one step
// run for the full timeout. The deadline rides the EXECUTE_AGENT directive,
// so the agent runtime bounds the processor context to it too.
func (c *Coordinator) stepDeadline(b *budget.Budget) time.Time {
	wait := agent.StepTimeout
	if b != nil && b.Limits().MaxLatency > 0 {
		if _, rem := b.Remaining(); rem < wait {
			wait = rem
		}
	}
	return c.store.Clock().Now().Add(wait)
}

// executeStep streams an EXECUTE_AGENT instruction that names no reply
// stream and awaits its DONE or ERROR report, which carries the step's
// outputs. Every call is its own invocation, with an id of its own. The wait
// aborts when ctx is cancelled (plan-level abort or failure elsewhere) or the
// deadline passes; either way a targeted ABORT stops the in-flight
// invocation.
func (s *scheduler) executeStep(ctx context.Context, step planner.Step, inputs map[string]any, deadline time.Time) (StepResult, error) {
	c, session := s.c, s.session
	sr := StepResult{StepID: step.ID, Agent: step.Agent}
	invID := fmt.Sprintf("%s-%s-%d", s.plan.ID, step.ID, c.invocations.Add(1))

	// Subscribe to control reports before issuing the instruction.
	ctrl := c.store.Subscribe(agent.ReportFilter(session), false)
	defer ctrl.Cancel()

	if err := agent.ExecuteInvocation(c.store, step.Agent, agent.Invocation{
		Session: session, Inputs: inputs, InvocationID: invID,
		TraceParent: obs.FromContext(ctx).ID(), Deadline: deadline, Ask: s.ask,
	}); err != nil {
		return sr, err
	}

	clk := c.store.Clock()
	wait := clk.Until(deadline)
	waitCtx, cancel := clk.WithDeadline(ctx, deadline)
	defer cancel()
	d, err := agent.AwaitReport(waitCtx, ctrl, invID)
	if err == nil {
		rep, err := agent.ReadReport(d)
		if err != nil {
			sr.Err = err.Error()
		}
		sr.Outputs, sr.Cost, sr.Latency = rep.Outputs, rep.Usage.Cost, rep.Usage.Latency
		return sr, err
	}
	if waitCtx.Err() == nil {
		return sr, err // the store closed
	}
	c.emitAbort(session, s.ask, streams.Directive{Agent: step.Agent, Invocation: invID})
	if ctx.Err() != nil {
		sr.Err = "cancelled"
		return sr, fmt.Errorf("step %s cancelled: %w", step.ID, ctx.Err())
	}
	sr.Err = "timeout"
	return sr, fmt.Errorf("%w: %s after %s", ErrStepTimeout, step.ID, wait.Truncate(time.Millisecond))
}
