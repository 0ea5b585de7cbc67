package blueprint

import (
	"context"
	"errors"
	"fmt"
	"time"

	"blueprint/internal/agent"
	"blueprint/internal/budget"
	"blueprint/internal/clock"
	"blueprint/internal/coordinator"
	"blueprint/internal/dataplan"
	"blueprint/internal/durability"
	"blueprint/internal/hragents"
	"blueprint/internal/llm"
	"blueprint/internal/memo"
	"blueprint/internal/obs"
	"blueprint/internal/planner"
	"blueprint/internal/registry"
	"blueprint/internal/resilience"
	"blueprint/internal/session"
	"blueprint/internal/streams"
	"blueprint/internal/trace"
	"blueprint/internal/workload"
)

// Durability subsystem ids: the first byte of every WAL record names the
// owning subsystem. Stable across releases — they are on disk.
const (
	subRegistries uint8 = 1
	subRelational uint8 = 2
	subMemo       uint8 = 3
	subStreams    uint8 = 4
)

// ErrNoResponse is returned when a session request produces no display
// output within the deadline.
var ErrNoResponse = errors.New("blueprint: no response before deadline")

// System is a fully wired blueprint instance: the streams database, both
// registries, the planners, the optimizer-backed coordinator, the simulated
// LLM, and the generated enterprise substrate.
type System struct {
	cfg   Config
	clock *clock.Clock         // the one clock every layer that decides by time reads
	plans *coordinator.Service // deployed once; every StartSession session joins it

	// Store is the streams database (§V-A).
	Store *streams.Store
	// AgentRegistry maps models/APIs to agents (§V-C).
	AgentRegistry *registry.AgentRegistry
	// DataRegistry maps enterprise data (§V-D).
	DataRegistry *registry.DataRegistry
	// Factory spawns agent instances from registry specs (§V-B).
	Factory *agent.Factory
	// Sessions manages collaborative contexts (§V-E).
	Sessions *session.Manager
	// TaskPlanner produces task plans (§V-F).
	TaskPlanner *planner.TaskPlanner
	// DataPlanner produces data plans (§V-G).
	DataPlanner *dataplan.Planner
	// Coordinator executes plans under budgets (§V-H).
	Coordinator *coordinator.Coordinator
	// Memo is the coordinator's cross-session step-result memoization
	// cache (nil when Config.DisableMemo is set). Registry changes and
	// data-asset version bumps invalidate it automatically.
	Memo *memo.Store
	// Durability is the shared WAL + snapshot engine (nil unless
	// Config.DataDir is set). Close takes a final snapshot through it;
	// Snapshot and DurabilityStats expose it for operations.
	Durability *durability.Engine
	// Breakers holds the per-agent circuit breakers the scheduler
	// consults before dispatch.
	Breakers *resilience.Set
	// Governor is the overload-control admission governor used by
	// GovernedAsk and blueprintd (nil unless Config.Governor.MaxConcurrent
	// is set; a nil governor admits everything).
	Governor *resilience.Governor
	// SLO tracks per-tenant and per-agent SLO burn rates (Config.SLO):
	// governed asks record per tenant, the scheduler records per agent.
	// blueprintd serves it at GET /slo and exports it in /metrics.
	SLO *obs.SLOTracker
	// Model is the simulated LLM shared by LLM-backed agents.
	Model *llm.Model
	// Enterprise is the generated YourJourney substrate (§II).
	Enterprise *workload.Enterprise
	// Suite holds the case-study agents (§VI).
	Suite *hragents.Suite
}

// New builds a System from the configuration, on the real clock.
func New(cfg Config) (*System, error) { return newOnClock(cfg, nil) }

// newOnClock builds a System on clk, which it hands to every layer that
// decides by time as that layer is built.
func newOnClock(cfg Config, clk *clock.Clock) (*System, error) {
	cfg = cfg.withDefaults()
	ent, err := workload.Build(cfg.Seed, cfg.Scale)
	if err != nil {
		return nil, err
	}
	model := llm.New(cfg.modelConfig(), ent.KB)

	store := streams.NewStore()
	store.SetClock(clk)
	dataReg := registry.NewDataRegistry()
	suite, err := hragents.NewSuite(ent, model, dataReg, clk)
	if err != nil {
		store.Close()
		return nil, err
	}
	agentReg := registry.NewAgentRegistry()
	if err := suite.RegisterAll(agentReg); err != nil {
		store.Close()
		return nil, err
	}
	factory := agent.NewFactory(agentReg)
	suite.InstallConstructors(factory)

	tp := planner.New(agentReg, model, nil)
	if err := agentReg.Register(planner.Spec()); err != nil {
		store.Close()
		return nil, err
	}
	factory.RegisterConstructor(planner.AgentName, func(registry.AgentSpec) agent.Processor {
		return planner.AsAgent(tp).Process
	})

	// Cross-session step-result memoization (§IV QoS / optimizer): results
	// of Cacheable agents are reused across plans and sessions, and the
	// registries invalidate them — agent version bumps by name, data-asset
	// version bumps by the sources agents declare in Reads.
	var memoStore *memo.Store
	if !cfg.DisableMemo {
		memoStore = memo.New(memo.DefaultCapacity)
		memoStore.SetClock(clk)
		agentReg.OnChange(func(name string) { memoStore.InvalidateAgent(name) })
		dataReg.OnChange(func(name string) { memoStore.InvalidateSource(name) })
		// Data-change seam: every write through the relational engine (DML
		// or DDL, including prepared statements) bumps the table's asset —
		// and, via the registry's hierarchy propagation, the "hr" database
		// asset — so memoized results of agents reading them are dropped
		// the moment the data changes. Writes to tables not in the
		// registry (scratch tables) are no-ops.
		ent.DB.OnWrite(func(table string) {
			_ = dataReg.Touch("hr." + table)
		})
	}

	// Durability (§I "configured to scale and restart on failure"): one
	// shared WAL + snapshot engine makes every stateful layer recoverable,
	// so a restarted blueprintd comes back warm — tables, registry
	// versions, memoized step results and stream history included. The
	// registries restore first (ascending subsystem id) so the memo
	// restore can version-check its entries against them; relational DML
	// replay re-fires OnWrite -> Touch, dropping restored memo entries
	// whose source data changed after they were logged.
	var eng *durability.Engine
	if cfg.DataDir != "" {
		eng, err = durability.Open(cfg.DataDir, durability.Options{})
		if err != nil {
			store.Close()
			return nil, err
		}
		durableReg := registry.Durable{Agents: agentReg, Data: dataReg}
		regErr := eng.Register(subRegistries, "registries", durableReg)
		if regErr == nil {
			// Logical SQL replay is not idempotent: the relational engine
			// logs through Engine.Log and snapshots under the barrier.
			regErr = eng.Register(subRelational, "relational", ent.DB, durability.WithSnapshotBarrier())
		}
		if regErr == nil && memoStore != nil {
			regErr = eng.Register(subMemo, "memo", memoStore)
		}
		if regErr == nil {
			regErr = eng.Register(subStreams, "streams", store)
		}
		if regErr != nil {
			store.Close()
			return nil, regErr
		}
		ent.DB.SetDurable(eng.Logger(subRelational))
		if memoStore != nil {
			memoStore.SetDurable(memo.DurableConfig{
				Append: eng.Logger(subMemo).Append,
				AgentVersion: func(name string) int {
					if spec, err := agentReg.Get(name); err == nil {
						return spec.Version
					}
					return 0
				},
				Validate: func(name string, version int) bool {
					spec, err := agentReg.Get(name)
					return err == nil && spec.Cacheable && spec.Version == version
				},
			})
		}
		store.SetDurable(eng.Logger(subStreams).Append)
		if err := eng.Recover(); err != nil {
			store.Close()
			_ = eng.Close()
			return nil, err
		}
		// Registry mutations made from here on are WAL-logged, so a crash no
		// longer loses post-snapshot registry changes. Attached strictly
		// after Recover: boot-time registrations are deterministic (every
		// start re-registers the same base set) and replayed records must
		// not re-log themselves.
		durableReg.AttachLog(eng.Logger(subRegistries).Append)
	}

	// Resilience (§I "configured to scale and restart on failure"): failed
	// steps retry under the latency budget, per-agent breakers stop
	// dispatching to failing agents (serving freshness-valid stale memo
	// entries instead when the policy allows), and the governor bounds
	// concurrent governed asks with fair-share load shedding.
	breakers := resilience.NewSet(clk)
	slo := obs.NewSLOTracker(cfg.SLO, clk)
	coord := coordinator.New(store, agentReg, tp, model, coordinator.Options{
		Memo:     memoStore,
		Breakers: breakers,
		SLO:      slo,
	})
	governor := resilience.NewGovernor(cfg.Governor)
	governor.SetClock(clk)
	sys := &System{
		cfg:           cfg,
		clock:         clk,
		Store:         store,
		AgentRegistry: agentReg,
		DataRegistry:  dataReg,
		Memo:          memoStore,
		Durability:    eng,
		Breakers:      breakers,
		Governor:      governor,
		SLO:           slo,
		Factory:       factory,
		Sessions:      session.NewManager(store, factory),
		plans:         coord.Serve(cfg.Budget),
		TaskPlanner:   tp,
		DataPlanner:   suite.DataPlanner,
		Coordinator:   coord,
		Model:         model,
		Enterprise:    ent,
		Suite:         suite,
	}
	// Observability-plane knobs act on the process globals (last System
	// wins, like the func-backed instrument bridges); zero values leave the
	// globals untouched so embedding tests don't clobber each other.
	if cfg.SlowAskThreshold != 0 {
		obs.SlowAsks.SetThreshold(cfg.SlowAskThreshold)
	}
	if cfg.EventLevel != "" {
		if lv, err := obs.ParseLevel(cfg.EventLevel); err == nil {
			obs.Events.SetLevel(lv)
		}
	}
	sys.registerInstruments()
	return sys, nil
}

// MemoStats reports the step-result memoization counters: hits, misses,
// evictions, invalidations, dedup-coalesced requests, resident entries and
// the saved cost/latency. Zero when memoization is disabled. blueprintd
// serves it at GET /memo and folds the hit rate into /stats.
func (s *System) MemoStats() memo.Stats {
	return s.Memo.Stats()
}

// Close shuts the system down gracefully: all sessions, then — when
// durability is on — a final snapshot and a clean log close, so the next
// open restores instead of replaying. Then the stream store.
func (s *System) Close() { s.shutdown(true) }

// SimulateCrash stops the system without the final snapshot, as if the
// process died: the WAL is flushed (so tests are deterministic) but no
// snapshot boundary is written, forcing the next open onto the full replay
// path. Test/benchmark seam for the recovery scenarios (the crash-recovery
// tests, the benchmark's recovery figures).
func (s *System) SimulateCrash() { s.shutdown(false) }

// shutdown stops the coordinator service, draining every open session's
// running plans, then takes the sessions' agents out without forgetting the
// sessions (session.Manager.Close), so that what the log and the optional
// final snapshot record is complete and each session can be reopened by id;
// then the durability engine and the stream store.
func (s *System) shutdown(snapshot bool) {
	s.plans.Stop()
	s.Sessions.Close()
	if s.Durability != nil {
		if snapshot {
			_ = s.Durability.Snapshot()
		}
		_ = s.Durability.Close()
	}
	_ = s.Store.Close()
}

// Snapshot takes a durability snapshot now: all subsystems serialize, the
// superseded log segments are deleted, and the next open restores from it.
// blueprintd exposes it as POST /snapshot; bpctl as the snapshot command.
func (s *System) Snapshot() error {
	if s.Durability == nil {
		return errors.New("blueprint: durability disabled (set Config.DataDir)")
	}
	return s.Durability.Snapshot()
}

// DurabilityStats reports the engine's counters (zero when durability is
// disabled): appends, group-commit fsyncs, snapshots, resident log bytes
// and the recovery profile of this process's start.
func (s *System) DurabilityStats() durability.Stats {
	if s.Durability == nil {
		return durability.Stats{}
	}
	return s.Durability.Stats()
}

// GovernorStats reports the overload governor's admission ledger (zeros
// when admission control is disabled): admitted, shed (with the tenant and
// queue-timeout breakdowns), in-flight, queued and the in-flight peak.
// blueprintd folds it into /stats; bpctl top renders it as the resilience
// line.
func (s *System) GovernorStats() resilience.GovernorStats {
	return s.Governor.Stats()
}

// BreakerStates snapshots every per-agent circuit breaker's state (nil when
// no agent has been dispatched yet).
func (s *System) BreakerStates() map[string]resilience.State {
	return s.Breakers.States()
}

// StandardAgents is the agent set spawned into every new session.
var StandardAgents = []string{
	hragents.AgenticEmployer, hragents.IntentClassifier, hragents.NL2Q,
	hragents.SQLExecutor, hragents.QuerySummarizer, hragents.Summarizer,
	hragents.Ranker, hragents.Profiler, hragents.JobMatcher,
	hragents.Presenter, hragents.Advisor,
}

// Session is a live conversational session: a scope that the deployed
// case-study agents and the coordinator service have joined.
type Session struct {
	*session.Session
	sys   *System
	plans *coordinator.Seat // the session's place in the coordinator service
}

// StartSession opens a session (auto-named when id is empty) and joins it to
// the standard agents and the coordinator service.
func (s *System) StartSession(id string) (*Session, error) {
	base, err := s.Sessions.Create(id)
	if err != nil {
		return nil, err
	}
	if !s.cfg.DisableStandardAgents {
		if err := base.SpawnAgents(StandardAgents, agent.Options{}); err != nil {
			base.Close()
			return nil, fmt.Errorf("blueprint: spawning the standard agents: %w", err)
		}
	}
	return &Session{Session: base, sys: s, plans: s.plans.Join(base.ID)}, nil
}

// Session returns the open session StartSession made under id: one the
// coordinator service still holds a seat for.
func (s *System) Session(id string) (*Session, bool) {
	seat, joined := s.plans.Seat(id)
	base, err := s.Sessions.Get(id)
	if !joined || err != nil {
		return nil, false
	}
	return &Session{Session: base, sys: s, plans: seat}, true
}

// Close takes the session out of the coordinator service, waiting for the
// plans it is running, then closes the underlying session: its agents leave
// and its streams are dropped, so nothing of it is kept or recovered.
func (sess *Session) Close() {
	sess.sys.plans.Leave(sess.ID)
	sess.Session.Close()
}

// Ask posts a user utterance and waits for its answer: the first display
// output the utterance caused. The architecture is fully asynchronous; Ask
// is the convenience wrapper for request/response usage. An in-process ask
// names no tenant, so it is not admitted by the governor and feeds no tenant
// SLO series.
//
// Every ask opens a root span, whose id is the ask's one id: every message
// the ask causes carries it, and each component the ask flows through —
// tag-triggered agents, the coordinator's plan execution, scheduler steps,
// memo lookups, relational statements — anchors its spans beneath it by that
// id, so GET /trace/{session} (and bpctl trace) shows the full timed tree of
// the ask. An ask that is slow, fails, is shed or is served degraded is
// captured as a flight-recorder exemplar under the same id.
func (sess *Session) Ask(text string, timeout time.Duration) (string, error) {
	ans, err := sess.GovernedAsk(context.Background(), "", text, nil, timeout)
	return ans.Text, err
}

// GovernedAsk is the one way in for an ask — Ask and Click are each one call
// of it, and blueprintd's ask and click handlers call it — and puts the ask
// behind the overload governor. With event set the ask is a click, as
// Click's: the UI event is posted, its rendering is the ask's text, and text
// is not read. Each step runs once, in order:
//
//   - the ask's root span opens, so its id (Answer.TraceID, obs.AskID of the
//     root's) names all that follows, a queued ask's wait included;
//   - the ask claims an admission slot for its tenant, waiting, bounded, when
//     the daemon is at capacity. Tenant "" — an in-process ask — skips
//     admission and the tenant SLO series. A nil governor (Config.Governor
//     unset) admits everything at once;
//   - a shed ask is answered from a freshness-valid stale memoized answer
//     when graceful degradation allows it — degraded — and is otherwise shed,
//     failing with a *resilience.OverloadError carrying the advisory
//     Retry-After. Its root ends at once;
//   - an admitted ask executes, and ends answered, failed, closed or
//     timed_out (execute);
//   - its answer is memoized for later degraded serves (only with a
//     governor: without one nothing is shed);
//   - recordAsk records it.
//
// Answer.Outcome is how the ask ended, one of the obs.Outcome* set, decided
// here once: blueprintd's status, the tenant SLO series and the flight
// recorder each read it.
func (sess *Session) GovernedAsk(ctx context.Context, tenant, text string, event map[string]any, timeout time.Duration) (Answer, error) {
	name := "ask"
	if event != nil {
		name, text = "click", fmt.Sprint(event)
	}
	root := obs.Spans.StartRoot(sess.ID, "session", name)
	ans := Answer{TraceID: obs.AskID(root.ID())}
	root.SetAttr("text", obs.Truncate(text, 80))
	root.SetAttr("trace", ans.TraceID) // what a reader holding only X-Trace-Id finds the tree by
	rec := askRecord{root: root, tenant: tenant, text: text, start: sess.sys.clock.Now(), evStart: obs.Events.Seq()}
	ctx = obs.ContextWith(ctx, root)

	var err error
	if tenant != "" {
		var release func()
		if release, err = sess.sys.Governor.Admit(ctx, tenant); err != nil {
			root.End()
			ans.Outcome = obs.OutcomeShed
			if stale, ok := sess.staleAnswer(text); ok {
				stale.TraceID, stale.Outcome = ans.TraceID, obs.OutcomeDegraded
				ans, err = stale, nil
				if obs.Events.On(obs.LevelWarn) {
					obs.Events.Append(obs.Event{
						Level: obs.LevelWarn, Component: "session", Kind: "degraded-ask",
						Session: sess.ID, Trace: ans.TraceID,
						Attrs: []obs.Attr{
							{Key: "tenant", Value: tenant},
							{Key: "stale_for", Value: ans.StaleFor.String()},
						},
					})
				}
			}
			sess.recordAsk(rec, ans, err)
			return ans, err
		}
		defer release()
	}
	ans.Text, ans.Outcome, err = sess.execute(ctx, root.ID(), text, event, timeout)
	root.End()
	if err == nil {
		sess.rememberAnswer(text, ans.Text)
	}
	sess.recordAsk(rec, ans, err)
	return ans, err
}

// quiesceWait bounds how long an exemplar capture waits for the ask's
// laggard spans to end: only an agent that hangs takes it whole.
const quiesceWait = 50 * time.Millisecond

// execute runs an admitted ask under the ask-level instruments and returns
// its answer and how it ended. It posts the ask's input — the utterance, or
// the UI event when event is set — stamped with the ask's id, and waits for
// the ask's final record: the first display message carrying that id, at or
// past the display length read before the post. The wait's error is read
// here and nowhere else: the ask answered, failed (its failure record, which
// names the agent: session.ErrFailed; or its input was refused), closed
// (session.ErrClosed: its session was closed under it) or timed out — at its
// deadline, or when ctx ended, for a caller that has gone away (an HTTP
// client disconnected) holds nothing until the timeout. A closed or
// timed-out ask's error wraps ErrNoResponse.
func (sess *Session) execute(ctx context.Context, ask uint64, text string, event map[string]any, timeout time.Duration) (string, string, error) {
	mAsks.Inc()
	clk := sess.sys.clock
	start := clk.Now()
	defer func() { mAskLatency.Observe(clk.Since(start).Seconds()) }()

	from := sess.DisplayLen()
	var err error
	if event == nil {
		_, err = sess.PostUserText(ask, text)
	} else {
		_, err = sess.PostUserEvent(ask, event)
	}
	if err != nil {
		return "", obs.OutcomeFailed, err
	}
	out, err := sess.AwaitAnswer(ctx, from, ask, timeout)
	switch {
	case err == nil:
		return out, obs.OutcomeAnswered, nil
	case errors.Is(err, session.ErrFailed):
		return "", obs.OutcomeFailed, err
	case errors.Is(err, session.ErrClosed):
		return "", obs.OutcomeClosed, fmt.Errorf("%w: %w", ErrNoResponse, err)
	default:
		return "", obs.OutcomeTimedOut, fmt.Errorf("%w: %w", ErrNoResponse, err)
	}
}

// askRecord carries one finished ask's identity to recordAsk.
type askRecord struct {
	root    *obs.Span // the ask's root span, ended; its id is the ask's (a shed ask's has no children)
	tenant  string    // "" for an in-process ask (no tenant SLO series)
	text    string
	start   time.Time
	evStart uint64 // event-log cursor at ask start (the exemplar's window)
}

// shedSampler thins shed-ask exemplar captures: under sustained overload
// every arrival sheds, and unsampled capture would wash the slow/degraded
// exemplars (the ones with span evidence) out of the recorder ring.
var shedSampler = obs.NewSampler(4)

// recordAsk is the last step of every ask: by its outcome, ans.Outcome, it
// feeds the tenant's SLO series and captures a flight recorder exemplar when
// the ask was slow or was not answered. The ask's time runs from its start to
// this call.
func (sess *Session) recordAsk(rec askRecord, ans Answer, err error) {
	dur := sess.sys.clock.Since(rec.start)
	if rec.tenant != "" && ans.Outcome != obs.OutcomeClosed {
		// Only an answer burns none of the tenant's error budget: the SLO
		// promises a fresh answer in time, and a failure, a timeout, a shed
		// and a degraded (stale) serve each delivered none. A closed ask is
		// not counted: its client withdrew it.
		sess.sys.SLO.Record(obs.SLOTenant, rec.tenant, dur, ans.Outcome != obs.OutcomeAnswered)
	}
	rcd := obs.SlowAsks
	if !rcd.ShouldCapture(dur, ans.Outcome) {
		return
	}
	if ans.Outcome == obs.OutcomeShed && !shedSampler.Allow() {
		return
	}
	id := obs.AskID(rec.root.ID())
	ex := obs.Exemplar{
		Trace: id, Session: sess.ID, Tenant: rec.tenant,
		Text: obs.Truncate(rec.text, 120), Start: rec.start, Dur: dur,
		Outcome: ans.Outcome,
	}
	if err != nil {
		ex.Err = err.Error()
	}
	ex.Spans = quiescedTree(sess.sys.clock, sess.ID, rec.root)
	ex.Events = filterAskEvents(obs.Events.Since(rec.evStart), sess.ID, id)
	// The cost breakdown is that of the plan the ask ran, found by the ask's
	// id once its spans have ended (the plan's span outlives the recording of
	// its result); an ask that ran no plan, as an NLQ chain does, has none.
	for _, res := range sess.plans.Results() {
		if res.Ask == rec.root.ID() {
			ex.Breakdown = breakdownOf(res)
		}
	}
	rcd.Capture(ex)
}

// quiescedTree snapshots an ask's span tree for an exemplar once every span
// of the ask has ended (root.Settled), or after quiesceWait on clk when one
// hangs. This path only runs for asks that were already slow, degraded or
// failed, so the wait is free.
func quiescedTree(clk *clock.Clock, session string, root *obs.Span) []obs.SpanData {
	timer := clk.NewTimer(quiesceWait)
	defer timer.Stop()
	select {
	case <-root.Settled():
	case <-timer.C:
	}
	return obs.Spans.Tree(session, root.ID())
}

// breakdownOf summarizes a coordinator result for an exemplar.
func breakdownOf(res *coordinator.Result) *obs.CostBreakdown {
	bd := &obs.CostBreakdown{
		PlanID:  res.PlanID,
		Cost:    res.Budget.CostSpent,
		Steps:   len(res.Steps),
		Retries: res.Retries,
		Replans: res.Replans,
		Elapsed: res.Budget.Latency,
	}
	for _, st := range res.Steps {
		if st.Cached {
			bd.CachedSteps++
		}
		if st.Degraded {
			bd.DegradedSteps++
		}
	}
	return bd
}

// filterAskEvents keeps the events belonging to one ask's window: events
// naming the ask (its id as obs.AskID renders it) or its session, plus
// untagged process-global events (breaker transitions, WAL group commits)
// that overlapped it. Events naming a *different* ask or session are
// concurrent neighbors' and are dropped.
func filterAskEvents(events []obs.Event, session, ask string) []obs.Event {
	out := events[:0]
	for _, e := range events {
		switch {
		case ask != "" && e.Trace == ask:
		case e.Session == session && e.Session != "":
		case e.Trace == "" && e.Session == "":
		default:
			continue
		}
		out = append(out, e)
	}
	return out
}

// askAgent is the synthetic memo namespace for whole-ask answers: governed
// asks memoize their display answer under it so that, during overload, a
// shed repeat ask can be answered from the stale entry instead of a bare
// 429. Entries read the whole "hr" database, so any relational write
// invalidates them (stale answers are stale only in time, never in version).
const askAgent = "__ask__"

// askFreshness is the freshness tolerance of a memoized ask-level answer:
// under resilience.ServeStale a shed ask may be answered from a result up to
// 2m old.
const askFreshness = 30 * time.Second

// Answer is the result of a governed ask.
type Answer struct {
	// Text is the display answer.
	Text string
	// Outcome is how the ask ended: obs.OutcomeAnswered, OutcomeDegraded,
	// OutcomeShed, OutcomeFailed, OutcomeClosed or OutcomeTimedOut.
	Outcome string
	// StaleFor is the age of the stale memoized entry a degraded answer was
	// served from during overload instead of being executed.
	StaleFor time.Duration
	// TraceID is the ask's id (obs.AskID of its root span's), set on every
	// outcome: it finds the ask's span tree, events and any flight-recorder
	// exemplar (blueprintd returns it as X-Trace-Id).
	TraceID string
}

// askKey derives the memo key of an utterance's whole-ask answer.
func askKey(text string) (memo.Key, bool) {
	key, err := memo.ComputeKey(askAgent, 1, map[string]any{"text": text})
	return key, err == nil
}

// rememberAnswer memoizes a completed ask's answer for degraded serving. Its
// one reader, staleAnswer, runs only when the governor sheds an ask, so
// without a governor nothing is stored: the entry would cost a key hash, a
// slot of the step memo's LRU and (with DataDir) a log record for no reader.
func (sess *Session) rememberAnswer(text, out string) {
	sys := sess.sys
	if sys.Governor == nil || sys.Memo == nil {
		return
	}
	if key, ok := askKey(text); ok {
		sys.Memo.Put(key, askAgent, []string{"hr"}, askFreshness, memo.Entry{
			Outputs: map[string]any{"text": out},
		})
	}
}

// staleAnswer attempts the graceful-degradation path for a shed ask: a
// resident memoized answer for the same utterance, within the staleness
// bound resilience.ServeStale derives from askFreshness.
func (sess *Session) staleAnswer(text string) (Answer, bool) {
	sys := sess.sys
	if sys.Memo == nil {
		return Answer{}, false
	}
	key, ok := askKey(text)
	if !ok {
		return Answer{}, false
	}
	ent, age, ok := sys.Memo.GetStale(key)
	if !ok || !resilience.ServeStale(askFreshness, age) {
		return Answer{}, false
	}
	out, _ := ent.Outputs["text"].(string)
	if out == "" {
		return Answer{}, false
	}
	sys.Governor.CountDegraded()
	return Answer{Text: out, StaleFor: age}, true
}

// Click posts a UI event (e.g. selecting a job) and waits for the display
// output it caused (Fig. 9). A click is an ask: it roots a span tree for the
// duration and, slow or failed, is captured as an exemplar.
func (sess *Session) Click(event map[string]any, timeout time.Duration) (string, error) {
	ans, err := sess.GovernedAsk(context.Background(), "", "", event, timeout)
	return ans.Text, err
}

// ExecuteUtterance runs the full §V pipeline synchronously: plan the
// utterance with the task planner, then execute the plan with the
// coordinator under a fresh budget. It returns the coordinator result (and
// the plan used).
func (sess *Session) ExecuteUtterance(text string) (*coordinator.Result, *planner.Plan, error) {
	sp := obs.Spans.StartRoot(sess.ID, "session", "utterance")
	sp.SetAttr("text", obs.Truncate(text, 80))
	defer sp.End()
	p, err := sess.sys.TaskPlanner.Plan(text)
	if err != nil {
		return nil, nil, err
	}
	b := budget.New(sess.sys.cfg.Budget)
	res, err := sess.sys.Coordinator.ExecuteAsk(sess.ID, sp.ID(), p, b)
	return res, p, err
}

// Flow returns the session's observed message flow (for debugging and the
// Fig. 9/10 verifications): the messages of its last obs.KeptAsks asks, and
// any later ones of earlier asks.
func (sess *Session) Flow() []trace.Step {
	return trace.Flow(sess.Store(), sess.ID)
}

// Released returns how many earlier messages of the session its streams
// have let go of, beyond the horizon of its last obs.KeptAsks asks: the
// messages before its Flow.
func (sess *Session) Released() int64 {
	return trace.Released(sess.Store(), sess.ID)
}

// PlanResults returns the results of the plans the coordinator service
// executed for the session most recently, oldest first — at most 64, however long
// the session has run.
func (sess *Session) PlanResults() []*coordinator.Result {
	return sess.plans.Results()
}
