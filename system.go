package blueprint

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"blueprint/internal/agent"
	"blueprint/internal/budget"
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
	cfg Config

	sessMu   sync.RWMutex
	sessions map[string]*Session // what StartSession handed out, until its Close

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

// New builds a System from the configuration.
func New(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	ent, err := workload.Build(cfg.Seed, cfg.Scale)
	if err != nil {
		return nil, err
	}
	model := llm.New(cfg.modelConfig(), ent.KB)

	store := streams.NewStore()
	dataReg := registry.NewDataRegistry()
	suite, err := hragents.NewSuite(ent, model, dataReg)
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
		memoStore = memo.New(cfg.MemoCapacity)
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
		if cfg.SnapshotEvery > 0 {
			eng.StartAutoSnapshot(cfg.SnapshotEvery)
		}
	}

	// Resilience (§I "configured to scale and restart on failure"): failed
	// steps retry under the latency budget, per-agent breakers stop
	// dispatching to failing agents (serving freshness-valid stale memo
	// entries instead when the policy allows), and the governor bounds
	// concurrent governed asks with fair-share load shedding.
	breakers := resilience.NewSet(cfg.Breaker)
	slo := obs.NewSLOTracker(cfg.SLO)
	coord := coordinator.New(store, agentReg, tp, model, coordinator.Options{
		RetryOnError: true,
		MaxParallel:  cfg.MaxParallel,
		Memo:         memoStore,
		Retry:        cfg.Retry,
		Breakers:     breakers,
		Degrade:      cfg.Degrade,
		SLO:          slo,
	})
	sys := &System{
		cfg:           cfg,
		Store:         store,
		AgentRegistry: agentReg,
		DataRegistry:  dataReg,
		Memo:          memoStore,
		Durability:    eng,
		Breakers:      breakers,
		Governor:      resilience.NewGovernor(cfg.Governor),
		SLO:           slo,
		Factory:       factory,
		Sessions:      session.NewManager(store, factory),
		sessions:      map[string]*Session{},
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
// process died: the WAL is flushed (so tests and experiments are
// deterministic) but no snapshot boundary is written, forcing the next
// open onto the full replay path. Test/benchmark seam for the recovery
// scenarios (benchharness -fig A8, the crash-recovery property tests).
func (s *System) SimulateCrash() { s.shutdown(false) }

// shutdown closes every open session — each one's coordinator service
// drained of its running plans first, then its agents (Session.Close) — so
// that what the log and the optional final snapshot record is complete,
// then the durability engine and the stream store.
func (s *System) shutdown(snapshot bool) {
	for _, id := range s.Sessions.List() {
		if sess, ok := s.Session(id); ok {
			sess.Close()
		} else if base, err := s.Sessions.Get(id); err == nil {
			base.Close() // made through Sessions.Create: no service to drain
		}
	}
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

// Session is a live conversational session: the case-study agents listening
// on its streams plus a coordinator service executing emitted plans.
type Session struct {
	*session.Session
	sys *System
	svc *coordinator.Service
}

// StartSession opens a session (auto-named when id is empty), spawns the
// standard agents and starts the coordinator service.
func (s *System) StartSession(id string) (*Session, error) {
	base, err := s.Sessions.Create(id)
	if err != nil {
		return nil, err
	}
	if !s.cfg.DisableStandardAgents {
		for _, name := range StandardAgents {
			if _, err := base.SpawnAgent(name, agent.Options{}); err != nil {
				base.Close()
				return nil, fmt.Errorf("blueprint: spawning %s: %w", name, err)
			}
		}
	}
	sess := &Session{Session: base, sys: s, svc: s.Coordinator.Serve(base.ID, s.cfg.Budget)}
	s.sessMu.Lock()
	s.sessions[base.ID] = sess
	s.sessMu.Unlock()
	return sess, nil
}

// Session returns the open session StartSession handed out under id.
func (s *System) Session(id string) (*Session, bool) {
	s.sessMu.RLock()
	defer s.sessMu.RUnlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// Close stops the coordinator service, waiting for the plans it is running,
// then the underlying session and its agents.
func (sess *Session) Close() {
	sess.svc.Stop()
	sess.Session.Close()
	sess.sys.sessMu.Lock()
	delete(sess.sys.sessions, sess.ID)
	sess.sys.sessMu.Unlock()
}

// Ask posts a user utterance and waits for its answer: the first display
// output the utterance caused. The architecture is fully asynchronous; Ask
// is the convenience wrapper for request/response usage.
//
// Ask opens the ask's root span, whose id every message the ask causes
// carries: each component the ask flows through — tag-triggered agents, the
// coordinator's plan execution, scheduler steps, memo lookups, relational
// statements — anchors its spans beneath it by that id, so GET
// /trace/{session} (and bpctl trace) shows the full timed tree of the ask.
func (sess *Session) Ask(text string, timeout time.Duration) (string, error) {
	return sess.AskCtx(context.Background(), text, timeout)
}

// AskCtx is Ask with a context carrying the ask's trace id (obs.WithTraceID;
// one is minted when absent). Asks that exceed the flight recorder's
// threshold or error are captured as exemplars — span tree, overlapping
// events, cost breakdown — addressable by the trace id.
func (sess *Session) AskCtx(ctx context.Context, text string, timeout time.Duration) (string, error) {
	return sess.recordedAsk(ctx, text, nil, timeout)
}

// recordedAsk is an ungoverned ask, utterance or click (event set): askCore
// between beginAsk and recordAsk.
func (sess *Session) recordedAsk(ctx context.Context, text string, event map[string]any, timeout time.Duration) (string, error) {
	_, rec := sess.beginAsk(ctx)
	rec.text = text
	var out string
	out, rec.root, rec.err = sess.askCore(rec.trace, text, event, timeout)
	rec.dur = time.Since(rec.start)
	sess.recordAsk(rec)
	return out, rec.err
}

// beginAsk is the prologue of every ask, governed or not: it mints the ask's
// trace id when ctx carries none (returning a ctx that does), and opens the
// ask's record at the current time and event-log cursor. The caller fills in
// the rest as the ask proceeds and hands the record to recordAsk.
func (sess *Session) beginAsk(ctx context.Context) (context.Context, askRecord) {
	if ctx == nil {
		ctx = context.Background()
	}
	tid := obs.TraceIDFrom(ctx)
	if tid == "" {
		tid = obs.NewTraceID(sess.ID)
		ctx = obs.WithTraceID(ctx, tid)
	}
	return ctx, askRecord{trace: tid, start: time.Now(), evStart: obs.Events.Seq()}
}

// quiesceWait bounds how long an exemplar capture waits for the ask's
// laggard spans to end: only an agent that hangs takes it whole.
const quiesceWait = 50 * time.Millisecond

// askCore runs one ask under its root span and the ask-level instruments,
// returning its answer and the root. It posts the ask's input — the
// utterance, or the UI event when event is set (a click, whose text is the
// event's rendering) — stamped with the root's id, and takes as the answer
// the first display message carrying that id, at or past the display length
// read before the post.
func (sess *Session) askCore(tid, text string, event map[string]any, timeout time.Duration) (string, *obs.Span, error) {
	name := "ask"
	if event != nil {
		name = "click"
	}
	sp := obs.Spans.StartRoot(sess.ID, "session", name)
	sp.SetAttr("text", obs.Truncate(text, 80))
	sp.SetAttr("trace", tid)
	defer sp.End()
	mAsks.Inc()
	defer mAskLatency.ObserveSince(time.Now())

	from := sess.DisplayLen()
	var err error
	if event == nil {
		_, err = sess.PostUserText(sp.ID(), text)
	} else {
		_, err = sess.PostUserEvent(sp.ID(), event)
	}
	if err != nil {
		return "", sp, err
	}
	out, err := sess.AwaitAnswer(from, sp.ID(), timeout)
	if err != nil {
		return "", sp, fmt.Errorf("%w (%s)", ErrNoResponse, timeout)
	}
	return out, sp, nil
}

// askRecord carries one finished ask's identity and outcome to recordAsk.
type askRecord struct {
	trace   string
	tenant  string // "" outside the governed path (no tenant SLO series)
	text    string
	start   time.Time
	dur     time.Duration
	evStart uint64    // event-log cursor at ask start (the exemplar's window)
	root    *obs.Span // root span (nil = no span tree, e.g. shed before execution)
	outcome string    // "" = classify: error when err != nil, else slow-by-threshold
	err     error
}

// shedSampler thins shed-ask exemplar captures: under sustained overload
// every arrival sheds, and unsampled capture would wash the slow/degraded
// exemplars (the ones with span evidence) out of the recorder ring.
var shedSampler = obs.NewSampler(4)

// recordAsk is the per-ask observability funnel shared by AskCtx and
// GovernedAsk: it feeds the tenant's SLO series and captures a flight
// recorder exemplar when the ask was slow, failed, degraded or shed.
func (sess *Session) recordAsk(rec askRecord) {
	if rec.tenant != "" {
		// Sheds and degraded (stale) serves burn the tenant's error budget
		// alongside outright errors: the SLO promises a fresh answer in
		// time, and none of the three delivered one.
		bad := rec.err != nil ||
			rec.outcome == obs.OutcomeShed || rec.outcome == obs.OutcomeDegraded
		sess.sys.SLO.Record(obs.SLOTenant, rec.tenant, rec.dur, bad)
	}
	outcome := rec.outcome
	if outcome == "" && rec.err != nil {
		outcome = obs.OutcomeError
	}
	rcd := obs.SlowAsks
	if !rcd.ShouldCapture(rec.dur, outcome) {
		return
	}
	if outcome == "" {
		outcome = obs.OutcomeSlow
	}
	if outcome == obs.OutcomeShed && !shedSampler.Allow() {
		return
	}
	ex := obs.Exemplar{
		Trace: rec.trace, Session: sess.ID, Tenant: rec.tenant,
		Text: obs.Truncate(rec.text, 120), Start: rec.start, Dur: rec.dur,
		Outcome: outcome,
	}
	if rec.err != nil {
		ex.Err = rec.err.Error()
	}
	if rec.root != nil {
		ex.Spans = quiescedTree(sess.ID, rec.root)
	}
	ex.Events = filterAskEvents(obs.Events.Since(rec.evStart), sess.ID, rec.trace)
	// The cost breakdown is that of the plan the ask ran, found by the ask's
	// id once its spans have ended (the plan's span outlives the recording of
	// its result); an ask that ran no plan, as an NLQ chain does, has none.
	if rec.root != nil {
		for _, res := range sess.svc.Results() {
			if res.Ask == rec.root.ID() {
				ex.Breakdown = breakdownOf(res)
			}
		}
	}
	rcd.Capture(ex)
}

// quiescedTree snapshots an ask's span tree for an exemplar once every span
// of the ask has ended (root.Settled), or after quiesceWait when one hangs.
// This path only runs for asks that were already slow, degraded or failed,
// so the wait is free.
func quiescedTree(session string, root *obs.Span) []obs.SpanData {
	timer := time.NewTimer(quiesceWait)
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
// tagged with the ask's trace id or session, plus untagged process-global
// events (breaker transitions, WAL group commits) that overlapped it.
// Events tagged with a *different* trace or session are concurrent
// neighbors' and are dropped.
func filterAskEvents(events []obs.Event, session, trace string) []obs.Event {
	out := events[:0]
	for _, e := range events {
		switch {
		case trace != "" && e.Trace == trace:
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

// Answer is the result of a governed ask.
type Answer struct {
	// Text is the display answer.
	Text string
	// Degraded reports the answer was served from a stale memoized entry
	// during overload instead of being executed.
	Degraded bool
	// StaleFor is the served entry's age when Degraded.
	StaleFor time.Duration
	// TraceID correlates the answer with its span tree, events and any
	// flight-recorder exemplar (blueprintd returns it as X-Trace-Id).
	TraceID string
}

// GovernedAsk is Ask behind the overload governor: the ask first claims an
// admission slot for its tenant (waiting, bounded, when the daemon is at
// capacity). A shed ask is answered from a freshness-valid stale memoized
// answer when graceful degradation allows it — marked Degraded — and
// otherwise fails with a *resilience.OverloadError carrying the advisory
// Retry-After (blueprintd maps it to HTTP 429). Admitted asks execute
// normally and memoize their answer for future degraded serves. A nil
// governor (Config.Governor unset) admits everything immediately and, never
// shedding, memoizes no answers.
func (sess *Session) GovernedAsk(ctx context.Context, tenant, text string, timeout time.Duration) (Answer, error) {
	ctx, rec := sess.beginAsk(ctx)
	rec.tenant, rec.text = tenant, text
	tid, start := rec.trace, rec.start

	release, err := sess.sys.Governor.Admit(ctx, tenant)
	if err != nil {
		if ans, ok := sess.staleAnswer(text); ok {
			ans.TraceID = tid
			if obs.Events.On(obs.LevelWarn) {
				obs.Events.Append(obs.Event{
					Level: obs.LevelWarn, Component: "session", Kind: "degraded-ask",
					Session: sess.ID, Trace: tid,
					Attrs: []obs.Attr{
						{Key: "tenant", Value: tenant},
						{Key: "stale_for", Value: ans.StaleFor.String()},
					},
				})
			}
			rec.dur, rec.outcome = time.Since(start), obs.OutcomeDegraded
			sess.recordAsk(rec)
			return ans, nil
		}
		rec.dur, rec.outcome, rec.err = time.Since(start), obs.OutcomeShed, err
		sess.recordAsk(rec)
		return Answer{TraceID: tid}, err
	}
	defer release()
	out, root, askErr := sess.askCore(tid, text, nil, timeout)
	rec.dur, rec.root, rec.err = time.Since(start), root, askErr
	if askErr != nil {
		sess.recordAsk(rec)
		return Answer{TraceID: tid}, askErr
	}
	sess.rememberAnswer(text, out)
	sess.recordAsk(rec)
	return Answer{Text: out, TraceID: tid}, nil
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
	if sys.Governor == nil || sys.Memo == nil || sys.cfg.Degrade.Disabled {
		return
	}
	if key, ok := askKey(text); ok {
		sys.Memo.Put(key, askAgent, []string{"hr"}, sys.cfg.AskFreshness, memo.Entry{
			Outputs: map[string]any{"text": out},
		})
	}
}

// staleAnswer attempts the graceful-degradation path for a shed ask: a
// resident memoized answer for the same utterance, within the staleness
// bound Config.Degrade derives from Config.AskFreshness.
func (sess *Session) staleAnswer(text string) (Answer, bool) {
	sys := sess.sys
	if sys.Memo == nil || sys.cfg.Degrade.Disabled {
		return Answer{}, false
	}
	key, ok := askKey(text)
	if !ok {
		return Answer{}, false
	}
	ent, age, ok := sys.Memo.GetStale(key)
	if !ok || !sys.cfg.Degrade.Allows(sys.cfg.AskFreshness, age) {
		return Answer{}, false
	}
	out, _ := ent.Outputs["text"].(string)
	if out == "" {
		return Answer{}, false
	}
	sys.Governor.CountDegraded()
	return Answer{Text: out, Degraded: true, StaleFor: age}, true
}

// Click posts a UI event (e.g. selecting a job) and waits for the display
// output it caused (Fig. 9). A click is an ask: it roots a span tree for the
// duration and, slow or failed, is captured as an exemplar.
func (sess *Session) Click(event map[string]any, timeout time.Duration) (string, error) {
	return sess.ClickCtx(context.Background(), event, timeout)
}

// ClickCtx is Click with a context carrying the click's trace id, as AskCtx
// is Ask's.
func (sess *Session) ClickCtx(ctx context.Context, event map[string]any, timeout time.Duration) (string, error) {
	return sess.recordedAsk(ctx, fmt.Sprint(event), event, timeout)
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
// Fig. 9/10 verifications).
func (sess *Session) Flow() []trace.Step {
	return trace.Flow(sess.Store(), sess.ID)
}

// PlanResults returns the results of the plans the session's coordinator
// service executed most recently, oldest first — at most 64, however long
// the session has run.
func (sess *Session) PlanResults() []*coordinator.Result {
	return sess.svc.Results()
}
