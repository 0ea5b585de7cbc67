// Package blueprint is a complete Go implementation of the compound-AI
// blueprint architecture of "Orchestrating Agents and Data for Enterprise"
// (Kandogan et al., ICDE 2025): streams orchestrating data and control
// among agents, agent and data registries mapping enterprise models and
// sources, task and data planners, a budget-aware task coordinator, and a
// multi-objective optimizer — together with an embedded enterprise substrate
// (relational engine, document store, graph store, simulated LLM)
// and the paper's HR case study (Agentic Employer, Career Assistant).
//
// The System type wires everything; Session provides the conversational
// surface:
//
//	sys, _ := blueprint.New(blueprint.Config{})
//	defer sys.Close()
//	s, _ := sys.StartSession("")
//	answer, _ := s.Ask("How many jobs are in San Francisco?", 5*time.Second)
//
// # Relational hot path and the statement cache
//
// The embedded relational engine (internal/relational) backs every
// NLQ->SQL and data-plan turn, so its fixed per-query costs are the
// system's hottest path. The engine amortizes lexing and parsing with a
// bounded, concurrency-safe LRU statement cache consulted transparently by
// DB.Query and DB.Exec; DB.Prepare returns an explicit reusable *Stmt for
// templated queries (the agent suite prepares its fixed SQL once per
// session). Any DDL — CREATE/DROP TABLE, CREATE INDEX — flushes the cached
// statements referencing the altered table (other tables' statements stay
// resident), so no stale plan survives a schema change.
//
// The dialect is as wide as what the program emits (the agent suite's
// prepared statements, NL2Q, the data plan's IN-list semi-join, the workload
// builder): statements over one table — filters, GROUP BY with
// COUNT/SUM/AVG/MIN/MAX, SELECT DISTINCT, ORDER BY, LIMIT/OFFSET, INSERT,
// UPDATE, DELETE, DDL. Sources are combined in the data plan, not in SQL:
// JOIN, table aliases, qualified columns, HAVING, BETWEEN and aggregate
// DISTINCT are refused by the parser, by name
// (internal/relational/ARCHITECTURE.md, "Dialect").
//
// Beyond parse amortization, every SELECT/INSERT/UPDATE/DELETE is compiled
// at prepare time (internal/relational/compile.go) — the compiled program is
// the engine's only executor: every column reference is resolved to a
// positional offset once and the expression trees are lowered into closures,
// so per-row evaluation does no string matching and no AST dispatch; GROUP BY
// and DISTINCT key their tables through an allocation-free binary encoder,
// and ORDER BY + LIMIT runs through a bounded top-k heap. Compiled plans ride
// on *Stmt handles and in the statement cache, invalidated per table by
// schema versions (CREATE/DROP TABLE recompiles; CREATE INDEX is picked up by
// the runtime access-path planner without recompiling). Effectiveness is
// observable: DB.CacheStats reports hits, misses, evictions, invalidations,
// plan compiles and the hit rate. The relational benchmarks (`make bench`,
// BenchmarkPointQueryUncached/Cached/Prepared and the *Interpreted/*Compiled
// pairs, the former running the test-only reference interpreter) measure
// the effects per query; the repo benchmark (benchmark/) tracks them per ask
// as relational.shape_hit_ratio, relational.compiles and the
// relational.*_us probes.
//
// # Step-result memoization
//
// Above the data layer, the coordinator memoizes whole plan steps
// (internal/memo): results of agents declared Cacheable in the registry
// are cached by a content hash of (agent, version, inputs) and reused
// across plans and sessions — a warm repeated ask executes nothing, is
// charged nothing, and is admitted by the optimizer at its residual
// projected cost, while single-flight deduplication collapses N concurrent
// identical steps into one execution. Registry updates and data-asset
// version bumps invalidate entries automatically (and poison in-flight
// executions, so stale results are never cached or shared). Tune with
// Config.MemoCapacity / Config.DisableMemo, observe through
// System.MemoStats, blueprintd's GET /memo, `bpctl memo <utterance>`, and
// `go run ./cmd/benchharness -fig A6`.
//
// # Durability and warm restarts
//
// Setting Config.DataDir turns on the durability subsystem
// (internal/durability): one segmented, CRC-framed, group-committed
// write-ahead log plus snapshot files shared by the relational engine
// (logical DML/DDL records, table + schema-version snapshots), the memo
// store (cacheable step results, version-checked at restore against the
// recovered registries), both registries (every mutation a logged record,
// plus snapshots) and the streams store (every stream creation and message,
// as JSON record bodies). A restarted System recovers all of it — snapshot
// restore plus log replay, with a torn final record truncated rather than
// fatal — so a repeated ask after a restart is a memo hit instead of a cold
// re-execution.
// System.Close flushes a final snapshot; Config.SnapshotEvery adds
// background snapshots that bound recovery time and truncate the log.
// Observe through System.DurabilityStats, blueprintd's /stats and POST
// /snapshot (with -data-dir and graceful SIGINT/SIGTERM shutdown), `bpctl
// -data-dir D snapshot`, and `go run ./cmd/benchharness -fig A8` (crash
// replay vs snapshot restore, warm-memo hit rate across restart).
package blueprint

import (
	"time"

	"blueprint/internal/budget"
	"blueprint/internal/llm"
	"blueprint/internal/obs"
	"blueprint/internal/resilience"
	"blueprint/internal/workload"
)

// Version is the library version.
const Version = "1.0.0"

// Config configures a System. The zero value is a working development
// configuration: a small deterministic enterprise, the large (most
// accurate) simulated model tier, no persistence, and a $1 per-request
// budget.
type Config struct {
	// Seed drives all synthetic data and the simulated model (default 42).
	Seed int64
	// Scale sizes the generated enterprise (default workload.SmallScale).
	Scale workload.Scale
	// ModelTier selects the simulated LLM tier: "small", "medium", "large"
	// (default "large").
	ModelTier llm.Tier
	// ModelAccuracy overrides the tier's accuracy when in (0, 1].
	ModelAccuracy float64
	// DataDir enables the durability subsystem: one segmented write-ahead
	// log + snapshot directory shared by the relational engine, the memo
	// store, both registries and the streams store. Opening a System over
	// an existing DataDir recovers all of it — tables, registry versions,
	// warm memo entries, stream history — via snapshot restore plus log
	// replay (a torn final record after a crash is truncated, not fatal).
	DataDir string
	// SnapshotEvery takes background snapshots at this interval when
	// DataDir is set (0 = only on Close and explicit System.Snapshot
	// calls). Snapshots bound recovery time: restore is one sequential
	// read instead of a full log replay, and superseded log segments are
	// deleted.
	SnapshotEvery time.Duration
	// Budget is the per-request QoS limit enforced by the coordinator
	// (default: MaxCost $1).
	Budget budget.Limits
	// MaxParallel bounds how many plan steps the coordinator executes
	// concurrently (default coordinator.DefaultMaxParallel; 1 = sequential).
	// blueprintd exposes it as the -parallel flag.
	MaxParallel int
	// MemoCapacity bounds the coordinator's cross-session step-result
	// memoization cache (entries; default memo.DefaultCapacity).
	MemoCapacity int
	// DisableMemo turns step-result memoization off: every plan step
	// executes fresh even for Cacheable agents.
	DisableMemo bool
	// DisableStandardAgents skips spawning the case-study agents in new
	// sessions (for applications registering only their own agents).
	DisableStandardAgents bool
	// Retry is the coordinator's per-step retry policy: failed executions
	// retry with exponential backoff + jitter, every backoff charged
	// against the plan's latency budget so retries can never blow the
	// deadline (default resilience.DefaultRetryPolicy; MaxAttempts 1
	// disables retrying).
	Retry resilience.RetryPolicy
	// Breaker configures the per-agent circuit breakers the scheduler
	// consults before every dispatch (zero value = resilience defaults).
	Breaker resilience.BreakerConfig
	// Governor bounds concurrent governed asks (Session.GovernedAsk, the
	// blueprintd ask endpoint): a global in-flight slot pool with a
	// bounded fair-share wait queue and load shedding. The zero value
	// (MaxConcurrent 0) disables admission control.
	Governor resilience.GovernorConfig
	// Degrade controls graceful degradation: when a breaker is open or
	// the governor sheds, a stale memoized result within StaleFactor x
	// the declared freshness may be served, marked Degraded, instead of
	// failing (zero value = StaleFactor 4; Disabled turns it off).
	Degrade resilience.DegradePolicy
	// AskFreshness is the freshness tolerance attached to memoized
	// ask-level answers, bounding how stale a degraded answer served
	// during overload may be (default 30s; with the default StaleFactor
	// a shed ask may be answered from a result up to 2m old).
	AskFreshness time.Duration
	// SlowAskThreshold sets the flight recorder's capture threshold: asks
	// slower than it (or erroring, degraded, shed) are captured with their
	// span tree, event slice and cost breakdown into obs.SlowAsks, served
	// at GET /slow. Zero leaves the process-global threshold alone
	// (obs.DefaultSlowThreshold on a fresh process); negative disables
	// capture.
	SlowAskThreshold time.Duration
	// SLO configures the per-tenant/per-agent SLO burn-rate accounting
	// (latency target, objective, fast/slow windows); zero-value fields
	// take obs defaults. Served at GET /slo, in /metrics and by bpctl top.
	SLO obs.SLOConfig
	// EventLevel sets the event log's minimum recorded level ("debug",
	// "info", "warn", "error", "off"); empty leaves the process-global
	// level alone (info).
	EventLevel string
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Scale == (workload.Scale{}) {
		c.Scale = workload.SmallScale()
	}
	if c.ModelTier == "" {
		c.ModelTier = llm.TierLarge
	}
	if c.Budget == (budget.Limits{}) {
		c.Budget = budget.Limits{MaxCost: 1.0}
	}
	if c.Retry == (resilience.RetryPolicy{}) {
		c.Retry = resilience.DefaultRetryPolicy()
	}
	if c.AskFreshness <= 0 {
		c.AskFreshness = 30 * time.Second
	}
	return c
}

// modelConfig resolves the tier preset and accuracy override.
func (c Config) modelConfig() llm.Config {
	presets := llm.Presets(c.Seed)
	var cfg llm.Config
	for _, p := range presets {
		if p.Tier == c.ModelTier {
			cfg = p
		}
	}
	if cfg.Name == "" {
		cfg = presets[len(presets)-1]
	}
	if c.ModelAccuracy > 0 && c.ModelAccuracy <= 1 {
		cfg.Accuracy = c.ModelAccuracy
	}
	cfg.BaseLatency = time.Millisecond // keep in-process sessions snappy
	return cfg
}
