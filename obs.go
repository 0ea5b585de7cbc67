package blueprint

import (
	"blueprint/internal/obs"
)

// Ask-level instruments: end-to-end latency of the request/response
// convenience path, the quantiles bpctl top and GET /metrics report.
var (
	mAsks       = obs.Default.Counter("blueprint_asks_total", "session asks (user utterances and clicks awaited to a display answer)")
	mAskLatency = obs.Default.Histogram("blueprint_ask_latency_seconds", "end-to-end ask latency, post to display answer", obs.LatencyBuckets)
)

// registerInstruments bridges the pre-existing hand-rolled subsystem stats
// (memo store, relational statement cache, durability engine, session
// manager) into the process-global registry as func-backed instruments:
// /metrics and /stats read one registry instead of assembling ad-hoc maps,
// and the subsystem structs stay the single source of truth. Func-backed
// registration is last-wins, so the most recently constructed System feeds
// the bridges (relevant only to test processes building several Systems).
func (s *System) registerInstruments() {
	r := obs.Default

	// Memoization store (nil-safe: Stats() returns zeros when disabled).
	r.CounterFunc("blueprint_memo_hits_total", "memo lookups served from cache", func() float64 {
		return float64(s.Memo.Stats().Hits)
	})
	r.CounterFunc("blueprint_memo_misses_total", "memo lookups that executed the step", func() float64 {
		return float64(s.Memo.Stats().Misses)
	})
	r.CounterFunc("blueprint_memo_coalesced_total", "memo requests coalesced onto an identical in-flight execution", func() float64 {
		return float64(s.Memo.Stats().Coalesced)
	})
	r.CounterFunc("blueprint_memo_invalidations_total", "memo entries dropped by registry or data-version changes", func() float64 {
		return float64(s.Memo.Stats().Invalidations)
	})
	r.CounterFunc("blueprint_memo_evictions_total", "memo entries dropped by the LRU bound", func() float64 {
		return float64(s.Memo.Stats().Evictions)
	})
	r.CounterFunc("blueprint_memo_restored_total", "memo entries restored by durability recovery", func() float64 {
		return float64(s.Memo.Stats().Restored)
	})
	r.GaugeFunc("blueprint_memo_entries", "resident memo entries", func() float64 {
		return float64(s.Memo.Stats().Entries)
	})

	// Relational statement cache.
	db := s.Enterprise.DB
	r.CounterFunc("blueprint_stmt_cache_hits_total", "statement-cache lookups served without parsing", func() float64 {
		return float64(db.CacheStats().Hits)
	})
	r.CounterFunc("blueprint_stmt_cache_shape_hits_total", "statement-cache hits served by fingerprint shape keys", func() float64 {
		return float64(db.CacheStats().ShapeHits)
	})
	r.CounterFunc("blueprint_stmt_cache_misses_total", "statement-cache lookups that parsed", func() float64 {
		return float64(db.CacheStats().Misses)
	})
	r.CounterFunc("blueprint_plan_compiles_total", "relational plan compilations", func() float64 {
		return float64(db.CacheStats().Compiles)
	})
	r.CounterFunc("blueprint_table_profile_builds_total", "table profiles (re)built because a write moved the table's data version", func() float64 {
		return float64(db.CacheStats().ProfileBuilds)
	})
	r.CounterFunc("blueprint_table_profile_hits_total", "table profile lookups served from the cached profile", func() float64 {
		return float64(db.CacheStats().ProfileHits)
	})

	// Durability engine (zeros when durability is disabled).
	r.CounterFunc("blueprint_durability_appends_total", "WAL record appends across all subsystems", func() float64 {
		return float64(s.DurabilityStats().Appends)
	})
	r.CounterFunc("blueprint_durability_fsyncs_total", "group-commit fsyncs", func() float64 {
		return float64(s.DurabilityStats().Fsyncs)
	})
	r.CounterFunc("blueprint_durability_snapshots_total", "snapshots taken", func() float64 {
		return float64(s.DurabilityStats().Snapshots)
	})
	r.GaugeFunc("blueprint_durability_log_bytes", "resident WAL bytes awaiting the next snapshot", func() float64 {
		return float64(s.DurabilityStats().LogBytes)
	})

	// Stream store.
	r.CounterFunc("blueprint_streams_created_total", "streams created", func() float64 {
		return float64(s.Store.StatsSnapshot().StreamsCreated)
	})
	r.CounterFunc("blueprint_stream_messages_total", "messages appended across all streams", func() float64 {
		return float64(s.Store.StatsSnapshot().MessagesAppended)
	})
	r.CounterFunc("blueprint_stream_deliveries_total", "messages delivered to subscribers", func() float64 {
		return float64(s.Store.StatsSnapshot().Deliveries)
	})
	r.GaugeFunc("blueprint_stream_subscriptions", "live stream subscriptions", func() float64 {
		return float64(s.Store.StatsSnapshot().Subscriptions)
	})

	// Sessions.
	r.GaugeFunc("blueprint_sessions_open", "open sessions", func() float64 {
		return float64(len(s.Sessions.List()))
	})

	// Attribution plane: SLO burn rates as labeled gauges, plus the event
	// log's and flight recorder's ring occupancy (the flight-recorder
	// overload test holds the rings to their capacity bounds).
	r.SLOFunc("blueprint_slo_burn_rate", "error-budget burn rate per tenant/agent series and window (1.0 = burning exactly the budget)", s.SLO)
	r.GaugeFunc("blueprint_events_retained", "events retained in the bounded event ring", func() float64 {
		return float64(obs.Events.Len())
	})
	r.CounterFunc("blueprint_events_seq", "events emitted since process start (ring sequence head)", func() float64 {
		return float64(obs.Events.Seq())
	})
	r.CounterFunc("blueprint_slow_ask_captures_total", "asks captured by the flight recorder (slow, error, degraded or shed)", func() float64 {
		return float64(obs.SlowAsks.Captures())
	})
	r.GaugeFunc("blueprint_slow_ask_exemplars", "exemplars retained in the flight recorder ring", func() float64 {
		return float64(obs.SlowAsks.Len())
	})
	r.GaugeFunc("blueprint_trace_sessions", "session span rings retained by the tracer", func() float64 {
		return float64(obs.Spans.SessionCount())
	})

	// Resilience: breaker states and governor occupancy (the counters —
	// trips, rejections, sheds, degraded answers — are package-level in
	// internal/resilience; these gauges read this System's instances and
	// are nil-safe when the governor is disabled).
	r.GaugeFunc("blueprint_breakers_open", "agents whose circuit breaker is open or half-open", func() float64 {
		return float64(s.Breakers.OpenCount())
	})
	r.GaugeFunc("blueprint_governor_inflight", "governed asks holding admission slots", func() float64 {
		return float64(s.Governor.Stats().InFlight)
	})
	r.GaugeFunc("blueprint_governor_queued", "governed asks waiting for an admission slot", func() float64 {
		return float64(s.Governor.Stats().Queued)
	})
}
