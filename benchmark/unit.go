package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"blueprint"
	"blueprint/internal/agent"
	"blueprint/internal/durability"
	"blueprint/internal/httpapi"
	"blueprint/internal/memo"
	"blueprint/internal/obs"
	"blueprint/internal/relational"
	"blueprint/internal/resilience"
	"blueprint/internal/streams"
	"blueprint/internal/workload"
)

// A unit is one fixed-work run of one workload against a fresh System in a
// fresh process: set-up, the measured main phase and, on a workload with a
// data directory, crash-and-reopen cycles. Work is fixed, never a duration:
// an ask's cost depends on its session's age and on the number of live
// sessions, so a faster commit must not be handed older sessions. A run
// repeats units until its --seconds are spent and reports medians over them.

const (
	// traceEvery is the traced pass's sampling: the program's own span tree
	// is harvested for one ask in traceEvery per client.
	traceEvery = 16
	// A unit with a data directory ends with crash-and-reopen cycles: one, to
	// check that what was written is recovered, and in a traced unit
	// tracedRestarts, whose median is durability.recover_s.
	tracedRestarts = 3
)

type unitConfig struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Smoke runs the unit at 1/smokeDivisor of kScale (the smoke test).
	Smoke  bool `json:"smoke,omitempty"`
	Traced bool `json:"traced"`
	// WorkDir holds the write-mix data directory while the unit runs and
	// receives trace-<workload>.json from a traced unit.
	WorkDir string `json:"work_dir"`
}

type opCount struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

type unitResult struct {
	Config         unitConfig          `json:"config"`
	Sessions       int                 `json:"sessions"`
	AsksPerSession int                 `json:"asks_per_session"`
	Ops            map[string]*opCount `json:"ops"` // by operation type
	// E2E holds every end-to-end metric; Layer, in a traced unit, the
	// per-layer metrics taken from counters (C) and span trees (S).
	E2E   map[string]float64 `json:"end_to_end"`
	Layer map[string]float64 `json:"per_layer,omitempty"`
	// Samples is the number of latency samples behind each percentile metric.
	Samples map[string]int `json:"samples"`
	// WallS is the wall time of each phase of the unit and, filled in by the
	// runner, of its whole child process.
	WallS    map[string]float64 `json:"wall_s"`
	Failures []string           `json:"failures,omitempty"`
	// HostSpeed, filled in by the runner, is the speed of the host around the
	// unit (calib.go), by which the runner has corrected the times in E2E.
	HostSpeed float64 `json:"host_speed,omitempty"`
}

func (r *unitResult) attempted() (attempted, failed int) {
	for _, c := range r.Ops {
		attempted += c.Attempted
		failed += c.Failed
	}
	return
}

// host is one booted System behind a loopback listener.
type host struct {
	sys *blueprint.System
	srv *httptest.Server
}

// boot builds the System in its shipping configuration (telemetry on, event
// level info, governor off, no background snapshots) and serves the real
// httpapi handler on a loopback listener.
func boot(cfg blueprint.Config) (*host, error) {
	sys, err := blueprint.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("blueprint.New: %w", err)
	}
	return &host{sys: sys, srv: httptest.NewServer(httpapi.New(sys, httpapi.Options{}))}, nil
}

// stop shuts the listener and the System down; crash skips the final
// snapshot, as if the process had died.
func (h *host) stop(crash bool) {
	h.srv.Close()
	if crash {
		h.sys.SimulateCrash()
	} else {
		h.sys.Close()
	}
}

// counters is one snapshot of every public stats function the traced pass
// brackets its main phase with.
type counters struct {
	mem     runtime.MemStats
	streams streams.Stats
	memo    memo.Stats
	cache   relational.CacheStats
	dur     durability.Stats
	gov     resilience.GovernorStats
	obs     map[string]float64
}

func snapshot(sys *blueprint.System) *counters {
	c := &counters{
		streams: sys.Store.StatsSnapshot(), memo: sys.MemoStats(),
		cache: sys.Enterprise.DB.CacheStats(), dur: sys.DurabilityStats(),
		gov: sys.GovernorStats(), obs: obs.Default.Snapshot(),
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// clientRun is what one client goroutine brings back from the main phase.
type clientRun struct {
	lat      map[string][]float64 // µs by operation type, successes only, in issue order
	counts   map[string]*opCount
	failures []string
	tr       *tracer
	// Folded span trees of the sampled asks (traced pass).
	rootNS, spans int64
	trees         int
	self          map[string]int64
	overheadUS    []float64 // client ask time minus root span duration
}

func newClientRun(tr *tracer) *clientRun {
	return &clientRun{lat: map[string][]float64{}, counts: map[string]*opCount{}, self: map[string]int64{}, tr: tr}
}

func (r *clientRun) record(kind string, took time.Duration, err error) {
	c := r.counts[kind]
	if c == nil {
		c = &opCount{}
		r.counts[kind] = c
	}
	c.Attempted++
	if err != nil {
		c.Failed++
		if len(r.failures) < 5 {
			r.failures = append(r.failures, kind+": "+err.Error())
		}
		return
	}
	c.Succeeded++
	r.lat[kind] = append(r.lat[kind], float64(took.Nanoseconds())/1e3)
}

// sampled is an ask whose span tree is still to be harvested.
type sampled struct {
	session, trace, span string
	took                 time.Duration
}

func (r *clientRun) harvest(s *sampled) {
	tree := r.tr.harvest(s.session, s.trace, s.span)
	if tree == nil {
		return
	}
	f := fold(tree)
	r.trees++
	r.rootNS += f.RootNS
	r.spans += int64(f.Spans)
	for comp, ns := range f.Self {
		r.self[comp] += ns
	}
	r.overheadUS = append(r.overheadUS, float64(s.took.Nanoseconds()-f.RootNS)/1e3)
}

// writeSQL is the statement a write issues, as an application would send it.
func writeSQL(app int, status string) string {
	return fmt.Sprintf("UPDATE applications SET status = '%s' WHERE id = %d", status, app)
}

// write times one status UPDATE through Enterprise.DB.Exec and tells the
// oracle about it.
func (r *clientRun) write(db *relational.DB, orc *oracle, parent string, app int, status string) {
	start := time.Now()
	n, err := db.Exec(writeSQL(app, status))
	took := time.Since(start)
	if err == nil && n != 1 {
		err = fmt.Errorf("UPDATE of application %d touched %d rows", app, n)
	}
	if err == nil {
		orc.applyWrite(app, status)
	}
	r.record(opWrite, took, err)
	r.tr.add(parent, "relational/update", start, took)
}

// play runs one client's operations in order, closed loop, zero think time.
func play(h *host, ops []op, sessions []string, orc *oracle, run *clientRun, parent string) {
	cl := newClient(h.srv.URL)
	defer cl.close()
	db := h.sys.Enterprise.DB
	var pending *sampled
	asks := 0
	// planned[s]: the last ask on the client's session s was a planned one.
	planned := make([]bool, len(sessions))
	for i := range ops {
		o := &ops[i]
		start := time.Now()
		var next *sampled
		switch o.Kind {
		case opCreate:
			id, took, err := cl.create()
			sessions[o.Session] = id
			run.record(opCreate, took, err)
			run.tr.add(parent, "http/create", start, took)
		case opWrite:
			run.write(db, orc, parent, o.App, o.Status)
		case opAsk:
			if planned[o.Session] {
				if err := awaitResult(h.sys.Store, sessions[o.Session]); err != nil {
					run.record("settle", 0, err)
				}
				start = time.Now()
			}
			planned[o.Session] = o.Shape == shapeSummarize || o.Shape == shapeRank
			answer, trace, took, err := cl.ask(sessions[o.Session], o.Tenant, o.Text)
			if err == nil {
				err = orc.check(o, answer)
			}
			run.record(opAsk, took, err)
			span := run.tr.add(parent, "http/ask", start, took)
			// The sampled position rotates through each block of traceEvery
			// asks, so that sampling cannot lock onto the shape rotation.
			if block := asks / traceEvery; run.tr != nil && err == nil && asks%traceEvery == block%traceEvery {
				next = &sampled{session: sessions[o.Session], trace: trace, span: span, took: took}
			}
			asks++
		}
		// A sampled ask's tree is read once the client's following operation
		// has completed: by then its laggard agent spans have ended, and the
		// session's ring has not yet been evicted by other sessions' asks.
		if pending != nil {
			run.harvest(pending)
		}
		pending = next
	}
	if pending != nil {
		time.Sleep(2 * time.Millisecond)
		run.harvest(pending)
	}
}

// awaitResult is the closed loop's "a chat session waits for its answer":
// a planned ask's display output ends with the coordinator's "result"
// message, which lands a moment after the agent's own display message that
// the ask returns (and is the only message when the step was a memo hit).
// The seed commit hands that late message to the session's next ask as its
// answer if the ask arrives first, so the client waits for it here, outside
// the timed window. A planned ask that never shows a result is a failure.
func awaitResult(store *streams.Store, session string) error {
	display := agent.DisplayStream(session)
	deadline := time.Now().Add(time.Second)
	for spins := 0; ; spins++ {
		info, err := store.Info(display)
		if err != nil {
			return err
		}
		if last, err := store.Read(display, info.Len-1, 1); err == nil && len(last) == 1 && last[0].Sender == "coordinator" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("planned ask on %s showed no coordinator result within 1s", session)
		}
		if spins < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

func runUnit(cfg unitConfig) (*unitResult, error) {
	sp, err := specByName(cfg.Workload)
	if err != nil {
		return nil, err
	}
	clients := clientCount()
	if clients > runtime.NumCPU() {
		return nil, fmt.Errorf("refusing to run %d client goroutines on %d CPUs", clients, runtime.NumCPU())
	}
	scale := kScale
	if cfg.Smoke {
		scale = 1.0 / smokeDivisor
	}
	sessions, asks := sp.sized(scale, cfg.Smoke, clients)
	res := &unitResult{
		Config: cfg, Sessions: sessions, AsksPerSession: asks,
		Ops: map[string]*opCount{}, E2E: map[string]float64{}, Samples: map[string]int{}, WallS: map[string]float64{},
	}
	bcfg := blueprint.Config{}
	if sp.Medium {
		bcfg.Scale = workload.MediumScale()
	}
	if sp.WriteEvery > 0 {
		if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(cfg.WorkDir, "data-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		bcfg.DataDir = dir
	}

	// ---- set-up: System, listener, pre-created sessions (timed as setup_s).
	epoch := time.Now()
	var tr *tracer
	if cfg.Traced {
		tr = newTracer("0", epoch)
	}
	h, err := boot(bcfg)
	if err != nil {
		return nil, err
	}
	defer func() {
		if h != nil {
			h.stop(false)
		}
	}()
	per := sessions / clients
	ids := make([][]string, clients)
	for c := range ids {
		ids[c] = make([]string, per)
	}
	var setupCreates []float64 // us, one per pre-created session
	if !sp.CreateTimed {
		cl := newClient(h.srv.URL)
		for s := 0; s < sessions; s++ {
			id, took, err := cl.create()
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			ids[s%clients][s/clients] = id
			setupCreates = append(setupCreates, float64(took.Nanoseconds())/1e3)
		}
		cl.close()
	}
	setup := time.Since(epoch)
	res.E2E["setup_s"] = setup.Seconds()
	res.WallS["setup"] = setup.Seconds()
	rootSpan := tr.add("", "run/"+sp.Name, epoch, 0) // end patched below
	tr.add(rootSpan, "blueprint/setup", epoch, setup)

	// ---- inputs and oracle (untimed).
	orc, w, err := loadOracle(h.sys.Enterprise.DB)
	if err != nil {
		return nil, err
	}
	plans := make([][]op, clients)
	for c := range plans {
		if plans[c], err = generate(sp, cfg.Seed, c, clients, sessions, asks, w); err != nil {
			return nil, err
		}
	}

	// ---- main phase.
	runs := make([]*clientRun, clients)
	for c := range runs {
		var ctr *tracer
		if cfg.Traced {
			ctr = newTracer(fmt.Sprint(c+1), epoch)
		}
		runs[c] = newClientRun(ctr)
	}
	runtime.GC()
	before := snapshot(h.sys)
	var wg sync.WaitGroup
	mainStart := time.Now()
	for c := range runs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			play(h, plans[c], ids[c], orc, runs[c], rootSpan)
		}(c)
	}
	wg.Wait()
	mainWall := time.Since(mainStart)
	after := snapshot(h.sys)
	goroutines := runtime.NumGoroutine()
	tr.add(rootSpan, "run/main", mainStart, mainWall)
	res.WallS["main"] = mainWall.Seconds()

	lat := map[string][]float64{}
	var firstTenth, lastTenth []float64
	for _, r := range runs {
		for kind, c := range r.counts {
			addCount(res.Ops, kind, c)
		}
		for kind, xs := range r.lat {
			lat[kind] = append(lat[kind], xs...)
		}
		if n := len(r.lat[opAsk]) / 10; n > 0 {
			firstTenth = append(firstTenth, r.lat[opAsk][:n]...)
			lastTenth = append(lastTenth, r.lat[opAsk][len(r.lat[opAsk])-n:]...)
		}
		res.Failures = append(res.Failures, r.failures...)
	}
	okAsks := float64(len(lat[opAsk]))
	if okAsks == 0 {
		return res, fmt.Errorf("%s: no ask succeeded: %v", sp.Name, res.Failures)
	}
	askLat := sortedCopy(lat[opAsk])
	res.E2E["ask_p50_us"] = percentile(askLat, 50)
	res.E2E["ask_p95_us"] = percentile(askLat, 95)
	res.E2E["asks_per_s"] = okAsks / mainWall.Seconds()
	res.E2E["alloc_kb_per_ask"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1024 / okAsks
	res.Samples["ask"] = len(askLat)

	// Retained heap: what the still-open system holds once garbage is gone.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.E2E["retained_mb"] = float64(ms.HeapAlloc) / (1 << 20)

	// ---- restarts (write-mix): crash, reopen on the same data directory and
	// time until the first correct answer over HTTP. ISSUE 11 makes recover_s,
	// write_p50_us and session_p50_us end-to-end metrics of the one workload
	// that has the operation, but BENCHMARK.json's driver wants every
	// end-to-end metric from every workload, so the three are per-layer
	// metrics instead, taken where the operation happens (README.md).
	restarts := 0
	if bcfg.DataDir != "" {
		restarts = 1
		if cfg.Traced {
			restarts = tracedRestarts
		}
	}
	tail := newClientRun(tr)
	var replayRates []float64
	restartsStart := time.Now()
	for i := 0; i < restarts; i++ {
		h.stop(true)
		// A recovering process starts with an empty heap: collect the crashed
		// system first, or the reopen is charged for its garbage.
		runtime.GC()
		start := time.Now()
		if h, err = boot(bcfg); err != nil {
			return res, fmt.Errorf("restart %d: %w", i+1, err)
		}
		cl := newClient(h.srv.URL)
		q := restartProbe(plans, i)
		id, _, err := cl.create()
		if err == nil {
			var answer string
			if answer, _, _, err = cl.ask(id, tenants[0], q.Text); err == nil {
				err = orc.check(&q, answer)
			}
		}
		took := time.Since(start)
		cl.close()
		tail.record("recover", took, err)
		tr.add(rootSpan, "blueprint/restart", start, took)
		if rec := h.sys.DurabilityStats().Recovery; rec.Duration > 0 {
			replayRates = append(replayRates, float64(rec.ReplayedRecords)/rec.Duration.Seconds())
		}
	}
	// Every write the benchmark issued, and nothing else, is in the data —
	// on write-mix this is the recovered database.
	tail.record("verify", 0, orc.verify(h.sys.Enterprise.DB))
	res.WallS["restarts"] = time.Since(restartsStart).Seconds()
	for kind, c := range tail.counts {
		addCount(res.Ops, kind, c)
	}
	res.Failures = append(res.Failures, tail.failures...)
	for _, kind := range []string{opCreate, opWrite} {
		res.Samples[kind] = len(lat[kind])
	}
	attempted, failed := res.attempted()
	res.E2E["fail_ratio"] = float64(failed) / float64(attempted)

	if cfg.Traced {
		res.Layer = layerMetrics(runs, lat, before, after, okAsks)
		res.Layer["session.age_cost_ratio"] = ratio(median(lastTenth), median(firstTenth))
		res.Layer["proc.goroutines_end"] = float64(goroutines)
		res.Layer["durability.replay_records_per_s"] = median(replayRates)
		res.Layer["durability.recover_s"] = median(tail.lat["recover"]) / 1e6
		res.Layer["relational.write_p50_us"] = percentile(sortedCopy(lat[opWrite]), 50)
		creates := lat[opCreate]
		if !sp.CreateTimed {
			creates = setupCreates
		}
		res.Layer["session.create_p50_us"] = percentile(sortedCopy(creates), 50)
		if tr != nil {
			tr.spans[0].End = time.Since(epoch).Nanoseconds()
			all := tr.spans
			for _, r := range runs {
				all = append(all, r.tr.spans...)
			}
			if err := writeJSON(cfg.WorkDir, "trace-"+sp.Name+".json", all); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

// restartProbe picks the ask whose correct answer ends restart cycle i: the
// planned ask nearest the end of the first client's list (on write-mix its
// answer depends on recovered writes), or else the last ask.
func restartProbe(plans [][]op, i int) op {
	ops := plans[0]
	seen := 0
	for k := len(ops) - 1; k >= 0; k-- {
		if ops[k].Kind == opAsk && ops[k].Shape == shapeSummarize {
			if seen == i {
				return ops[k]
			}
			seen++
		}
	}
	for k := len(ops) - 1; k >= 0; k-- {
		if ops[k].Kind == opAsk {
			return ops[k]
		}
	}
	return op{}
}

func addCount(into map[string]*opCount, kind string, c *opCount) {
	t := into[kind]
	if t == nil {
		t = &opCount{}
		into[kind] = t
	}
	t.Attempted += c.Attempted
	t.Succeeded += c.Succeeded
	t.Failed += c.Failed
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives the counter (C) and span (S) metrics of a traced unit.
func layerMetrics(runs []*clientRun, lat map[string][]float64, before, after *counters, asks float64) map[string]float64 {
	m := map[string]float64{}
	d := func(name string) float64 { return after.obs[name] - before.obs[name] }
	writes := float64(len(lat[opWrite]))

	m["streams.msgs_per_ask"] = float64(after.streams.MessagesAppended-before.streams.MessagesAppended) / asks
	m["streams.deliveries_per_ask"] = float64(after.streams.Deliveries-before.streams.Deliveries) / asks
	m["streams.subscriptions"] = float64(after.streams.Subscriptions)

	lookups := float64(after.memo.Hits + after.memo.Misses - before.memo.Hits - before.memo.Misses)
	m["memo.lookups_per_ask"] = lookups / asks
	m["memo.hit_ratio"] = ratio(float64(after.memo.Hits-before.memo.Hits), lookups)
	m["memo.invalidations_per_write"] = ratio(float64(after.memo.Invalidations-before.memo.Invalidations), writes)

	m["relational.stmts_per_ask"] = d("blueprint_sql_statements_total") / asks
	stmtLookups := float64(after.cache.Hits + after.cache.Misses - before.cache.Hits - before.cache.Misses)
	m["relational.shape_hit_ratio"] = ratio(float64(after.cache.ShapeHits-before.cache.ShapeHits), stmtLookups)
	m["relational.compiles"] = float64(after.cache.Compiles - before.cache.Compiles)
	// Statement time over ask time, both as the program's own histograms sum
	// them: unlike relational.self_pct it also sees statements that run
	// outside any span (NL2Q's value-hint lookups).
	m["relational.time_pct"] = ratio(d("blueprint_sql_latency_seconds_sum")*100, d("blueprint_ask_latency_seconds_sum"))

	appends := float64(after.dur.Appends - before.dur.Appends)
	m["durability.appends_per_ask"] = appends / asks
	m["durability.bytes_per_ask"] = float64(after.dur.AppendedBytes-before.dur.AppendedBytes) / asks
	m["durability.fsyncs_per_1k_appends"] = ratio(float64(after.dur.Fsyncs-before.dur.Fsyncs)*1000, appends)

	m["resilience.shed"] = float64(after.gov.Shed - before.gov.Shed)

	attemptedAsks := 0
	for _, r := range runs {
		attemptedAsks += r.counts[opAsk].Attempted
	}
	m["obs.asks_counted_ratio"] = d("blueprint_asks_total") / float64(attemptedAsks)
	askLat := sortedCopy(lat[opAsk])
	m["obs.server_p50_skew_pct"] = (after.obs["blueprint_ask_latency_seconds_p50"]*1e6/percentile(askLat, 50) - 1) * 100
	m["httpapi.ask_p99_us"] = percentile(askLat, 99)

	m["proc.mallocs_per_ask"] = float64(after.mem.Mallocs-before.mem.Mallocs) / asks
	m["proc.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	m["proc.gc_pause_total_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	m["proc.peak_heap_mb"] = float64(after.mem.HeapSys) / (1 << 20)

	// Span fold over the sampled asks: self time per component as a share
	// of the root session/ask spans.
	var rootNS, spans, trees int64
	self := map[string]int64{}
	var overhead []float64
	for _, r := range runs {
		rootNS += r.rootNS
		spans += r.spans
		trees += int64(r.trees)
		overhead = append(overhead, r.overheadUS...)
		for comp, ns := range r.self {
			self[comp] += ns
		}
	}
	share := func(comp string) float64 { return ratio(float64(self[comp])*100, float64(rootNS)) }
	m["obs.unattributed_pct"] = share("session")
	m["agent.self_pct"] = share("agent")
	m["nlq.self_pct"] = share("planner")
	m["coordinator.self_pct"] = share("coordinator")
	m["scheduler.self_pct"] = share("scheduler")
	m["memo.self_pct"] = share("memo")
	m["relational.self_pct"] = share("relational")
	m["obs.spans_per_ask"] = ratio(float64(spans), float64(trees))
	m["obs.trees_sampled"] = float64(trees)
	m["httpapi.ask_overhead_us"] = median(overhead)
	return m
}
