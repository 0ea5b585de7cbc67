package experiments

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blueprint"
	"blueprint/internal/httpapi"
	"blueprint/internal/obs"
	"blueprint/internal/resilience"
	"blueprint/internal/workload"
)

// FlightRecorder (A12) measures the ask-level flight recorder end to end,
// over real HTTP: an open-loop multi-tenant workload drives a live
// blueprintd handler (actual TCP, JSON bodies, X-Tenant headers) through
// overload, and the experiment reads back what the observability plane
// captured — slow-ask exemplars with span trees and event slices, the
// structured event log, and per-tenant SLO burn rates scraped from
// /metrics like a dashboard would. A second phase prices the event log +
// recorder on the hot path by paired ratio.
//
// Enforced floors: the overload phase sheds (the governor engaged) and
// captures exemplars; every exemplar carries >= 1 resilience event; at
// least 3 slow-outcome exemplars carry span trees with >= 4 distinct
// components (the planned/NLQ deep paths);
// the scraped tenant fast-window burn exceeds 1 under overload and the
// baseline burn (the burn moved the right way); the event/exemplar/trace
// rings stay within their bounds; the driver leaks neither goroutines nor
// unbounded heap. In full (non-race) mode the event-log + recorder
// overhead on a memo-warm governed ask must stay <= 5%.
func FlightRecorder(seed int64) (*Table, error) {
	phaseDur, calibrationAsks := 2*time.Second, 12
	asksPerBatch, trials := 100, 5
	if Short {
		phaseDur, calibrationAsks = 600*time.Millisecond, 6
		asksPerBatch, trials = 10, 2
	}
	const (
		maxConcurrent = 4
		sessionPool   = 8
		queueTimeout  = 150 * time.Millisecond
		askFreshness  = time.Minute
	)

	// The event log, recorder and tracer are process-global; reset them for
	// a clean capture window and restore their knobs however this exits.
	prevLevel, prevThresh := obs.Events.Level(), obs.SlowAsks.Threshold()
	defer func() {
		obs.Events.SetLevel(prevLevel)
		obs.SlowAsks.SetThreshold(prevThresh)
	}()
	obs.Events.Reset()
	obs.SlowAsks.Reset()

	goroutinesBefore := runtime.NumGoroutine()
	var heapBefore runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&heapBefore)

	sys, err := blueprint.New(blueprint.Config{
		Seed: seed, ModelAccuracy: 1.0,
		Governor: resilience.GovernorConfig{
			MaxConcurrent: maxConcurrent,
			MaxQueue:      2 * maxConcurrent,
			QueueTimeout:  queueTimeout,
			RetryAfter:    100 * time.Millisecond,
		},
		AskFreshness: askFreshness,
		EventLevel:   "debug", // every admitted ask carries its admit event
		SLO: obs.SLOConfig{
			LatencyTarget: queueTimeout, Objective: 0.9,
			FastWindow: phaseDur, SlowWindow: 10 * time.Minute,
		},
	})
	if err != nil {
		return nil, err
	}

	// The live daemon: the real blueprintd handler behind a real listener.
	// The goroutine-leak floor needs everything torn down before counting,
	// so teardown is a once (it also runs early, before the overhead phase).
	srv := httptest.NewServer(httpapi.New(sys, httpapi.Options{}))
	driver := workload.NewHTTPDriver(srv.URL)
	var teardownOnce sync.Once
	teardown := func() {
		teardownOnce.Do(func() {
			srv.Close()
			driver.Client.CloseIdleConnections()
			sys.Close()
		})
	}
	defer teardown()

	sessions := make([]string, sessionPool)
	for i := range sessions {
		if sessions[i], err = driver.CreateSession(); err != nil {
			return nil, fmt.Errorf("A12 create session: %w", err)
		}
	}

	// Load shaping + calibration, as in A11: a fixed injected agent latency
	// makes per-ask service time meaningful, and sequential warm asks over
	// the wire measure it (HTTP included) so the offered rates track the
	// machine.
	inj := resilience.NewInjector(seed, resilience.Rule{
		Site: resilience.SiteAgent, Kind: resilience.KindLatency,
		Probability: 1, Latency: 4 * time.Millisecond,
	})
	resilience.Activate(inj)
	defer resilience.Deactivate()

	pool := workload.Queries(seed, 64)
	var serviceTime time.Duration
	for i := 0; i < calibrationAsks; i++ {
		start := time.Now()
		res, err := driver.Ask(sessions[i%sessionPool], "default", pool[i%len(pool)].Text, 10*time.Second)
		if err != nil {
			return nil, fmt.Errorf("A12 calibration ask: %w", err)
		}
		if res.Status != 200 {
			return nil, fmt.Errorf("A12 calibration ask: HTTP %d (%s)", res.Status, res.Err)
		}
		if res.TraceID == "" {
			return nil, fmt.Errorf("A12: ask response missing X-Trace-Id")
		}
		serviceTime += time.Since(start)
	}
	serviceTime /= time.Duration(calibrationAsks)
	capacity := float64(maxConcurrent) / serviceTime.Seconds()

	// Slow threshold: past two service times an admitted ask was visibly
	// queue-delayed. Sheds/errors/degraded asks are captured regardless.
	obs.SlowAsks.SetThreshold(2 * serviceTime)

	type phaseStats struct {
		arrivals, ok, degraded, shed, errors int
	}
	phase := func(phaseSeed int64, rate float64, burst workload.BurstConfig) phaseStats {
		arrivals := workload.OpenLoop(phaseSeed, workload.OpenLoopConfig{
			Rate: rate, Duration: phaseDur,
			Tenants: []string{"free", "pro", "enterprise"},
			Burst:   burst,
		})
		st := phaseStats{arrivals: len(arrivals)}
		results := make(chan workload.AskResult, len(arrivals))
		var next atomic.Int64
		workload.Replay(context.Background(), arrivals, func(a workload.Arrival) {
			i := int(next.Add(1)) % sessionPool
			res, err := driver.Ask(sessions[i], a.Tenant, a.Query.Text, 10*time.Second)
			if err != nil {
				res = workload.AskResult{Status: -1}
			}
			results <- res
		})
		close(results)
		for res := range results {
			switch {
			case res.Degraded:
				st.degraded++
			case res.Status == 200:
				st.ok++
			case res.Shed():
				st.shed++
			default:
				st.errors++
			}
		}
		return st
	}

	// Baseline at half capacity, then burn reading; overload at 2x with
	// bursts, then burn reading. The burn is scraped from /metrics — the
	// same labeled gauges a Prometheus dashboard would chart.
	base := phase(seed+1, capacity*0.5, workload.BurstConfig{})
	baseBurn, err := maxTenantFastBurn(driver)
	if err != nil {
		return nil, fmt.Errorf("A12 baseline scrape: %w", err)
	}
	over := phase(seed+2, capacity*2, workload.BurstConfig{
		Factor: 3, On: 200 * time.Millisecond, Off: 200 * time.Millisecond,
	})
	overBurn, err := maxTenantFastBurn(driver)
	if err != nil {
		return nil, fmt.Errorf("A12 overload scrape: %w", err)
	}

	// Floors: the governor engaged but did not collapse.
	if base.arrivals == 0 || over.arrivals == 0 {
		return nil, fmt.Errorf("A12: empty schedule (base %d, overload %d arrivals)", base.arrivals, over.arrivals)
	}
	if over.shed == 0 {
		return nil, fmt.Errorf("A12: overload phase at 2x capacity shed nothing — governor never engaged")
	}
	if r := float64(over.shed) / float64(over.arrivals); r > 0.95 {
		return nil, fmt.Errorf("A12: overload shed ratio %.1f%% — admission collapsed", r*100)
	}
	if over.errors > over.arrivals/10 {
		return nil, fmt.Errorf("A12: %d/%d overload asks failed outright", over.errors, over.arrivals)
	}

	// Floors: the SLO burn moved the right way, on the scraped dashboard.
	if overBurn <= 1 {
		return nil, fmt.Errorf("A12: overload tenant fast burn %.2f, want > 1 (error budget must be burning)", overBurn)
	}
	if overBurn <= baseBurn {
		return nil, fmt.Errorf("A12: overload burn %.2f not above baseline burn %.2f", overBurn, baseBurn)
	}

	// Floors: the flight recorder explains the overload. Every exemplar
	// must carry at least one resilience event (its admit, shed, or
	// degraded decision — EventLevel debug guarantees the admit), and every
	// slow-outcome exemplar must carry a usable span tree.
	summaries := obs.SlowAsks.Summaries()
	if len(summaries) < 3 {
		return nil, fmt.Errorf("A12: %d exemplars captured during overload, want >= 3", len(summaries))
	}
	var slowExemplars, deepExemplars, minEvents int
	minEvents = 1 << 30
	outcomes := map[string]int{}
	for _, sum := range summaries {
		ex, ok := obs.SlowAsks.Get(sum.ID)
		if !ok {
			continue
		}
		outcomes[ex.Outcome]++
		if len(ex.Events) < minEvents {
			minEvents = len(ex.Events)
		}
		if len(ex.Events) == 0 {
			return nil, fmt.Errorf("A12: exemplar %d (%s, trace %s) captured no events", ex.ID, ex.Outcome, ex.Trace)
		}
		if ex.Outcome == obs.OutcomeSlow && ex.Err == "" {
			slowExemplars++
			comps := map[string]bool{}
			for _, sp := range ex.Spans {
				comps[sp.Component] = true
			}
			if len(comps) >= 4 {
				deepExemplars++
			}
		}
	}
	if slowExemplars == 0 {
		return nil, fmt.Errorf("A12: no slow-outcome exemplars captured (outcomes %v)", outcomes)
	}
	// The planned and NLQ paths (coordinator/scheduler/memo and
	// planner/relational) go at least four components deep, and the figure
	// must surface them. A per-exemplar tree floor would be unsound here:
	// asks multiplexed concurrently onto one HTTP session can anchor their
	// tag-triggered agent spans under whichever ask root is currently
	// active, so an individual exemplar's tree may legitimately be shallow.
	if deepExemplars < 3 {
		return nil, fmt.Errorf("A12: only %d/%d slow exemplars span >= 4 components — deep paths missing from the recorder",
			deepExemplars, slowExemplars)
	}

	// Floors: bounded retention. The rings must hold their configured
	// bounds no matter how hot the phases ran.
	if obs.Events.Len() > obs.Events.Cap() {
		return nil, fmt.Errorf("A12: event ring %d over capacity %d", obs.Events.Len(), obs.Events.Cap())
	}
	if obs.SlowAsks.Len() > obs.SlowAsks.Cap() {
		return nil, fmt.Errorf("A12: exemplar ring %d over capacity %d", obs.SlowAsks.Len(), obs.SlowAsks.Cap())
	}
	if n := obs.Spans.SessionCount(); n > obs.DefaultMaxSessions {
		return nil, fmt.Errorf("A12: tracer retains %d session rings, bound %d", n, obs.DefaultMaxSessions)
	}

	// Phase two: what does the recorder plane cost? Paired-ratio
	// methodology — fresh system per batch, memo-warm governed asks,
	// min-of-N per mode, best back-to-back pair — with the event log and
	// recorder fully off versus on at debug.
	gov := sys.GovernorStats()
	teardown()
	resilience.Deactivate()
	batch := func(recording bool) (time.Duration, error) {
		bsys, err := blueprint.New(blueprint.Config{
			Seed: seed, ModelAccuracy: 1.0,
			Governor: resilience.GovernorConfig{MaxConcurrent: 8},
		})
		if err != nil {
			return 0, err
		}
		defer bsys.Close()
		sess, err := bsys.StartSession("")
		if err != nil {
			return 0, err
		}
		defer sess.Close()
		if recording {
			obs.Events.SetLevel(obs.LevelDebug)
			obs.SlowAsks.SetThreshold(obs.DefaultSlowThreshold)
		} else {
			obs.Events.SetLevel(obs.LevelOff)
			obs.SlowAsks.SetThreshold(-1)
		}
		const utterance = "Summarize the applicants for job 3"
		for i := 0; i < 3; i++ {
			if _, err := sess.GovernedAsk(nil, "default", utterance, 10*time.Second); err != nil {
				return 0, fmt.Errorf("warmup: %w", err)
			}
		}
		runtime.GC()
		best := time.Duration(-1)
		for i := 0; i < asksPerBatch; i++ {
			start := time.Now()
			if _, err := sess.GovernedAsk(nil, "default", utterance, 10*time.Second); err != nil {
				return 0, err
			}
			if d := time.Since(start); best < 0 || d < best {
				best = d
			}
		}
		return best, nil
	}
	bestOff, bestOn := time.Duration(-1), time.Duration(-1)
	overhead := 0.0
	for trial := 0; trial < trials; trial++ {
		off, err := batch(false)
		if err != nil {
			return nil, fmt.Errorf("A12 recording-off: %w", err)
		}
		on, err := batch(true)
		if err != nil {
			return nil, fmt.Errorf("A12 recording-on: %w", err)
		}
		if r := on.Seconds()/off.Seconds() - 1; trial == 0 || r < overhead {
			overhead = r
		}
		if bestOff < 0 || off < bestOff {
			bestOff = off
		}
		if bestOn < 0 || on < bestOn {
			bestOn = on
		}
	}
	if !Short && !raceEnabled && overhead > 0.05 {
		return nil, fmt.Errorf("A12: event log + recorder overhead %.1f%% (off %s, on %s per ask), ceiling 5%%",
			overhead*100, us(bestOff), us(bestOn))
	}

	// Floors: no goroutine leak, no unbounded heap growth.
	leaked := 0
	for wait := time.Duration(0); ; wait += 20 * time.Millisecond {
		leaked = runtime.NumGoroutine() - goroutinesBefore
		if leaked <= 10 || wait > 3*time.Second {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if leaked > 10 {
		return nil, fmt.Errorf("A12: %d goroutines leaked by the HTTP phases", leaked)
	}
	var heapAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&heapAfter)
	const heapBound = 256 << 20
	if grew := int64(heapAfter.HeapAlloc) - int64(heapBefore.HeapAlloc); grew > heapBound {
		return nil, fmt.Errorf("A12: heap grew %d MiB across the phases, bound %d MiB", grew>>20, int64(heapBound)>>20)
	}

	t := &Table{ID: "A12", Title: "Flight recorder: slow-ask exemplars, event log and SLO burn under real-HTTP overload"}
	t.Rows = append(t.Rows,
		Row{Series: "0.5x capacity", Metrics: []Metric{
			{Name: "arrivals", Value: fmt.Sprint(base.arrivals)},
			{Name: "ok", Value: fmt.Sprint(base.ok)},
			{Name: "shed", Value: fmt.Sprint(base.shed)},
			{Name: "degraded", Value: fmt.Sprint(base.degraded)},
			{Name: "tenant_fast_burn", Value: fmt.Sprintf("%.2f", baseBurn)},
		}},
		Row{Series: "2x capacity (bursty)", Metrics: []Metric{
			{Name: "arrivals", Value: fmt.Sprint(over.arrivals)},
			{Name: "ok", Value: fmt.Sprint(over.ok)},
			{Name: "shed", Value: fmt.Sprint(over.shed)},
			{Name: "degraded", Value: fmt.Sprint(over.degraded)},
			{Name: "tenant_fast_burn", Value: fmt.Sprintf("%.2f", overBurn)},
		}},
		Row{Series: "flight recorder", Metrics: []Metric{
			{Name: "exemplars", Value: fmt.Sprint(len(summaries))},
			{Name: "slow", Value: fmt.Sprint(outcomes[obs.OutcomeSlow])},
			{Name: "shed", Value: fmt.Sprint(outcomes[obs.OutcomeShed])},
			{Name: "degraded", Value: fmt.Sprint(outcomes[obs.OutcomeDegraded])},
			{Name: "deep_exemplars", Value: fmt.Sprint(deepExemplars)},
			{Name: "min_events", Value: fmt.Sprint(minEvents)},
			{Name: "events_retained", Value: fmt.Sprint(obs.Events.Len())},
		}},
		Row{Series: "recording off", Metrics: []Metric{
			{Name: "asks", Value: fmt.Sprint(asksPerBatch * trials)},
			{Name: "best_ask", Value: us(bestOff)},
		}},
		Row{Series: "recording on (debug)", Metrics: []Metric{
			{Name: "asks", Value: fmt.Sprint(asksPerBatch * trials)},
			{Name: "best_ask", Value: us(bestOn)},
			{Name: "overhead", Value: pct(overhead)},
		}},
	)
	t.Notes = append(t.Notes,
		fmt.Sprintf("real HTTP: calibrated service time %s over the wire -> admission capacity %.0f asks/s across %d slots", serviceTime, capacity, maxConcurrent),
		fmt.Sprintf("governor ledger: admitted=%d shed=%d (tenant=%d queue_timeout=%d) peak_inflight=%d",
			gov.Admitted, gov.Shed, gov.TenantShed, gov.QueueTimeouts, gov.PeakInFlight),
		"burn rates scraped from /metrics (blueprint_slo_burn_rate labeled gauges), the dashboard path",
		"floors: overload sheds without collapsing; every exemplar has >= 1 event; >= 3 slow exemplars span >= 4 components; overload burn > 1 and > baseline; rings bounded; no goroutine/heap growth; recording overhead <= 5% in full mode")
	return t, nil
}

// maxTenantFastBurn scrapes /metrics and returns the highest fast-window
// tenant burn rate.
func maxTenantFastBurn(d *workload.HTTPDriver) (float64, error) {
	series, err := d.ScrapeMetrics()
	if err != nil {
		return 0, err
	}
	burn, found := 0.0, false
	for name, v := range series {
		if strings.HasPrefix(name, "blueprint_slo_burn_rate{") &&
			strings.Contains(name, `kind="tenant"`) &&
			strings.Contains(name, `window="fast"`) {
			found = true
			if v > burn {
				burn = v
			}
		}
	}
	if !found {
		return 0, fmt.Errorf("no blueprint_slo_burn_rate tenant series in /metrics")
	}
	return burn, nil
}
