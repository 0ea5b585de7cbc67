package httpapi

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blueprint"
	"blueprint/internal/obs"
	"blueprint/internal/resilience"
	"blueprint/internal/workload"
)

// The flight recorder explains an overload it saw over real HTTP. An
// open-loop workload from three tenants drives the live handler behind a TCP
// listener at half and then twice the governor's capacity; then what the
// telemetry plane kept is read back: slow-ask exemplars with their events
// and span trees, the per-tenant SLO burn scraped from /metrics as a
// dashboard reads it, and the bounded rings. Nothing the phases start
// outlives the server, and the heap does not grow without bound.
func TestFlightRecorderExplainsOverload(t *testing.T) {
	if testing.Short() {
		t.Skip("two open-loop phases of 600 ms over HTTP")
	}
	const phase = 600 * time.Millisecond
	goroutinesBefore := runtime.NumGoroutine()
	var heapBefore runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&heapBefore)
	prevLevel, prevThreshold := obs.Events.Level(), obs.SlowAsks.Threshold()
	defer func() {
		obs.Events.SetLevel(prevLevel)
		obs.SlowAsks.SetThreshold(prevThreshold)
	}()
	var firstExemplar uint64 // exemplars of earlier tests have lower ids
	if ex, ok := obs.SlowAsks.Latest(); ok {
		firstExemplar = ex.ID + 1
	}

	sys, err := blueprint.New(blueprint.Config{
		ModelAccuracy: 1.0,
		Governor: resilience.GovernorConfig{
			MaxConcurrent: 4,
			MaxQueue:      8,
			QueueTimeout:  150 * time.Millisecond,
			RetryAfter:    100 * time.Millisecond,
		},
		EventLevel: "debug", // every admitted ask carries its admit event
		SLO:        obs.SLOConfig{LatencyTarget: 150 * time.Millisecond, Objective: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(sys, Options{}))
	driver := workload.NewHTTPDriver(srv.URL)
	var down sync.Once
	teardown := func() {
		down.Do(func() {
			srv.Close()
			driver.Client.CloseIdleConnections()
			sys.Close()
		})
	}
	defer teardown()
	sessions := make([]string, 8)
	for i := range sessions {
		if sessions[i], err = driver.CreateSession(); err != nil {
			t.Fatal(err)
		}
	}
	// A fixed agent latency makes the service time a few milliseconds;
	// sequential warm asks over the wire measure it.
	resilience.Activate(resilience.NewInjector(1, resilience.Rule{
		Site: resilience.SiteAgent, Kind: resilience.KindLatency,
		Probability: 1, Latency: 4 * time.Millisecond,
	}))
	defer resilience.Deactivate()
	pool := workload.Queries(42, 64)
	var serviceTime time.Duration
	for i := 0; i < 6; i++ {
		start := time.Now()
		res, err := driver.Ask(sessions[i%len(sessions)], "default", pool[i].Text, 10*time.Second)
		if err != nil || res.Status != http.StatusOK || res.TraceID == "" {
			t.Fatalf("calibration ask: %+v, %v", res, err)
		}
		serviceTime += time.Since(start)
	}
	serviceTime /= 6
	capacity := 4 / serviceTime.Seconds()
	// Past two service times an admitted ask was visibly queue-delayed;
	// shed, degraded and failed asks are captured whatever their time.
	obs.SlowAsks.SetThreshold(2 * serviceTime)

	type stats struct{ arrivals, shed, errors int }
	run := func(seed int64, rate float64, burst workload.BurstConfig) (st stats) {
		arrivals := workload.OpenLoop(seed, workload.OpenLoopConfig{
			Rate: rate, Duration: phase,
			Tenants: []string{"free", "pro", "enterprise"},
			Burst:   burst,
		})
		var shed, failed, next atomic.Int64
		workload.Replay(context.Background(), arrivals, func(a workload.Arrival) {
			i := int(next.Add(1)) % len(sessions)
			res, err := driver.Ask(sessions[i], a.Tenant, a.Query.Text, 10*time.Second)
			switch {
			case err != nil:
				failed.Add(1)
			case res.Status == http.StatusTooManyRequests:
				shed.Add(1)
			case res.Status != http.StatusOK:
				failed.Add(1)
			}
		})
		return stats{len(arrivals), int(shed.Load()), int(failed.Load())}
	}
	run(43, capacity*0.5, workload.BurstConfig{})
	baseBurn := maxTenantFastBurn(t, driver)
	over := run(44, capacity*2, workload.BurstConfig{Factor: 3, On: 200 * time.Millisecond, Off: 200 * time.Millisecond})
	overBurn := maxTenantFastBurn(t, driver)

	// The governor engaged without collapsing.
	if over.arrivals == 0 || over.shed == 0 {
		t.Errorf("overload at 2x capacity shed nothing: %+v", over)
	}
	if r := float64(over.shed) / float64(over.arrivals); r > 0.95 {
		t.Errorf("overload shed %.1f%%: admission collapsed", r*100)
	}
	if over.errors > over.arrivals/10 {
		t.Errorf("%d of %d overload asks failed outright", over.errors, over.arrivals)
	}
	// The burn moved the right way on the scraped dashboard.
	if overBurn <= 1 || overBurn <= baseBurn {
		t.Errorf("tenant fast burn %.2f under overload, %.2f at baseline: want > 1 and above the baseline", overBurn, baseBurn)
	}

	// Every exemplar carries at least one governor event (its admit, shed
	// or degraded decision); the slow ones carry span trees, and at least
	// three of them reach four components (the planned and NLQ paths). A
	// floor per exemplar would be unsound: asks multiplexed onto one session
	// can leave an individual tree shallow.
	var exemplars, slow, deep int
	for _, sum := range obs.SlowAsks.Summaries() {
		ex, ok := obs.SlowAsks.Get(sum.ID)
		if !ok || ex.ID < firstExemplar {
			continue
		}
		exemplars++
		if len(ex.Events) == 0 {
			t.Errorf("exemplar %d (%s, trace %s) captured no events", ex.ID, ex.Outcome, ex.Trace)
		}
		if ex.Outcome == obs.OutcomeSlow && ex.Err == "" {
			slow++
			components := map[string]bool{}
			for _, sp := range ex.Spans {
				components[sp.Component] = true
			}
			if len(components) >= 4 {
				deep++
			}
		}
	}
	t.Logf("2x: %+v; tenant fast burn %.2f at 0.5x, %.2f at 2x; %d exemplars, %d slow, %d of them deep",
		over, baseBurn, overBurn, exemplars, slow, deep)
	if exemplars < 3 {
		t.Errorf("%d exemplars captured during overload, want >= 3", exemplars)
	}
	if deep < 3 {
		t.Errorf("%d of %d slow exemplars span >= 4 components, want >= 3", deep, slow)
	}

	// The rings held their bounds however hot the phases ran.
	if n := obs.Events.Len(); n > obs.DefaultEventCapacity {
		t.Errorf("event ring holds %d, bound %d", n, obs.DefaultEventCapacity)
	}
	if n := obs.SlowAsks.Len(); n > obs.DefaultRecorderCapacity {
		t.Errorf("exemplar ring holds %d, bound %d", n, obs.DefaultRecorderCapacity)
	}
	if n := obs.Spans.SessionCount(); n > obs.DefaultMaxSessions {
		t.Errorf("tracer retains %d session rings, bound %d", n, obs.DefaultMaxSessions)
	}

	teardown()
	resilience.Deactivate()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutinesBefore+10; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines leaked by the HTTP phases", runtime.NumGoroutine()-goroutinesBefore)
		}
		time.Sleep(20 * time.Millisecond)
	}
	var heapAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&heapAfter)
	if grew := int64(heapAfter.HeapAlloc) - int64(heapBefore.HeapAlloc); grew > 256<<20 {
		t.Errorf("heap grew %d MiB across the phases, bound 256 MiB", grew>>20)
	}
}

// maxTenantFastBurn scrapes /metrics and returns the highest fast-window
// tenant burn rate.
func maxTenantFastBurn(t *testing.T, d *workload.HTTPDriver) float64 {
	t.Helper()
	series, err := d.ScrapeMetrics()
	if err != nil {
		t.Fatal(err)
	}
	burn, found := 0.0, false
	for name, v := range series {
		if strings.HasPrefix(name, "blueprint_slo_burn_rate{") &&
			strings.Contains(name, `kind="tenant"`) && strings.Contains(name, `window="fast"`) {
			found = true
			burn = max(burn, v)
		}
	}
	if !found {
		t.Fatal("no blueprint_slo_burn_rate tenant series in /metrics")
	}
	return burn
}
