package blueprint

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blueprint/internal/clock"
	"blueprint/internal/resilience"
	"blueprint/internal/workload"
)

// overloadRig drives governed asks open-loop, from three tenants, against a
// System whose governor has four slots. A fixed injected agent latency makes
// one ask cost a few milliseconds, so saturating the slots takes hundreds of
// arrivals a second rather than thousands. The offered rates derive from the
// per-ask service time measured by sequential warm asks, so the same phases
// saturate fast and slow hosts alike.
type overloadRig struct {
	sessions   []*Session
	capacity   float64 // asks a second the governor's slots serve
	goroutines int     // running once the System was up, before its sessions
}

// overloadBurst shapes the overload phase: 3x the base rate in 200 ms bursts.
var overloadBurst = workload.BurstConfig{Factor: 3, On: 200 * time.Millisecond, Off: 200 * time.Millisecond}

// overloadStats folds the outcomes of the asks of one or more phases.
type overloadStats struct {
	arrivals, accepted, degraded, shed, errors int
	acceptedLat                                []time.Duration
	maxStale                                   time.Duration
	emptyDegraded                              int
}

func (st *overloadStats) ratio(n int) float64 {
	if st.arrivals == 0 {
		return 0
	}
	return float64(n) / float64(st.arrivals)
}

// acceptedP99 is the nearest-rank 99th percentile of the accepted asks'
// latencies.
func (st *overloadStats) acceptedP99() time.Duration {
	if len(st.acceptedLat) == 0 {
		return 0
	}
	lat := slices.Clone(st.acceptedLat)
	slices.Sort(lat)
	return lat[int(math.Ceil(0.99*float64(len(lat))))-1]
}

// newOverloadRig boots the governed System, its eight sessions and the
// latency fault, and calibrates the capacity over calibrationAsks asks. The
// System closes and the fault deactivates when tb ends.
func newOverloadRig(tb testing.TB, calibrationAsks int) *overloadRig {
	tb.Helper()
	sys, err := New(Config{
		ModelAccuracy: 1.0,
		Governor: resilience.GovernorConfig{
			MaxConcurrent: 4,
			MaxQueue:      8,
			QueueTimeout:  150 * time.Millisecond,
			RetryAfter:    100 * time.Millisecond,
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(sys.Close)
	r := &overloadRig{sessions: make([]*Session, 8), goroutines: runtime.NumGoroutine()}
	for i := range r.sessions {
		if r.sessions[i], err = sys.StartSession(""); err != nil {
			tb.Fatal(err)
		}
	}
	resilience.Activate(resilience.NewInjector(1, resilience.Rule{
		Site: resilience.SiteAgent, Kind: resilience.KindLatency,
		Probability: 1, Latency: 4 * time.Millisecond,
	}))
	tb.Cleanup(resilience.Deactivate)

	// Sequential warm asks measure the service time; they also fill the
	// plan caches, so the first phase does not measure cold starts.
	pool := workload.Queries(42, 64)
	var serviceTime time.Duration
	for i := 0; i < calibrationAsks; i++ {
		start := time.Now()
		if _, err := r.sessions[i%len(r.sessions)].Ask(pool[i%len(pool)].Text, 10*time.Second); err != nil {
			tb.Fatalf("calibration ask: %v", err)
		}
		serviceTime += time.Since(start)
	}
	serviceTime /= time.Duration(calibrationAsks)
	r.capacity = 4 / serviceTime.Seconds()
	return r
}

// phase replays one open-loop schedule at rate through GovernedAsk, arrivals
// taking the sessions round-robin (the governor, not the session pool, is
// the bottleneck), and folds the outcomes into st.
func (r *overloadRig) phase(st *overloadStats, seed int64, rate float64, burst workload.BurstConfig, dur time.Duration) {
	arrivals := workload.OpenLoop(seed, workload.OpenLoopConfig{
		Rate: rate, Duration: dur,
		Tenants: []string{"free", "pro", "enterprise"},
		Burst:   burst,
	})
	st.arrivals += len(arrivals)
	var mu sync.Mutex
	var next atomic.Int64
	workload.Replay(context.Background(), arrivals, func(a workload.Arrival) {
		sess := r.sessions[int(next.Add(1))%len(r.sessions)]
		start := time.Now()
		ans, err := sess.GovernedAsk(context.Background(), a.Tenant, a.Query.Text, 10*time.Second)
		lat := time.Since(start)
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err == nil && ans.Degraded:
			st.degraded++
			st.maxStale = max(st.maxStale, ans.StaleFor)
			if ans.Text == "" {
				st.emptyDegraded++
			}
		case err == nil:
			st.accepted++
			st.acceptedLat = append(st.acceptedLat, lat)
		case errors.Is(err, resilience.ErrOverloaded):
			st.shed++
		default:
			st.errors++
		}
	})
}

// Overload control end to end: at half the admission capacity the governor
// sheds little; at twice it, in bursts, it sheds some arrivals but not
// nearly all, and answers shed repeat asks from memoized answers that are
// marked degraded, non-empty and within the staleness budget. Nothing the
// phases start outlives the sessions.
func TestOverloadShedsAndServesDegraded(t *testing.T) {
	if testing.Short() {
		t.Skip("two open-loop phases of 600 ms")
	}
	rig := newOverloadRig(t, 6)
	var base, over overloadStats
	rig.phase(&base, 43, rig.capacity*0.5, workload.BurstConfig{}, 600*time.Millisecond)
	rig.phase(&over, 44, rig.capacity*2, overloadBurst, 600*time.Millisecond)

	t.Logf("capacity %.0f asks/s; arrivals, accepted, shed, degraded, errors at 0.5x %v and at 2x %v", rig.capacity,
		[]int{base.arrivals, base.accepted, base.shed, base.degraded, base.errors},
		[]int{over.arrivals, over.accepted, over.shed, over.degraded, over.errors})
	if base.arrivals == 0 || over.arrivals == 0 {
		t.Fatalf("empty schedule: %d baseline and %d overload arrivals", base.arrivals, over.arrivals)
	}
	if r := base.ratio(base.shed); r > 0.20 {
		t.Errorf("baseline shed %.1f%% at half capacity, ceiling 20%%", r*100)
	}
	if over.shed == 0 {
		t.Error("overload at 2x capacity shed nothing: the governor never engaged")
	}
	if r := over.ratio(over.shed); r > 0.95 {
		t.Errorf("overload shed %.1f%%: admission collapsed", r*100)
	}
	if over.degraded == 0 {
		t.Error("overload served no degraded answers")
	}
	for _, st := range []overloadStats{base, over} {
		if !resilience.ServeStale(askFreshness, st.maxStale) {
			t.Errorf("degraded answer served at age %s, beyond the staleness bound of a %s freshness", st.maxStale, askFreshness)
		}
		if st.emptyDegraded > 0 {
			t.Errorf("%d degraded answers served empty", st.emptyDegraded)
		}
	}

	for _, s := range rig.sessions {
		s.Close()
	}
	resilience.Deactivate()
	// Parked pool workers leave within 100 ms of their last task.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > rig.goroutines+10; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines leaked by the open-loop phases", runtime.NumGoroutine()-rig.goroutines)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// BenchmarkOverloadPhases runs the overload test's phases at full length,
// one 2 s phase an iteration, and reports what the governor made of the
// arrivals: the shed and degraded shares and the accepted asks' p99, at 0.5x
// and at 2x (bursty) the calibrated admission capacity. Run it with
// -benchtime 1x for one phase each.
func BenchmarkOverloadPhases(b *testing.B) {
	for _, p := range []struct {
		name  string
		load  float64
		burst workload.BurstConfig
	}{{"0.5x", 0.5, workload.BurstConfig{}}, {"2x", 2, overloadBurst}} {
		b.Run(p.name, func(b *testing.B) {
			rig := newOverloadRig(b, 12)
			var st overloadStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rig.phase(&st, int64(i)+43, rig.capacity*p.load, p.burst, 2*time.Second)
			}
			b.StopTimer()
			b.ReportMetric(st.ratio(st.shed), "shed_ratio")
			b.ReportMetric(st.ratio(st.degraded), "degraded_ratio")
			b.ReportMetric(float64(st.acceptedP99())/float64(time.Millisecond), "accepted_p99_ms")
		})
	}
}

// A System built on a fake clock hands it to the layers that decide by time:
// a queued ask is shed when that clock passes the queue timeout, and the
// remembered answer it is served instead is aged on that clock alone.
func TestSystemRunsOnItsClock(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	sys, err := newOnClock(Config{
		ModelAccuracy: 1.0,
		Governor:      resilience.GovernorConfig{MaxConcurrent: 1, QueueTimeout: time.Second},
	}, clk)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	s, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const text = "How many jobs are in San Francisco?"
	if _, err := s.GovernedAsk(ctx, "t", text, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// Another tenant holds the one slot, so the repeat ask queues.
	release, err := sys.Governor.Admit(ctx, "other")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	clk.Advance(90 * time.Second)
	type answer struct {
		ans Answer
		err error
	}
	got := make(chan answer, 1)
	go func() {
		ans, err := s.GovernedAsk(ctx, "t", text, 10*time.Second)
		got <- answer{ans, err}
	}()
	for sys.Governor.Stats().Queued == 0 {
		runtime.Gosched()
	}
	clk.Advance(time.Second)
	a := <-got
	if a.err != nil || !a.ans.Degraded || a.ans.StaleFor != 91*time.Second {
		t.Fatalf("repeat ask = %+v, %v; want a degraded answer 91s old", a.ans, a.err)
	}
}
