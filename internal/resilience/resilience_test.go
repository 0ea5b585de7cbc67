package resilience

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blueprint/internal/clock"
)

// ---- injector ----

func TestInjectorDeterministic(t *testing.T) {
	run := func() (InjectStats, []bool) {
		in := NewInjector(7, Rule{Site: SiteAgent, Kind: KindError, Probability: 0.3})
		outcomes := make([]bool, 0, 200)
		for i := 0; i < 200; i++ {
			outcomes = append(outcomes, in.eval(SiteAgent).fire)
		}
		return in.Stats(), outcomes
	}
	s1, o1 := run()
	s2, o2 := run()
	if s1 != s2 {
		t.Fatalf("same seed, different stats: %+v vs %+v", s1, s2)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("same seed, different decision at consultation %d", i)
		}
	}
	if s1.Errors == 0 || s1.Errors == 200 {
		t.Fatalf("p=0.3 over 200 consultations fired %d times", s1.Errors)
	}
}

func TestInjectorAfterAndLimit(t *testing.T) {
	in := NewInjector(1, Rule{Site: SiteAgent, Kind: KindError, Probability: 1, After: 3, Limit: 2})
	fired := 0
	for i := 0; i < 10; i++ {
		if in.eval(SiteAgent).fire {
			if i < 3 {
				t.Fatalf("rule fired at consultation %d despite After=3", i)
			}
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("Limit=2 but fired %d times", fired)
	}
}

func TestInjectorSiteSelectivity(t *testing.T) {
	in := NewInjector(1, Rule{Site: SiteRelational, Kind: KindError, Probability: 1})
	if in.eval(SiteAgent).fire {
		t.Fatal("agent-site consultation fired a relational-only rule")
	}
	if !in.eval(SiteRelational).fire {
		t.Fatal("relational-site consultation did not fire its rule")
	}
}

func TestCheckInactiveIsNil(t *testing.T) {
	Deactivate()
	if err := Check(context.Background(), nil, SiteAgent); err != nil {
		t.Fatalf("inactive Check returned %v", err)
	}
}

func TestCheckKinds(t *testing.T) {
	defer Deactivate()

	// Error.
	Activate(NewInjector(1, Rule{Kind: KindError, Probability: 1}))
	if err := Check(context.Background(), nil, SiteAgent); !errors.Is(err, ErrInjected) {
		t.Fatalf("KindError: got %v", err)
	}

	// Latency: healthy but delayed, by the rule's latency on the caller's
	// clock.
	clk := clock.NewFake(time.Unix(0, 0))
	Activate(NewInjector(1, Rule{Kind: KindLatency, Probability: 1, Latency: 20 * time.Millisecond}))
	got := make(chan error, 1)
	go func() { got <- Check(context.Background(), clk, SiteAgent) }()
	if d := clk.Sleeping(); d != 20*time.Millisecond {
		t.Fatalf("KindLatency slept %s, want 20ms", d)
	}
	clk.Advance(20 * time.Millisecond)
	if err := <-got; err != nil {
		t.Fatalf("KindLatency: got %v", err)
	}

	// Hang: blocks until ctx cancel, then errors.
	Activate(NewInjector(1, Rule{Kind: KindHang, Probability: 1, Latency: time.Minute}))
	ctx, cancel := context.WithCancel(context.Background())
	go func() { got <- Check(ctx, clk, SiteAgent) }()
	if d := clk.Sleeping(); d != time.Minute {
		t.Fatalf("KindHang bounded by %s, want the rule's minute", d)
	}
	cancel()
	if err := <-got; !errors.Is(err, ErrInjected) {
		t.Fatalf("KindHang: got %v", err)
	}

	// Crash: invokes the hook.
	crashed := false
	in := NewInjector(1, Rule{Kind: KindCrash, Probability: 1})
	in.OnCrash(func() { crashed = true })
	Activate(in)
	if err := Check(context.Background(), nil, SiteAgent); !errors.Is(err, ErrInjected) {
		t.Fatalf("KindCrash: got %v", err)
	}
	if !crashed {
		t.Fatal("KindCrash did not invoke the crash hook")
	}
}

// ---- retry ----

func TestBackoffGrowthAndCap(t *testing.T) {
	// 10ms doubling, each ±20 %; the third attempt is the last.
	for attempt, base := range map[int]time.Duration{1: 10 * time.Millisecond, 2: 20 * time.Millisecond} {
		d, again := Backoff(attempt)
		if !again || d < base*8/10 || d > base*12/10 {
			t.Fatalf("Backoff(%d) = %s, %v; want %s ±20%%", attempt, d, again, base)
		}
	}
	if d, again := Backoff(retryAttempts); again || d != 0 {
		t.Fatalf("Backoff(%d) = %s, %v: the last attempt retries nothing", retryAttempts, d, again)
	}
}

func TestBackoffJitterBounded(t *testing.T) {
	seen := map[time.Duration]bool{}
	for i := 0; i < 100; i++ {
		d, _ := Backoff(1)
		if d < 8*time.Millisecond || d > 12*time.Millisecond {
			t.Fatalf("jittered backoff %s outside ±20%% of 10ms", d)
		}
		seen[d] = true
	}
	if len(seen) < 2 {
		t.Fatal("100 backoffs drew one value: no jitter")
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("agent flaked"), true},
		{fmt.Errorf("wrap: %w", ErrInjected), true},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{fmt.Errorf("wrap: %w", ErrBreakerOpen), false},
		{&OverloadError{RetryAfter: time.Second, Reason: "queue full"}, false},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Fatalf("Retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// ---- breaker ----

func TestBreakerStateMachine(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	b := NewBreaker(clk)

	// Below breakerMinSamples nothing trips, even at 100% failure.
	for i := 0; i < breakerMinSamples-1; i++ {
		b.Record(false)
	}
	if st := b.State(); st != Closed {
		t.Fatalf("tripped below the minimum samples: %s", st)
	}
	b.Record(false) // the minimum, at 100% failure -> trip
	if st := b.State(); st != Open {
		t.Fatalf("state after threshold = %s, want open", st)
	}
	clk.Advance(breakerOpenFor - time.Millisecond)
	if b.Allow() {
		t.Fatal("open breaker allowed a dispatch")
	}

	// The open period elapses -> half-open admits exactly one probe.
	clk.Advance(time.Millisecond)
	if !b.Allow() {
		t.Fatal("half-open probe rejected")
	}
	if b.Allow() {
		t.Fatal("second probe admitted beside the first")
	}

	// Probe failure re-opens.
	b.Record(false)
	if st := b.State(); st != Open {
		t.Fatalf("state after probe failure = %s, want open", st)
	}

	// A probe taken and given back is taken again by the next dispatch.
	clk.Advance(breakerOpenFor)
	if !b.Allow() {
		t.Fatal("second half-open probe rejected")
	}
	b.Forgo()
	if st := b.State(); st != HalfOpen {
		t.Fatalf("state after a forgone probe = %s, want half-open", st)
	}
	if !b.Allow() {
		t.Fatal("probe not admitted after the last one was given back")
	}

	// Probe success -> closed, window reset.
	b.Record(true)
	if st := b.State(); st != Closed {
		t.Fatalf("state after probe success = %s, want closed", st)
	}
	b.Forgo() // a closed breaker gave nothing to return
	if !b.Allow() {
		t.Fatal("closed breaker rejected")
	}
	// The reset window must not re-trip from pre-open history.
	b.Record(true)
	b.Record(true)
	if st := b.State(); st != Closed {
		t.Fatalf("re-tripped from stale window: %s", st)
	}
}

func TestBreakerSetPartitionsByAgent(t *testing.T) {
	s := NewSet(nil)
	for i := 0; i < breakerMinSamples; i++ {
		s.Record("flaky", false)
		s.Record("healthy", true)
	}
	if s.Allow("flaky") {
		t.Fatal("flaky agent's breaker should be open")
	}
	if !s.Allow("healthy") {
		t.Fatal("healthy agent's breaker tripped")
	}
	if got := s.OpenCount(); got != 1 {
		t.Fatalf("OpenCount = %d, want 1", got)
	}
	states := s.States()
	if states["flaky"] != Open || states["healthy"] != Closed {
		t.Fatalf("States() = %v", states)
	}
}

func TestNilBreakerSet(t *testing.T) {
	var s *Set
	if !s.Allow("x") {
		t.Fatal("nil set must allow")
	}
	s.Record("x", false)
	s.Forgo("x")
	if s.OpenCount() != 0 {
		t.Fatal("nil set OpenCount != 0")
	}
}

// ---- governor ----

// awaitQueued waits until n asks are queued on g.
func awaitQueued(g *Governor, n int) {
	for g.Stats().Queued < n {
		runtime.Gosched()
	}
}

func TestGovernorAdmitRelease(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	g := NewGovernor(GovernorConfig{MaxConcurrent: 2, MaxQueue: 2, QueueTimeout: 50 * time.Millisecond})
	g.SetClock(clk)
	ctx := context.Background()
	r1, err := g.Admit(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := g.Admit(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	// Pool full; a third ask queues and times out after QueueTimeout.
	got := make(chan error, 1)
	go func() {
		_, err := g.Admit(ctx, "b")
		got <- err
	}()
	awaitQueued(g, 1)
	clk.Advance(49 * time.Millisecond)
	select {
	case err := <-got:
		t.Fatalf("shed before QueueTimeout: %v", err)
	default:
	}
	clk.Advance(time.Millisecond)
	err = <-got
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expected shed, got %v", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
		t.Fatalf("shed error carries no RetryAfter: %v", err)
	}
	r1()
	r2()
	if st := g.Stats(); st.InFlight != 0 || st.Admitted != 2 || st.Shed != 1 {
		t.Fatalf("stats after release: %+v", st)
	}
}

func TestGovernorQueueHandoff(t *testing.T) {
	g := NewGovernor(GovernorConfig{MaxConcurrent: 1, MaxQueue: 4, QueueTimeout: 5 * time.Second})
	r1, err := g.Admit(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		r, err := g.Admit(context.Background(), "b")
		if err == nil {
			r()
		}
		got <- err
	}()
	awaitQueued(g, 1)
	r1()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("queued ask not handed the released slot: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued ask never granted")
	}
}

func TestGovernorQueueFullShedsImmediately(t *testing.T) {
	g := NewGovernor(GovernorConfig{MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: 10 * time.Second})
	ctx := context.Background()
	r, _ := g.Admit(ctx, "a")
	defer r()
	go func() { _, _ = g.Admit(ctx, "b") }() // fills the queue
	awaitQueued(g, 1)
	start := time.Now()
	_, err := g.Admit(ctx, "c")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue-full arrival not shed: %v", err)
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("queue-full shed waited %s; must be immediate", d)
	}
	r()
}

func TestGovernorTenantFairness(t *testing.T) {
	// Capacity 4, share 0.5 -> one tenant may hold at most 2 slots under
	// contention.
	g := NewGovernor(GovernorConfig{MaxConcurrent: 4, MaxQueue: 8, QueueTimeout: time.Second, TenantShare: 0.5})
	ctx := context.Background()

	// The hog fills the whole pool while alone (work-conserving).
	var releases []func()
	for i := 0; i < 4; i++ {
		r, err := g.Admit(ctx, "hog")
		if err != nil {
			t.Fatalf("lone tenant blocked from free capacity: %v", err)
		}
		releases = append(releases, r)
	}
	// Under contention further hog asks shed immediately (over fair share)...
	if _, err := g.Admit(ctx, "hog"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("hog over share not shed: %v", err)
	}
	// ...while another tenant's asks queue and get slots as the hog drains.
	admitted := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() {
			if r, err := g.Admit(ctx, "small"); err == nil {
				admitted <- struct{}{}
				_ = r
			}
		}()
	}
	awaitQueued(g, 2)
	releases[0]()
	releases[1]()
	for i := 0; i < 2; i++ {
		select {
		case <-admitted:
		case <-time.After(2 * time.Second):
			t.Fatal("small tenant starved despite fair-share policy")
		}
	}
	st := g.Stats()
	if st.TenantShed == 0 {
		t.Fatalf("expected tenant-share sheds, stats %+v", st)
	}
}

func TestGovernorConcurrentStress(t *testing.T) {
	g := NewGovernor(GovernorConfig{MaxConcurrent: 4, MaxQueue: 16, QueueTimeout: 100 * time.Millisecond})
	var wg sync.WaitGroup
	var peak atomic.Int64
	var cur atomic.Int64
	for i := 0; i < 200; i++ {
		wg.Add(1)
		tenant := fmt.Sprintf("t%d", i%8)
		go func() {
			defer wg.Done()
			release, err := g.Admit(context.Background(), tenant)
			if err != nil {
				return
			}
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			release()
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 4 {
		t.Fatalf("concurrency exceeded MaxConcurrent: peak %d", p)
	}
	st := g.Stats()
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("leaked slots: %+v", st)
	}
	if st.Admitted == 0 {
		t.Fatal("nothing admitted")
	}
}

func TestNilGovernor(t *testing.T) {
	var g *Governor
	release, err := g.Admit(context.Background(), "x")
	if err != nil {
		t.Fatal(err)
	}
	release()
	if st := g.Stats(); st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("nil governor holds asks: %+v", st)
	}
	if NewGovernor(GovernorConfig{}) != nil {
		t.Fatal("zero config must produce a nil (ungoverned) governor")
	}
}

// ---- degrade ----

func TestDegradePolicy(t *testing.T) {
	if !ServeStale(time.Second, 4*time.Second) {
		t.Fatal("age 4s within 4x1s bound rejected")
	}
	if ServeStale(time.Second, 4*time.Second+1) {
		t.Fatal("age past 4x1s bound allowed")
	}
	if !ServeStale(0, 24*time.Hour) {
		t.Fatal("freshness 0 (valid until invalidated) must always allow")
	}
}
