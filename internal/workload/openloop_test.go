package workload

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"
)

func TestOpenLoopDeterministicPoisson(t *testing.T) {
	cfg := OpenLoopConfig{Rate: 200, Duration: 2 * time.Second, Tenants: []string{"a", "b", "c"}}
	one := OpenLoop(7, cfg)
	two := OpenLoop(7, cfg)
	if len(one) == 0 {
		t.Fatal("no arrivals generated")
	}
	if len(one) != len(two) {
		t.Fatalf("same seed, different schedules: %d vs %d", len(one), len(two))
	}
	for i := range one {
		if one[i] != two[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, one[i], two[i])
		}
	}
	// Realized rate within 25% of the offered rate (Poisson noise at
	// ~400 expected arrivals is well inside that).
	rate := float64(len(one)) / cfg.Duration.Seconds()
	if math.Abs(rate-cfg.Rate) > cfg.Rate*0.25 {
		t.Errorf("realized rate %.1f/s, offered %.1f/s", rate, cfg.Rate)
	}
	// Monotone schedule, bounded duration, tenants from the configured set.
	tenants := map[string]bool{}
	for i, a := range one {
		if i > 0 && a.At <= one[i-1].At {
			t.Fatalf("arrival %d not after %d", i, i-1)
		}
		if a.At >= cfg.Duration {
			t.Fatalf("arrival %d at %s beyond duration", i, a.At)
		}
		if a.Query.Text == "" {
			t.Fatalf("arrival %d has empty utterance", i)
		}
		tenants[a.Tenant] = true
	}
	if len(tenants) != 3 {
		t.Errorf("tenants drawn = %v, want all 3", tenants)
	}
}

func TestOpenLoopBurstRaisesRate(t *testing.T) {
	base := OpenLoopConfig{Rate: 100, Duration: 4 * time.Second}
	burst := base
	burst.Burst = BurstConfig{Factor: 5, On: 500 * time.Millisecond, Off: 500 * time.Millisecond}
	n, nb := len(OpenLoop(11, base)), len(OpenLoop(11, burst))
	// Half the time at 5x: expected realized load 3x the base process.
	if nb < n*2 {
		t.Errorf("burst schedule %d arrivals vs base %d, want >= 2x", nb, n)
	}
}

func TestReplayIsOpenLoop(t *testing.T) {
	arrivals := OpenLoop(3, OpenLoopConfig{Rate: 500, Duration: 300 * time.Millisecond})
	var mu sync.Mutex
	served := 0
	start := time.Now()
	// Each invocation is slower than the mean inter-arrival gap; a closed
	// loop would take len(arrivals) * 10ms serially.
	Replay(context.Background(), arrivals, func(Arrival) {
		time.Sleep(10 * time.Millisecond)
		mu.Lock()
		served++
		mu.Unlock()
	})
	wall := time.Since(start)
	if served != len(arrivals) {
		t.Fatalf("served %d of %d", served, len(arrivals))
	}
	closedLoop := time.Duration(len(arrivals)) * 10 * time.Millisecond
	if wall >= closedLoop {
		t.Errorf("replay wall %s not open-loop (serial floor %s)", wall, closedLoop)
	}
}

func TestReplayCancellation(t *testing.T) {
	arrivals := OpenLoop(5, OpenLoopConfig{Rate: 50, Duration: 10 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	served := 0
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	done := make(chan struct{})
	go func() {
		Replay(ctx, arrivals, func(Arrival) {
			mu.Lock()
			served++
			mu.Unlock()
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Replay did not return after cancellation")
	}
	mu.Lock()
	defer mu.Unlock()
	if served >= len(arrivals) {
		t.Errorf("cancellation served the whole %d-arrival schedule", served)
	}
}

func TestPercentile(t *testing.T) {
	lat := []time.Duration{5, 1, 4, 2, 3} // unsorted on purpose
	if got := Percentile(lat, 50); got != 3 {
		t.Errorf("p50 = %d, want 3", got)
	}
	if got := Percentile(lat, 100); got != 5 {
		t.Errorf("p100 = %d, want 5", got)
	}
	if got := Percentile(nil, 99); got != 0 {
		t.Errorf("empty p99 = %d, want 0", got)
	}
}
