package budget

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestChargeWithinLimits(t *testing.T) {
	b := New(Limits{MaxCost: 1.0, MaxLatency: time.Second, MinAccuracy: 0.8})
	if v := b.Charge("step1", 0.2, 100*time.Millisecond, 0.95); v != nil {
		t.Fatalf("violations = %v", v)
	}
	r := b.Snapshot()
	if r.CostSpent != 0.2 || r.Latency != 100*time.Millisecond || r.Charges != 1 {
		t.Fatalf("report = %+v", r)
	}
	if r.Accuracy != 0.95 {
		t.Fatalf("accuracy = %v", r.Accuracy)
	}
	if len(b.Snapshot().Violations) > 0 {
		t.Fatal("violated within limits")
	}
}

func TestCostViolation(t *testing.T) {
	b := New(Limits{MaxCost: 0.5})
	if v := b.Charge("a", 0.3, 0, 0); v != nil {
		t.Fatalf("early violation: %v", v)
	}
	v := b.Charge("b", 0.3, 0, 0)
	if len(v) != 1 || v[0].Dimension != DimCost || v[0].Step != "b" {
		t.Fatalf("violations = %v", v)
	}
	if !strings.Contains(v[0].String(), "cost") {
		t.Fatalf("render = %s", v[0])
	}
	if len(b.Snapshot().Violations) == 0 {
		t.Fatal("not marked violated")
	}
}

func TestLatencyViolation(t *testing.T) {
	b := New(Limits{MaxLatency: 100 * time.Millisecond})
	v := b.Charge("slow", 0, 150*time.Millisecond, 0)
	if len(v) != 1 || v[0].Dimension != DimLatency {
		t.Fatalf("violations = %v", v)
	}
}

func TestAccuracyViolationCostWeighted(t *testing.T) {
	b := New(Limits{MinAccuracy: 0.9})
	// Cheap accurate step, expensive inaccurate step: weighted estimate
	// sinks below 0.9.
	if v := b.Charge("good", 0.001, 0, 0.99); v != nil {
		t.Fatalf("early violation: %v", v)
	}
	v := b.Charge("bad", 0.1, 0, 0.5)
	if len(v) != 1 || v[0].Dimension != DimAccuracy {
		t.Fatalf("violations = %v", v)
	}
	r := b.Snapshot()
	if r.Accuracy >= 0.9 || r.Accuracy <= 0.5 {
		t.Fatalf("weighted accuracy = %v", r.Accuracy)
	}
}

func TestZeroLimitsNeverViolate(t *testing.T) {
	b := New(Limits{})
	for i := 0; i < 100; i++ {
		if v := b.Charge("s", 10, time.Hour, 0.01); v != nil {
			t.Fatalf("violation with no limits: %v", v)
		}
	}
}

func TestWouldExceed(t *testing.T) {
	b := New(Limits{MaxCost: 1.0, MaxLatency: time.Second})
	b.Charge("s", 0.8, 800*time.Millisecond, 0)
	if b.WouldExceed(0.1, 100*time.Millisecond) {
		t.Fatal("within-projection flagged")
	}
	if !b.WouldExceed(0.3, 0) {
		t.Fatal("cost projection not flagged")
	}
	if !b.WouldExceed(0, 300*time.Millisecond) {
		t.Fatal("latency projection not flagged")
	}
	// Unlimited budget never exceeds.
	if New(Limits{}).WouldExceed(1e9, time.Hour) {
		t.Fatal("unlimited exceeded")
	}
}

func TestRemaining(t *testing.T) {
	b := New(Limits{MaxCost: 1.0, MaxLatency: time.Second})
	b.Charge("s", 0.25, 400*time.Millisecond, 0)
	cost, lat := b.Remaining()
	if cost != 0.75 || lat != 600*time.Millisecond {
		t.Fatalf("remaining = %v %v", cost, lat)
	}
	b.Charge("s2", 10, 10*time.Second, 0)
	cost, lat = b.Remaining()
	if cost != 0 || lat != 0 {
		t.Fatalf("overdrawn remaining = %v %v", cost, lat)
	}
}

func TestAccuracyUnknownWhenNoSignal(t *testing.T) {
	b := New(Limits{MinAccuracy: 0.99})
	if v := b.Charge("s", 0.1, 0, 0); v != nil {
		t.Fatalf("accuracy violation without signal: %v", v)
	}
	if r := b.Snapshot(); r.Accuracy != 0 {
		t.Fatalf("accuracy = %v", r.Accuracy)
	}
}

func TestConcurrentCharges(t *testing.T) {
	b := New(Limits{MaxCost: 1000})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				b.Charge("s", 0.01, time.Millisecond, 0.9)
			}
		}()
	}
	wg.Wait()
	r := b.Snapshot()
	if r.Charges != 1600 {
		t.Fatalf("charges = %d", r.Charges)
	}
	want := 16.0
	if r.CostSpent < want-0.0001 || r.CostSpent > want+0.0001 {
		t.Fatalf("cost = %v", r.CostSpent)
	}
}

func TestReserveCommitLifecycle(t *testing.T) {
	b := New(Limits{MaxCost: 1.0, MaxLatency: time.Second})
	rsv, v := b.Reserve("s1", 0.4, 200*time.Millisecond)
	if rsv == nil || v != nil {
		t.Fatalf("reserve failed: %v", v)
	}
	r := b.Snapshot()
	if r.CostReserved != 0.4 || r.LatencyReserved != 200*time.Millisecond {
		t.Fatalf("reserved = %+v", r)
	}
	if r.Charges != 0 || r.CostSpent != 0 {
		t.Fatalf("reservation charged: %+v", r)
	}
	// Reservation headroom counts against further admission.
	if cost, _ := b.Remaining(); cost != 0.6 {
		t.Fatalf("remaining = %v", cost)
	}
	if !b.WouldExceed(0.7, 0) {
		t.Fatal("reserved headroom not counted by WouldExceed")
	}
	// Commit actuals (cheaper than projected).
	if v := rsv.Commit(0.3, 150*time.Millisecond, 0.9); v != nil {
		t.Fatalf("commit violations: %v", v)
	}
	r = b.Snapshot()
	if r.CostReserved != 0 || r.CostSpent != 0.3 || r.Charges != 1 {
		t.Fatalf("post-commit = %+v", r)
	}
	// Double-commit is a no-op.
	if v := rsv.Commit(0.3, 0, 0); v != nil || b.Snapshot().Charges != 1 {
		t.Fatal("double commit charged again")
	}
}

func TestReserveRejectsOverLimit(t *testing.T) {
	b := New(Limits{MaxCost: 0.5})
	if rsv, v := b.Reserve("big", 0.6, 0); rsv != nil || len(v) != 1 || v[0].Dimension != DimCost {
		t.Fatalf("over-limit reserve admitted: rsv=%v v=%v", rsv, v)
	}
	// A failed Reserve claims nothing and records no violation.
	if len(b.Snapshot().Violations) > 0 {
		t.Fatal("failed reserve recorded a violation")
	}
	if r := b.Snapshot(); r.CostReserved != 0 {
		t.Fatalf("failed reserve leaked headroom: %+v", r)
	}
}

func TestReleaseReturnsHeadroom(t *testing.T) {
	b := New(Limits{MaxCost: 0.5})
	rsv, _ := b.Reserve("s", 0.5, 0)
	if rsv == nil {
		t.Fatal("reserve failed")
	}
	if r2, v := b.Reserve("s2", 0.1, 0); r2 != nil || v == nil {
		t.Fatal("exhausted budget admitted a second reservation")
	}
	rsv.Release()
	if r2, v := b.Reserve("s2", 0.1, 0); r2 == nil || v != nil {
		t.Fatalf("released headroom not reusable: %v", v)
	}
}

// Two (or more) concurrent Reserve calls must never jointly exceed the cost
// limit: with MaxCost 1.0 and per-step cost 0.3, at most 3 of the racing
// steps may be admitted no matter the interleaving. Run under -race.
func TestConcurrentReserveCannotOvershoot(t *testing.T) {
	const (
		limit    = 1.0
		stepCost = 0.3
		workers  = 10
	)
	b := New(Limits{MaxCost: limit})
	var wg sync.WaitGroup
	admitted := make(chan *Reservation, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rsv, _ := b.Reserve("s", stepCost, 0); rsv != nil {
				admitted <- rsv
			}
		}()
	}
	wg.Wait()
	close(admitted)
	var rsvs []*Reservation
	for rsv := range admitted {
		rsvs = append(rsvs, rsv)
	}
	if len(rsvs) != 3 {
		t.Fatalf("admitted %d reservations of $%.1f under a $%.1f limit", len(rsvs), stepCost, limit)
	}
	// Committing every admitted step at its projected cost stays within the
	// limit: no violations possible through the Reserve/Commit path.
	for _, rsv := range rsvs {
		if v := rsv.Commit(stepCost, 0, 0); v != nil {
			t.Fatalf("commit violated after admission: %v", v)
		}
	}
	if len(b.Snapshot().Violations) > 0 {
		t.Fatal("reserve/commit path overshot the limit")
	}
	if cost := b.Snapshot().CostSpent; cost > limit {
		t.Fatalf("spent %v > limit %v", cost, limit)
	}
}

func TestSnapshotViolationsCopied(t *testing.T) {
	b := New(Limits{MaxCost: 0.01})
	b.Charge("s", 1, 0, 0)
	r := b.Snapshot()
	if len(r.Violations) != 1 {
		t.Fatalf("violations = %v", r.Violations)
	}
	r.Violations[0].Step = "mutated"
	r2 := b.Snapshot()
	if r2.Violations[0].Step != "s" {
		t.Fatal("snapshot leaked internal state")
	}
}

func TestChargeMemoHitIsFree(t *testing.T) {
	b := New(Limits{MaxCost: 0.01, MaxLatency: 10 * time.Millisecond})
	if vs := b.Charge("s1:AGENT", 0.01, 10*time.Millisecond, 0.9); len(vs) != 0 {
		t.Fatalf("violations = %v", vs)
	}
	// The budget is now exactly at both limits; a memo hit must still be
	// admissible because it consumes nothing.
	if vs := b.ChargeMemoHit("s2:AGENT:memo", 0.9); len(vs) != 0 {
		t.Fatalf("memo hit tripped limits: %v", vs)
	}
	rep := b.Snapshot()
	if rep.CostSpent != 0.01 || rep.Latency != 10*time.Millisecond {
		t.Fatalf("hit charged actuals: %+v", rep)
	}
	if rep.Charges != 2 || rep.MemoHits != 1 {
		t.Fatalf("charges=%d memoHits=%d", rep.Charges, rep.MemoHits)
	}
}

func TestChargeMemoHitAccuracyStillCounts(t *testing.T) {
	b := New(Limits{MinAccuracy: 0.8})
	// Zero-cost charges weigh accuracy at the epsilon weight, so a cached
	// low-accuracy result still drags the running estimate down.
	if vs := b.ChargeMemoHit("s1:BAD:memo", 0.1); len(vs) == 0 {
		t.Fatal("low-accuracy memo hit did not trip MinAccuracy")
	}
	if len(b.Snapshot().Violations) == 0 {
		t.Fatal("expected recorded violation")
	}
}

func TestChargeRetryBackoff(t *testing.T) {
	b := New(Limits{MaxLatency: 100 * time.Millisecond})
	if vs := b.ChargeRetryBackoff("s1:A", 40*time.Millisecond); len(vs) != 0 {
		t.Fatalf("within-budget backoff violated: %v", vs)
	}
	if _, rem := b.Remaining(); rem != 60*time.Millisecond {
		t.Fatalf("remaining latency = %s, want 60ms", rem)
	}
	vs := b.ChargeRetryBackoff("s1:A", 80*time.Millisecond)
	if len(vs) != 1 || vs[0].Dimension != DimLatency {
		t.Fatalf("overshooting backoff: %v", vs)
	}
	rep := b.Snapshot()
	if rep.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", rep.Retries)
	}
	if rep.Charges != 0 {
		t.Fatalf("backoff counted as a step charge: %d", rep.Charges)
	}
	if rep.CostSpent != 0 {
		t.Fatalf("backoff charged cost: %v", rep.CostSpent)
	}
}
