package coordinator

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"blueprint/internal/budget"
	"blueprint/internal/planner"
)

// benchStepLatency keeps the benchmarks honest (real waiting, as an agent
// invocation would) while staying fast enough for -bench runs.
const benchStepLatency = 2 * time.Millisecond

// BenchmarkFanoutSequential and BenchmarkFanoutParallel measure the same
// 4-wide fan-out plan (plus a join step) under MaxParallel=1 and the default
// MaxParallel: the parallel scheduler should complete the fan-out wave in
// ~1x step latency instead of 4x.
func benchmarkFanout(b *testing.B, maxParallel int) {
	const n = 4
	fe := newFanEnv(b, n, benchStepLatency)
	c := New(fe.store, fe.reg, fe.tp, fe.model, Options{MaxParallel: maxParallel})
	plan := fanOutPlan(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ExecutePlan(sess, plan, budget.New(budget.Limits{})); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFanoutSequential(b *testing.B) { benchmarkFanout(b, 1) }
func BenchmarkFanoutParallel(b *testing.B)   { benchmarkFanout(b, 0) }

// BenchmarkMultiSessionThroughput executes one fan-out plan per session
// across 4 sessions concurrently — the event-driven multi-session dispatch
// the ROADMAP's "millions of users" north star depends on.
func BenchmarkMultiSessionThroughput(b *testing.B) {
	const n, sessions = 4, 4
	fe := &fanEnv{env: newEnv(b)}
	fe.register(b, n, benchStepLatency)
	ids := make([]string, sessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("session:bench-%d", i)
		fe.attach(b, ids[i], n, benchStepLatency)
	}
	c := New(fe.store, fe.reg, fe.tp, fe.model, Options{})
	plan := fanOutPlan(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, id := range ids {
			wg.Add(1)
			go func(session string) {
				defer wg.Done()
				if _, err := c.ExecutePlan(session, plan, budget.New(budget.Limits{})); err != nil {
					b.Error(err)
				}
			}(id)
		}
		wg.Wait()
	}
	b.ReportMetric(float64(sessions), "plans/op")
}

// warmPlan is a coordinator over a memo store and a memo-warm plan shaped
// like the one the Agentic Employer emits for a summarize ask: one step of a
// Cacheable agent whose one input is an int literal, run once so that its
// result is memoized.
func warmPlan(tb testing.TB) (*Coordinator, *planner.Plan) {
	tb.Helper()
	e := newMemoEnv(tb, 0)
	e.attach(tb, "session:warm", 0)
	c := New(e.store, e.reg, nil, nil, Options{Memo: e.m})
	p := &planner.Plan{
		ID: "ae-summarize-7", Utterance: "summarize job 7", Intent: "summarize",
		Steps: []planner.Step{{
			ID: "s1", Agent: "FETCH", Task: "summarize applicants for the selected job",
			Bindings: map[string]planner.Binding{"JOB_ID": {Value: 7}},
		}},
	}
	if _, err := c.ExecutePlan("session:warm", p, budget.New(budget.Limits{MaxCost: 1})); err != nil {
		tb.Fatal(err)
	}
	return c, p
}

// BenchmarkWarmPlan is ExecutePlan of a memo-warm one-step plan: the
// coordinator's own cost of a planned ask whose step is a memo hit.
func BenchmarkWarmPlan(b *testing.B) {
	c, p := warmPlan(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ExecutePlan("session:warm", p, budget.New(budget.Limits{MaxCost: 1})); err != nil {
			b.Fatal(err)
		}
	}
}
