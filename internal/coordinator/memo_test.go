package coordinator

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blueprint/internal/agent"
	"blueprint/internal/budget"
	"blueprint/internal/memo"
	"blueprint/internal/planner"
	"blueprint/internal/registry"
	"blueprint/internal/streams"
)

// memoEnv wires a store, a registry with two cacheable agents (FETCH reads
// the "catalog" source, DERIVE is pure), per-agent execution counters, and
// a shared memo store.
type memoEnv struct {
	store *streams.Store
	reg   *registry.AgentRegistry
	m     *memo.Store
	execs map[string]*atomic.Int32
	insts []*agent.Instance
}

func newMemoEnv(t testing.TB, fetchLatency time.Duration) *memoEnv {
	t.Helper()
	e := &memoEnv{
		store: streams.NewStore(),
		reg:   registry.NewAgentRegistry(),
		m:     memo.New(64),
		execs: map[string]*atomic.Int32{"FETCH": {}, "DERIVE": {}},
	}
	t.Cleanup(func() {
		for _, in := range e.insts {
			in.Stop()
		}
		e.store.Close()
	})
	for _, spec := range []registry.AgentSpec{
		{
			Name: "FETCH", Description: "fetch catalog rows for a query",
			Cacheable: true, Reads: []string{"catalog"},
			Inputs:  []registry.ParamSpec{{Name: "Q", Type: "text"}},
			Outputs: []registry.ParamSpec{{Name: "OUT", Type: "text"}},
			QoS:     registry.QoSProfile{CostPerCall: 0.01, Latency: fetchLatency, Accuracy: 0.9},
		},
		{
			Name: "DERIVE", Description: "derive a rendering from fetched rows",
			Cacheable: true,
			Inputs:    []registry.ParamSpec{{Name: "IN", Type: "text"}},
			Outputs:   []registry.ParamSpec{{Name: "OUT", Type: "text"}},
			QoS:       registry.QoSProfile{CostPerCall: 0.005, Latency: time.Millisecond, Accuracy: 0.95},
		},
	} {
		if err := e.reg.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// attach starts FETCH and DERIVE instances in the session.
func (e *memoEnv) attach(t testing.TB, session string, fetchLatency time.Duration) {
	t.Helper()
	add := func(name string, proc agent.Processor) {
		spec, err := e.reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := agent.Attach(e.store, session, agent.New(spec, proc), agent.Options{DisableListen: true})
		if err != nil {
			t.Fatal(err)
		}
		e.insts = append(e.insts, inst)
	}
	add("FETCH", func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		e.execs["FETCH"].Add(1)
		select {
		case <-time.After(fetchLatency):
		case <-ctx.Done():
			return agent.Outputs{}, ctx.Err()
		}
		q, _ := inv.Inputs["Q"].(string)
		return agent.Outputs{Values: map[string]any{"OUT": "rows for " + q}}, nil
	})
	add("DERIVE", func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		e.execs["DERIVE"].Add(1)
		in, _ := inv.Inputs["IN"].(string)
		return agent.Outputs{Values: map[string]any{"OUT": "derived: " + in}}, nil
	})
}

// chainPlan is s1:FETCH(Q <- USER.TEXT) -> s2:DERIVE(IN <- s1.OUT).
func chainPlan(id string) *planner.Plan {
	return &planner.Plan{
		ID: id, Utterance: "the repeated ask", Intent: "open_query",
		Steps: []planner.Step{
			{ID: "s1", Agent: "FETCH", Task: "fetch",
				Bindings: map[string]planner.Binding{"Q": {FromUserText: true}}},
			{ID: "s2", Agent: "DERIVE", Task: "derive",
				Bindings: map[string]planner.Binding{"IN": {FromStep: "s1", FromParam: "OUT"}}},
		},
	}
}

func TestMemoWarmPlanSkipsExecution(t *testing.T) {
	e := newMemoEnv(t, 5*time.Millisecond)
	e.attach(t, "session:memo", 5*time.Millisecond)
	c := New(e.store, e.reg, nil, nil, Options{Memo: e.m})

	res1, err := c.ExecutePlan("session:memo", chainPlan("p1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range res1.Steps {
		if sr.Cached {
			t.Fatalf("cold step %s reported cached", sr.StepID)
		}
	}
	if got := e.execs["FETCH"].Load() + e.execs["DERIVE"].Load(); got != 2 {
		t.Fatalf("cold executions = %d", got)
	}

	res2, err := c.ExecutePlan("session:memo", chainPlan("p2"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range res2.Steps {
		if !sr.Cached || sr.Cost != 0 || sr.Latency != 0 {
			t.Fatalf("warm step %+v not served from memo", sr)
		}
	}
	if res2.Final["OUT"] != "derived: rows for the repeated ask" {
		t.Fatalf("warm final = %v", res2.Final)
	}
	if got := e.execs["FETCH"].Load() + e.execs["DERIVE"].Load(); got != 2 {
		t.Fatalf("warm run re-executed: %d executions", got)
	}
	if res2.Budget.CostSpent != 0 || res2.Budget.MemoHits != 2 {
		t.Fatalf("warm budget = %+v", res2.Budget)
	}
	st := e.m.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestMemoDedupAcrossConcurrentSessions is the cross-session single-flight
// guarantee: N sessions executing the identical plan concurrently through
// one Coordinator run each step exactly once.
func TestMemoDedupAcrossConcurrentSessions(t *testing.T) {
	const sessions = 4
	e := newMemoEnv(t, 30*time.Millisecond)
	ids := make([]string, sessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("session:memo-%d", i)
		e.attach(t, ids[i], 30*time.Millisecond)
	}
	c := New(e.store, e.reg, nil, nil, Options{Memo: e.m})

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i, id := range ids {
		wg.Add(1)
		go func(i int, session string) {
			defer wg.Done()
			res, err := c.ExecutePlan(session, chainPlan(fmt.Sprintf("p%d", i)), nil)
			if err != nil {
				errs <- err
				return
			}
			if res.Final["OUT"] != "derived: rows for the repeated ask" {
				errs <- fmt.Errorf("session %s final = %v", session, res.Final)
			}
		}(i, id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if f, d := e.execs["FETCH"].Load(), e.execs["DERIVE"].Load(); f != 1 || d != 1 {
		t.Fatalf("executions fetch=%d derive=%d, want 1 each", f, d)
	}
	st := e.m.Stats()
	if st.Coalesced == 0 {
		t.Fatalf("no dedup-coalesced requests: %+v", st)
	}
	// Every non-winning step request was satisfied by coalescing or a hit.
	if st.Coalesced+st.Hits != 2*(sessions-1) {
		t.Fatalf("coalesced=%d hits=%d, want %d combined", st.Coalesced, st.Hits, 2*(sessions-1))
	}
}

func TestMemoSourceInvalidationReexecutesOnlyReaders(t *testing.T) {
	e := newMemoEnv(t, time.Millisecond)
	e.attach(t, "session:memo-inv", time.Millisecond)
	c := New(e.store, e.reg, nil, nil, Options{Memo: e.m})

	if _, err := c.ExecutePlan("session:memo-inv", chainPlan("p1"), nil); err != nil {
		t.Fatal(err)
	}
	// The catalog changes: FETCH's entry drops, DERIVE's survives (it does
	// not read the source, and FETCH recomputes the same rows).
	if n := e.m.InvalidateSource("catalog"); n != 1 {
		t.Fatalf("invalidated %d entries", n)
	}
	if _, err := c.ExecutePlan("session:memo-inv", chainPlan("p2"), nil); err != nil {
		t.Fatal(err)
	}
	if f := e.execs["FETCH"].Load(); f != 2 {
		t.Fatalf("FETCH executions = %d, want re-execution after invalidation", f)
	}
	if d := e.execs["DERIVE"].Load(); d != 1 {
		t.Fatalf("DERIVE executions = %d, want hit on unchanged input", d)
	}
}

func TestMemoRegistryUpdateInvalidatesThroughHook(t *testing.T) {
	e := newMemoEnv(t, time.Millisecond)
	e.attach(t, "session:memo-upd", time.Millisecond)
	e.reg.OnChange(func(name string) { e.m.InvalidateAgent(name) })
	c := New(e.store, e.reg, nil, nil, Options{Memo: e.m})

	if _, err := c.ExecutePlan("session:memo-upd", chainPlan("p1"), nil); err != nil {
		t.Fatal(err)
	}
	if e.m.Len() != 2 {
		t.Fatalf("entries = %d", e.m.Len())
	}

	// An identical re-registration must NOT invalidate (no version bump).
	spec, _ := e.reg.Get("FETCH")
	if err := e.reg.Update(spec); err != nil {
		t.Fatal(err)
	}
	if e.m.Len() != 2 {
		t.Fatalf("no-op update dropped entries: %d left", e.m.Len())
	}

	// A real change bumps the version, drops the entry through the hook,
	// and the new version's key misses. The running instance still serves
	// the old processor; only FETCH re-executes.
	spec.Description = "fetch catalog rows (rev 2)"
	if err := e.reg.Update(spec); err != nil {
		t.Fatal(err)
	}
	if e.m.Len() != 1 {
		t.Fatalf("update did not invalidate: %d entries", e.m.Len())
	}
	if _, err := c.ExecutePlan("session:memo-upd", chainPlan("p2"), nil); err != nil {
		t.Fatal(err)
	}
	if f := e.execs["FETCH"].Load(); f != 2 {
		t.Fatalf("FETCH executions = %d after version bump", f)
	}
}

// TestMemoReplannedStepNotCached: when a replan retry executes an
// alternative agent, the result must not be cached under the failing
// agent's key — the entry would be invalidated by the wrong agent/sources
// and hits would charge the wrong accuracy.
func TestMemoReplannedStepNotCached(t *testing.T) {
	e := newEnv(t)
	m := memo.New(16)
	spec := registry.AgentSpec{
		Name:        "FLAKY_MATCHER",
		Description: "match the job seeker profile with available job listings ranking match quality precisely",
		Cacheable:   true,
		Inputs:      []registry.ParamSpec{{Name: "JOBSEEKER_DATA", Type: "profile"}},
		Outputs:     []registry.ParamSpec{{Name: "MATCHES", Type: "rows"}},
	}
	if err := e.reg.Register(spec); err != nil {
		t.Fatal(err)
	}
	inst, err := agent.Attach(e.store, sess, agent.New(spec, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		return agent.Outputs{}, errors.New("model unavailable")
	}), agent.Options{DisableListen: true})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()

	c := New(e.store, e.reg, e.tp, e.model, Options{Memo: m})
	plan := &planner.Plan{
		ID: "memo-replan", Utterance: "match me", Intent: "rank",
		Steps: []planner.Step{
			{ID: "s1", Agent: "PROFILER", Task: "collect job seeker profile information from the user",
				Bindings: map[string]planner.Binding{"CRITERIA": {FromUserText: true}}},
			{ID: "s2", Agent: "FLAKY_MATCHER", Task: "match the job seeker profile with available job listings",
				Bindings: map[string]planner.Binding{"JOBSEEKER_DATA": {FromStep: "s1", FromParam: "JOBSEEKER_DATA"}}},
		},
	}
	res, err := c.ExecutePlan(sess, plan, budget.New(budget.Limits{}))
	if err != nil {
		t.Fatalf("replan retry failed: %v (res=%+v)", err, res)
	}
	if res.Replans != 1 {
		t.Fatalf("replans = %d", res.Replans)
	}
	// Nothing may be resident for the flaky agent's key (PROFILER is not
	// cacheable in this env, JOBMATCHER executed under FLAKY's step).
	if n := m.Len(); n != 0 {
		t.Fatalf("replanned step was cached: %d entries", n)
	}
}
