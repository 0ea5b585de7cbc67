package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"blueprint/internal/agent"
	"blueprint/internal/coordinator"
	"blueprint/internal/memo"
	"blueprint/internal/optimizer"
	"blueprint/internal/planner"
	"blueprint/internal/registry"
	"blueprint/internal/streams"
	"context"
)

// AblationMemo (A6) measures cross-session step-result memoization on a
// three-step chain of cacheable agents (FETCH -> DERIVE -> PRESENT, FETCH
// reading the "catalog" data source):
//
//   - repeated-ask: the same plan executed cold and then warm — the warm
//     run must be served entirely from memo (>=5x wall-clock in full mode).
//   - concurrent-identical-session: N sessions execute the identical plan
//     concurrently through one shared Coordinator on a fresh store —
//     single-flight dedup must coalesce them to exactly one execution per
//     step (dedup-coalesced > 0).
//   - invalidation: bumping the catalog source re-executes only FETCH;
//     DERIVE and PRESENT still hit because FETCH recomputes the same rows.
//
// The deterministic guarantees (full warm hit, dedup to one execution,
// selective re-execution) are enforced as errors so CI's smoke run fails
// fast on hit-rate collapse or dedup loss; the speedups are reported as
// measured.
func AblationMemo(seed int64) (*Table, error) {
	fetchLat, deriveLat, presentLat, sessions := 40*time.Millisecond, 25*time.Millisecond, 10*time.Millisecond, 5
	if Short {
		fetchLat, deriveLat, presentLat, sessions = 10*time.Millisecond, 6*time.Millisecond, 4*time.Millisecond, 3
	}

	store := streams.NewStore()
	defer store.Close()
	reg := registry.NewAgentRegistry()
	var execs [3]atomic.Int32
	specs := []registry.AgentSpec{
		{
			Name: "FETCH", Description: "fetch catalog rows for a query",
			Cacheable: true, Reads: []string{"catalog"},
			Inputs:  []registry.ParamSpec{{Name: "Q", Type: "text"}},
			Outputs: []registry.ParamSpec{{Name: "OUT", Type: "text"}},
			QoS:     registry.QoSProfile{CostPerCall: 0.01, Latency: fetchLat, Accuracy: 1.0},
		},
		{
			Name: "DERIVE", Description: "derive an answer from fetched rows",
			Cacheable: true,
			Inputs:    []registry.ParamSpec{{Name: "IN", Type: "text"}},
			Outputs:   []registry.ParamSpec{{Name: "OUT", Type: "text"}},
			QoS:       registry.QoSProfile{CostPerCall: 0.005, Latency: deriveLat, Accuracy: 1.0},
		},
		{
			Name: "PRESENT", Description: "present the derived answer",
			Cacheable: true,
			Inputs:    []registry.ParamSpec{{Name: "IN", Type: "text"}},
			Outputs:   []registry.ParamSpec{{Name: "OUT", Type: "text"}},
			QoS:       registry.QoSProfile{CostPerCall: 0.001, Latency: presentLat, Accuracy: 1.0},
		},
	}
	for _, spec := range specs {
		if err := reg.Register(spec); err != nil {
			return nil, err
		}
	}
	latencies := []time.Duration{fetchLat, deriveLat, presentLat}

	// attach starts the three chain agents in one session.
	attach := func(session string) ([]*agent.Instance, error) {
		var insts []*agent.Instance
		for i, spec := range specs {
			i := i
			name := spec.Name
			lat := latencies[i]
			inst, err := agent.Attach(store, session, agent.New(spec, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
				execs[i].Add(1)
				select {
				case <-time.After(lat):
				case <-ctx.Done():
					return agent.Outputs{}, ctx.Err()
				}
				in, _ := inv.Inputs["Q"].(string)
				if in == "" {
					in, _ = inv.Inputs["IN"].(string)
				}
				return agent.Outputs{Values: map[string]any{"OUT": fmt.Sprintf("%s>%s", name, in)}}, nil
			}), agent.Options{DisableListen: true})
			if err != nil {
				return insts, err
			}
			insts = append(insts, inst)
		}
		return insts, nil
	}
	stopAll := func(insts []*agent.Instance) {
		for _, in := range insts {
			in.Stop()
		}
	}
	totalExecs := func() int32 { return execs[0].Load() + execs[1].Load() + execs[2].Load() }

	plan := &planner.Plan{
		ID: "a6-chain", Utterance: "the repeated enterprise ask", Intent: "open_query",
		Steps: []planner.Step{
			{ID: "s1", Agent: "FETCH", Task: "fetch",
				Bindings: map[string]planner.Binding{"Q": {FromUserText: true}}},
			{ID: "s2", Agent: "DERIVE", Task: "derive",
				Bindings: map[string]planner.Binding{"IN": {FromStep: "s1", FromParam: "OUT"}}},
			{ID: "s3", Agent: "PRESENT", Task: "present",
				Bindings: map[string]planner.Binding{"IN": {FromStep: "s2", FromParam: "OUT"}}},
		},
	}

	t := &Table{ID: "A6", Title: "Step-result memoization: repeated-ask speedup, cross-session dedup, invalidation"}

	// ---- Workload 1: repeated ask (cold, then warm) ----
	m := memo.New(64)
	c := coordinator.New(store, reg, nil, nil, coordinator.Options{Memo: m})
	insts, err := attach("session:a6-repeat")
	if err != nil {
		stopAll(insts)
		return nil, err
	}
	graph, err := plan.Graph()
	if err != nil {
		stopAll(insts)
		return nil, err
	}
	projColdCost, projColdLat, _, _ := optimizer.EstimatePlanWithMemo(plan, graph, reg, m)

	start := time.Now()
	if _, err := c.ExecutePlan("session:a6-repeat", plan, nil); err != nil {
		stopAll(insts)
		return nil, err
	}
	cold := time.Since(start)

	start = time.Now()
	res, err := c.ExecutePlan("session:a6-repeat", plan, nil)
	warm := time.Since(start)
	stopAll(insts)
	if err != nil {
		return nil, err
	}
	for _, sr := range res.Steps {
		if !sr.Cached {
			return nil, fmt.Errorf("A6: hit-rate collapse — warm step %s executed instead of hitting memo", sr.StepID)
		}
	}
	if got := totalExecs(); got != 3 {
		return nil, fmt.Errorf("A6: warm run re-executed agents (%d executions, want 3)", got)
	}
	projWarmCost, projWarmLat, _, projHits := optimizer.EstimatePlanWithMemo(plan, graph, reg, m)
	if projHits != 3 || projWarmCost != 0 {
		return nil, fmt.Errorf("A6: cache-aware projection expected 3 hits at $0, got %d at $%.4f", projHits, projWarmCost)
	}
	speedup := cold.Seconds() / warm.Seconds()
	if !Short && speedup < 5 {
		return nil, fmt.Errorf("A6: warm repeated ask only %.1fx faster than cold (want >=5x)", speedup)
	}
	t.Rows = append(t.Rows,
		Row{Series: "repeated-ask cold", Metrics: []Metric{
			{Name: "wall", Value: ms(cold)},
			{Name: "proj_cost", Value: dollars(projColdCost)},
			{Name: "proj_latency", Value: ms(projColdLat)},
		}},
		Row{Series: "repeated-ask warm", Metrics: []Metric{
			{Name: "wall", Value: ms(warm)},
			{Name: "proj_cost", Value: dollars(projWarmCost)},
			{Name: "proj_latency", Value: ms(projWarmLat)},
			{Name: "speedup", Value: fmt.Sprintf("%.1fx", speedup)},
			{Name: "hit_rate", Value: pct(m.Stats().HitRate())},
		}},
	)

	// ---- Workload 2: N concurrent identical sessions on a fresh store ----
	for i := range execs {
		execs[i].Store(0)
	}
	m2 := memo.New(64)
	c2 := coordinator.New(store, reg, nil, nil, coordinator.Options{Memo: m2})
	var all []*agent.Instance
	ids := make([]string, sessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("session:a6-con-%d", i)
		in, err := attach(ids[i])
		all = append(all, in...)
		if err != nil {
			stopAll(all)
			return nil, err
		}
	}
	start = time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, sessions)
	for _, id := range ids {
		wg.Add(1)
		go func(session string) {
			defer wg.Done()
			if _, err := c2.ExecutePlan(session, plan, nil); err != nil {
				errc <- err
			}
		}(id)
	}
	wg.Wait()
	conWall := time.Since(start)
	stopAll(all)
	close(errc)
	for err := range errc {
		return nil, err
	}
	st2 := m2.Stats()
	if got := totalExecs(); got != 3 {
		return nil, fmt.Errorf("A6: dedup loss — %d executions across %d identical sessions (want 3)", got, sessions)
	}
	if st2.Coalesced == 0 {
		return nil, fmt.Errorf("A6: dedup loss — no coalesced requests across %d identical sessions", sessions)
	}
	t.Rows = append(t.Rows, Row{Series: "concurrent identical sessions", Metrics: []Metric{
		{Name: "sessions", Value: fmt.Sprint(sessions)},
		{Name: "wall", Value: ms(conWall)},
		{Name: "executions", Value: fmt.Sprint(totalExecs())},
		{Name: "dedup_coalesced", Value: fmt.Sprint(st2.Coalesced)},
		{Name: "saved", Value: dollars(st2.SavedCost)},
	}})

	// ---- Workload 3: data-source invalidation re-executes only readers ----
	for i := range execs {
		execs[i].Store(0)
	}
	m2.InvalidateSource("catalog")
	insts, err = attach("session:a6-inv")
	if err != nil {
		stopAll(insts)
		return nil, err
	}
	start = time.Now()
	_, err = c2.ExecutePlan("session:a6-inv", plan, nil)
	invWall := time.Since(start)
	stopAll(insts)
	if err != nil {
		return nil, err
	}
	if f, rest := execs[0].Load(), execs[1].Load()+execs[2].Load(); f != 1 || rest != 0 {
		return nil, fmt.Errorf("A6: invalidation re-executed fetch=%d downstream=%d (want 1 and 0)", f, rest)
	}
	t.Rows = append(t.Rows, Row{Series: "after source invalidation", Metrics: []Metric{
		{Name: "wall", Value: ms(invWall)},
		{Name: "reexecuted", Value: "1/3"},
		{Name: "invalidations", Value: fmt.Sprint(m2.Stats().Invalidations)},
	}})

	t.Notes = append(t.Notes,
		"warm repeated ask served entirely from memo: zero cost charged, zero marginal critical-path latency, plan admitted at residual projection",
		fmt.Sprintf("single-flight dedup: %d identical concurrent sessions -> 1 execution per step, the rest coalesce onto the winner", sessions),
		"invalidating the catalog source re-executes only the FETCH step; DERIVE/PRESENT still hit because the recomputed rows are unchanged")
	return t, nil
}
