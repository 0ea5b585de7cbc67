package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"blueprint"
	"blueprint/internal/agent"
	"blueprint/internal/budget"
	"blueprint/internal/dataplan"
	"blueprint/internal/durability"
	"blueprint/internal/hragents"
	"blueprint/internal/memo"
	"blueprint/internal/nlq"
	"blueprint/internal/obs"
	"blueprint/internal/planner"
	"blueprint/internal/registry"
	"blueprint/internal/resilience"
	"blueprint/internal/streams"
	"blueprint/internal/workload"
)

// Layer probes: direct, timed calls into each layer's public functions with
// the inputs the workloads generate, each the median of many calls after a
// warm-up. They do not depend on the workload, run in a process of their own
// and tell a later change which layer's cost it moved; the end-to-end
// metrics tell whether that mattered.

// timed returns the median duration of n calls of f (after warm untimed
// calls), in nanoseconds. Calls faster than a microsecond are timed in
// batches of batch so that the clock read does not dominate.
func (p *probeSet) timed(n, warm, batch int, f func()) float64 {
	if n = p.cut(n); n < batch {
		n = batch
	}
	for i := 0; i < warm; i++ {
		f()
	}
	samples := make([]float64, 0, n/batch)
	for i := 0; i < n/batch; i++ {
		start := time.Now()
		for j := 0; j < batch; j++ {
			f()
		}
		samples = append(samples, float64(time.Since(start).Nanoseconds())/float64(batch))
	}
	return median(samples)
}

type probeSet struct {
	out map[string]float64
	err error
	// quick cuts every probe's repetitions (and the wide probes' live
	// sessions and subscriptions) by smokeDivisor/4: a smoke run wants each
	// layer called, not measured.
	quick bool
}

func (p *probeSet) cut(n int) int {
	if p.quick {
		return n / (smokeDivisor / 4)
	}
	return n
}

// ns, us and ms record a probe under its metric name in the unit it carries.
func (p *probeSet) ns(name string, v float64) { p.out[name] = v }
func (p *probeSet) us(name string, v float64) { p.out[name] = v / 1e3 }
func (p *probeSet) ms(name string, v float64) { p.out[name] = v / 1e6 }

func (p *probeSet) fail(err error) {
	if p.err == nil && err != nil {
		p.err = err
	}
}

func runProbes(workDir string, quick bool) (map[string]float64, error) {
	p := &probeSet{out: map[string]float64{}, quick: quick}
	probeStreams(p)
	probeMemo(p)
	probeObsResilience(p)
	probeDurability(p, workDir)
	probeRelationalNLQ(p)
	probeSystem(p)
	return p.out, p.err
}

// drain consumes a subscription so that its pump never blocks.
func drain(sub *streams.Subscription) {
	go func() {
		for range sub.C() {
		}
	}()
}

func probeStreams(p *probeSet) {
	// Append with 16 and with 8192 live subscriptions, filtered the way
	// agents filter (session + kind + tags); one subscription matches.
	for _, c := range []struct {
		name string
		subs int
	}{{"streams.append_ns", 16}, {"streams.append_wide_ns", 8192}} {
		st := streams.NewStore()
		for i := 0; i < p.cut(c.subs); i++ {
			drain(st.Subscribe(streams.Filter{
				Session: fmt.Sprintf("session:%d", i), Kinds: []streams.Kind{streams.Data, streams.Event},
				IncludeTags: []string{"utterance"},
			}, false))
		}
		_, err := st.CreateStream("session:0:user", streams.StreamInfo{Session: "session:0"})
		p.fail(err)
		msg := streams.Message{Stream: "session:0:user", Kind: streams.Data, Sender: "user", Tags: []string{"user", "utterance"}, Payload: "How many jobs are in Austin?"}
		n, batch := 20000, 16
		if c.subs > 1000 {
			n, batch = 1000, 1
		}
		p.ns(c.name, p.timed(n, 200, batch, func() {
			if _, err := st.Append(msg); err != nil {
				p.fail(err)
			}
		}))
		p.fail(st.Close())
	}
	// Replay-subscribe and drain a display stream of 16 and of 2048 messages:
	// what every ask pays to await its answer.
	for _, c := range []struct {
		name string
		msgs int
	}{{"streams.replay_sub_us", 16}, {"streams.replay_deep_us", 2048}} {
		st := streams.NewStore()
		_, err := st.CreateStream("session:0:display", streams.StreamInfo{Session: "session:0"})
		p.fail(err)
		for i := 0; i < c.msgs; i++ {
			_, err := st.Append(streams.Message{Stream: "session:0:display", Kind: streams.Data, Sender: "QUERY_SUMMARIZER", Tags: []string{"display"}, Payload: "Summary: The query returned 1 rows. n: 257."})
			p.fail(err)
		}
		n := 2000
		if c.msgs > 1000 {
			n = 300
		}
		p.us(c.name, p.timed(n, 20, 1, func() {
			sub := st.Subscribe(streams.Filter{Streams: []string{"session:0:display"}}, true)
			for i := 0; i < c.msgs; i++ {
				<-sub.C()
			}
			sub.Cancel()
		}))
		p.fail(st.Close())
	}
}

func probeMemo(p *probeSet) {
	inputs := map[string]any{"JOB_ID": 17}
	p.ns("memo.key_ns", p.timed(20000, 200, 16, func() {
		if _, err := memo.ComputeKey(hragents.Summarizer, 1, inputs); err != nil {
			p.fail(err)
		}
	}))
	st := memo.New(0)
	entry := memo.Entry{Outputs: map[string]any{"SUMMARY": "Summary: Job 17: Data Analyst in Austin paying 120000. offer applicants: 2."}, Cost: 0.005}
	keys := make([]memo.Key, 2000)
	for i := range keys {
		keys[i], _ = memo.ComputeKey(hragents.Summarizer, 1, map[string]any{"JOB_ID": i})
	}
	i := 0
	p.ns("memo.put_ns", p.timed(20000, 200, 16, func() {
		st.Put(keys[i%len(keys)], hragents.Summarizer, []string{"hr"}, 0, entry)
		i++
	}))
	p.ns("memo.get_hit_ns", p.timed(20000, 200, 16, func() {
		if _, ok := st.Get(keys[i%len(keys)]); !ok {
			p.fail(fmt.Errorf("memo probe: resident key missed"))
		}
		i++
	}))
	// One invalidation sweep over 2000 resident entries reading the source
	// (the cost a write pays); refilled, untimed, between sweeps.
	sweeps := make([]float64, 0, 50)
	for r := 0; r < p.cut(50)+1; r++ {
		for _, k := range keys {
			st.Put(k, hragents.Summarizer, []string{"hr"}, 0, entry)
		}
		start := time.Now()
		dropped := st.InvalidateSource("hr")
		sweeps = append(sweeps, float64(time.Since(start).Nanoseconds()))
		if dropped != len(keys) {
			p.fail(fmt.Errorf("memo probe: sweep dropped %d of %d", dropped, len(keys)))
		}
	}
	p.us("memo.invalidate_source_us", median(sweeps))
}

func probeObsResilience(p *probeSet) {
	root := obs.Spans.StartRoot("session:probe", "session", "ask")
	ctx := obs.ContextWith(context.Background(), root)
	p.ns("obs.span_ns", p.timed(20000, 200, 16, func() {
		_, sp := obs.StartSpan(ctx, "agent", "probe")
		sp.End()
	}))
	root.End()
	gov := resilience.NewGovernor(resilience.GovernorConfig{MaxConcurrent: 8})
	p.ns("resilience.admit_ns", p.timed(20000, 200, 16, func() {
		release, err := gov.Admit(context.Background(), "pro")
		if err != nil {
			p.fail(err)
			return
		}
		release()
	}))
}

// nopLog is a subsystem with nothing to replay or snapshot but a fixed blob,
// so that durability probes time the engine and not a subsystem.
type nopLog struct{ blob []byte }

func (nopLog) Apply([]byte) error           { return nil }
func (l nopLog) Snapshot(w io.Writer) error { _, err := w.Write(l.blob); return err }
func (nopLog) Restore(r io.Reader) error    { _, err := io.Copy(io.Discard, r); return err }

func probeDurability(p *probeSet, workDir string) {
	if workDir == "" {
		workDir = os.TempDir()
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		p.fail(err)
		return
	}
	dir, err := os.MkdirTemp(workDir, "probe-")
	if err != nil {
		p.fail(err)
		return
	}
	defer os.RemoveAll(dir)
	eng, err := durability.Open(dir, durability.Options{})
	if err != nil {
		p.fail(err)
		return
	}
	p.fail(eng.Register(9, "probe", nopLog{blob: make([]byte, 1<<20)}))
	p.fail(eng.Recover())
	rec := make([]byte, 320) // about one logged stream message
	p.us("durability.append_us", p.timed(20000, 200, 16, func() { p.fail(eng.Append(9, rec)) }))
	p.us("durability.append_sync_us", p.timed(200, 5, 1, func() { p.fail(eng.AppendSync(9, rec)) }))
	p.ms("durability.snapshot_ms", p.timed(20, 2, 1, func() { p.fail(eng.Snapshot()) }))
	p.fail(eng.Close())
}

func probeRelationalNLQ(p *probeSet) {
	ent, err := workload.Build(42, workload.MediumScale())
	if err != nil {
		p.fail(err)
		return
	}
	db := ent.DB
	query := func(sql string, params ...any) func() {
		return func() {
			if _, err := db.Query(sql, params...); err != nil {
				p.fail(err)
			}
		}
	}
	// The statements exactly as NL2Q and the Summarizer emit them.
	p.us("relational.count_us", p.timed(2000, 50, 1, query(`SELECT COUNT(*) AS n FROM jobs WHERE city = 'Austin'`)))
	p.us("relational.groupby_us", p.timed(500, 20, 1, query(`SELECT city, AVG(salary) AS avg_salary FROM jobs WHERE salary > 140500 GROUP BY city`)))
	p.us("relational.title_scan_us", p.timed(1000, 20, 1, query(`SELECT * FROM jobs WHERE title = 'Backend Engineer'`)))
	p.us("relational.point_noindex_us", p.timed(500, 20, 1, query(`SELECT title, city, salary FROM jobs WHERE id = ?`, 17)))
	p.us("relational.point_index_us", p.timed(2000, 50, 1, query(`SELECT status, COUNT(*) AS n FROM applications WHERE job_id = ? GROUP BY status ORDER BY status`, 17)))
	i := 0
	p.us("relational.update_us", p.timed(300, 10, 1, func() {
		if _, err := db.Exec(writeSQL(1+i%20000, statuses[i%len(statuses)])); err != nil {
			p.fail(err)
		}
		i++
	}))

	tgt, err := dataplan.BuildTarget(db, "jobs")
	if err != nil {
		p.fail(err)
		return
	}
	compile := func(text string) func() {
		return func() {
			if _, err := nlq.Compile(text, tgt); err != nil {
				p.fail(err)
			}
		}
	}
	p.us("nlq.compile_count_us", p.timed(2000, 50, 1, compile("How many jobs are in Austin?")))
	p.us("nlq.compile_groupby_us", p.timed(2000, 50, 1, compile("average salary per city for salary over 140500")))
	p.us("nlq.compile_search_us", p.timed(2000, 50, 1, compile("I am looking for a backend engineer position in seattle area.")))
}

// echoSpec is a minimal centrally-activated agent for the runtime probe.
var echoSpec = registry.AgentSpec{
	Name: "ECHO", Description: "echo probe agent",
	Inputs:  []registry.ParamSpec{{Name: "TEXT", Type: "text"}},
	Outputs: []registry.ParamSpec{{Name: "TEXT", Type: "text"}},
}

func probeSystem(p *probeSet) {
	h, err := boot(blueprint.Config{})
	if err != nil {
		p.fail(err)
		return
	}
	defer h.stop(false)
	sys := h.sys

	cl := newClient(h.srv.URL)
	p.us("httpapi.noop_rt_us", p.timed(2000, 50, 1, func() {
		if _, err := cl.noop(); err != nil {
			p.fail(err)
		}
	}))
	cl.close()

	p.us("planner.plan_us", p.timed(1000, 20, 1, func() {
		if _, err := sys.TaskPlanner.Plan("I am looking for a backend engineer position in seattle area."); err != nil {
			p.fail(err)
		}
	}))

	// StartSession with no other session live: spawn 11 agents and the
	// coordinator service. Closing is untimed.
	startSession := func() float64 {
		start := time.Now()
		sess, err := sys.StartSession("")
		took := time.Since(start)
		if err != nil {
			p.fail(err)
			return 0
		}
		sess.Close()
		return float64(took.Nanoseconds())
	}
	sample := func(n int, f func() float64) float64 {
		xs := make([]float64, p.cut(n)+1)
		for i := range xs {
			xs[i] = f()
		}
		return median(xs)
	}
	startSession()
	p.us("session.start_us", sample(200, startSession))
	p.us("agent.spawn_us", sample(200, func() float64 {
		base, err := sys.Sessions.Create("")
		if err != nil {
			p.fail(err)
			return 0
		}
		start := time.Now()
		_, err = base.SpawnAgent(hragents.Summarizer, agent.Options{})
		took := time.Since(start)
		p.fail(err)
		base.Close()
		return float64(took.Nanoseconds())
	}))

	// Execute -> AwaitDone of an echo processor: one agent hop. A fresh
	// session every 16 calls keeps the control-stream history AwaitDone
	// replays short and constant.
	echo := agent.New(echoSpec, func(_ context.Context, inv agent.Invocation) (agent.Outputs, error) {
		return agent.Outputs{Values: map[string]any{"TEXT": inv.Inputs["TEXT"]}}, nil
	})
	var hops []float64
	for s := 0; s < p.cut(64); s++ {
		base, err := sys.Sessions.Create("")
		if err != nil {
			p.fail(err)
			break
		}
		if _, err := base.AddAgent(echo, agent.Options{}); err != nil {
			p.fail(err)
			break
		}
		for i := 0; i < 16; i++ {
			inv := fmt.Sprintf("probe-%d-%d", s, i)
			start := time.Now()
			err := agent.Execute(sys.Store, base.ID, "ECHO", map[string]any{"TEXT": "hello"}, "", inv)
			done := agent.AwaitDone(sys.Store, base.ID, inv)
			hops = append(hops, float64(time.Since(start).Nanoseconds()))
			if err != nil || done == nil {
				p.fail(fmt.Errorf("agent probe: execute %v, done %v", err, done))
			}
		}
		base.Close()
	}
	p.us("agent.roundtrip_us", median(hops))

	// AwaitDisplay past a display history of 16 and of 2048 messages.
	for _, c := range []struct {
		name string
		msgs int
	}{{"session.await_display_us", 16}, {"session.await_deep_us", 2048}} {
		base, err := sys.Sessions.Create("")
		if err != nil {
			p.fail(err)
			continue
		}
		for i := 0; i <= c.msgs; i++ {
			_, err := sys.Store.Append(streams.Message{Stream: agent.DisplayStream(base.ID), Kind: streams.Data, Sender: "QUERY_SUMMARIZER", Tags: []string{"display"}, Payload: "Summary: The query returned 1 rows. n: 257."})
			p.fail(err)
		}
		n := 1000
		if c.msgs > 1000 {
			n = 200
		}
		p.us(c.name, p.timed(n, 10, 1, func() {
			if _, err := base.AwaitDisplay(c.msgs, "", time.Second); err != nil {
				p.fail(err)
			}
		}))
		base.Close()
	}

	// ExecutePlan of the one-step summarizer plan the Agentic Employer emits:
	// cold (a new job id every call, so the memo misses and the step runs)
	// and warm (one job id, so it hits).
	sess, err := sys.StartSession("")
	if err != nil {
		p.fail(err)
		return
	}
	plan := func(job int) *planner.Plan {
		return &planner.Plan{
			ID: fmt.Sprintf("probe-summarize-%d", job), Utterance: fmt.Sprintf("summarize job %d", job), Intent: "summarize",
			Steps: []planner.Step{{ID: "s1", Agent: hragents.Summarizer, Task: "summarize applicants for the selected job",
				Bindings: map[string]planner.Binding{"JOB_ID": {Value: job}}}},
		}
	}
	job := 0
	execute := func(next func() int) func() {
		return func() {
			if _, err := sys.Coordinator.ExecutePlan(sess.ID, plan(next()), budget.New(budget.Limits{MaxCost: 1})); err != nil {
				p.fail(err)
			}
		}
	}
	p.us("coordinator.plan_cold_us", p.timed(190, 5, 1, execute(func() int { job++; return job })))
	p.us("coordinator.plan_warm_us", p.timed(1000, 20, 1, execute(func() int { return 1 })))
	sess.Close()

	// StartSession with 512 sessions live: every Append of the spawn
	// sequence now evaluates ~9000 subscription filters.
	var live []*blueprint.Session
	for len(live) < p.cut(512) {
		s, err := sys.StartSession("")
		if err != nil {
			p.fail(err)
			return
		}
		live = append(live, s)
	}
	p.us("session.start_wide_us", sample(40, startSession))
}
