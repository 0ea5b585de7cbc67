package obs

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"blueprint/internal/clock"
)

// ---- event log ----

func TestEventLogLevelGate(t *testing.T) {
	l := NewEventLog(16)
	if l.Level() != LevelInfo {
		t.Fatalf("default level = %v, want info", l.Level())
	}
	l.Emit(LevelDebug, "governor", "admit")
	l.Emit(LevelInfo, "governor", "queue")
	l.Emit(LevelWarn, "governor", "shed")
	if got := l.Len(); got != 2 {
		t.Fatalf("len = %d, want 2 (debug filtered at info)", got)
	}
	l.SetLevel(LevelDebug)
	if !l.On(LevelDebug) {
		t.Fatal("On(debug) false after SetLevel(debug)")
	}
	l.Emit(LevelDebug, "governor", "admit")
	if got := l.Len(); got != 3 {
		t.Fatalf("len = %d, want 3 after lowering the gate", got)
	}
	l.SetLevel(LevelOff)
	if l.On(LevelError) || l.On(LevelOff) {
		t.Fatal("On must be false for every level when off")
	}
	l.Emit(LevelError, "breaker", "open")
	if got := l.Len(); got != 3 {
		t.Fatalf("len = %d after off-level emit, want 3", got)
	}
	var nilLog *EventLog
	if nilLog.On(LevelError) {
		t.Fatal("nil log must report off")
	}
}

func TestEventLogRingWrapAndSince(t *testing.T) {
	l := NewEventLog(8)
	for i := 0; i < 20; i++ {
		l.Emit(LevelInfo, "c", fmt.Sprintf("k%d", i))
	}
	if l.Len() != 8 {
		t.Fatalf("len = %d, want 8", l.Len())
	}
	all := l.Since(0)
	if len(all) != 8 {
		t.Fatalf("Since(0) = %d events, want 8", len(all))
	}
	// Oldest-first, contiguous sequence ending at Seq().
	for i := 1; i < len(all); i++ {
		if all[i].Seq != all[i-1].Seq+1 {
			t.Fatalf("non-contiguous seqs: %d then %d", all[i-1].Seq, all[i].Seq)
		}
	}
	if head := l.Seq(); all[len(all)-1].Seq != head {
		t.Fatalf("newest retained seq %d != head %d", all[len(all)-1].Seq, head)
	}
	if all[0].Kind != "k12" {
		t.Fatalf("oldest retained = %s, want k12", all[0].Kind)
	}
	// A cursor mid-ring returns only newer events.
	mid := all[3].Seq
	tail := l.Since(mid)
	if len(tail) != 4 || tail[0].Seq != mid+1 {
		t.Fatalf("Since(%d) = %d events starting %d, want 4 starting %d",
			mid, len(tail), tail[0].Seq, mid+1)
	}
	// A cursor at the head returns nothing.
	if got := l.Since(l.Seq()); len(got) != 0 {
		t.Fatalf("Since(head) = %d events, want 0", len(got))
	}
}

func TestEventLogConcurrentAppend(t *testing.T) {
	l := NewEventLog(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Emit(LevelInfo, "c", "k")
			}
		}()
	}
	wg.Wait()
	if got := l.Seq(); got != 4000 {
		t.Fatalf("seq = %d, want 4000", got)
	}
	if got := l.Len(); got != 64 {
		t.Fatalf("len = %d, want 64", got)
	}
}

func TestSampler(t *testing.T) {
	s := NewSampler(8)
	admitted := 0
	for i := 0; i < 64; i++ {
		if s.Allow() {
			admitted++
		}
	}
	if admitted != 8 {
		t.Fatalf("1-in-8 sampler admitted %d of 64", admitted)
	}
	var nilS *Sampler
	if !nilS.Allow() || !NewSampler(0).Allow() {
		t.Fatal("nil and every<=1 samplers must admit everything")
	}
}

func TestTraceIDHelpers(t *testing.T) {
	a, b := NewTraceID("s1"), NewTraceID("s1")
	if a == b {
		t.Fatalf("trace ids not unique: %q", a)
	}
	if !strings.HasPrefix(a, "s1-") {
		t.Fatalf("trace id %q missing prefix", a)
	}
	ctx := WithTraceID(t.Context(), a)
	if got := TraceIDFrom(ctx); got != a {
		t.Fatalf("TraceIDFrom = %q, want %q", got, a)
	}
	if got := TraceIDFrom(t.Context()); got != "" {
		t.Fatalf("TraceIDFrom(bare ctx) = %q", got)
	}
	if WithTraceID(ctx, "") != ctx {
		t.Fatal("WithTraceID(\"\") must return ctx unchanged")
	}
}

// ---- flight recorder ----

func TestRecorderShouldCapture(t *testing.T) {
	r := NewRecorder(4)
	r.SetThreshold(100 * time.Millisecond)
	if r.ShouldCapture(50*time.Millisecond, "") {
		t.Fatal("fast success captured")
	}
	if !r.ShouldCapture(150*time.Millisecond, "") {
		t.Fatal("slow success not captured")
	}
	for _, o := range []string{OutcomeError, OutcomeDegraded, OutcomeShed} {
		if !r.ShouldCapture(0, o) {
			t.Fatalf("outcome %q not captured regardless of duration", o)
		}
	}
	r.SetThreshold(-1)
	if r.ShouldCapture(time.Hour, OutcomeError) {
		t.Fatal("negative threshold must disable capture entirely")
	}
}

func TestRecorderRingAndClamp(t *testing.T) {
	r := NewRecorder(4)
	bigSpans := make([]SpanData, MaxExemplarSpans+50)
	bigEvents := make([]Event, MaxExemplarEvents+50)
	for i := range bigEvents {
		bigEvents[i].Seq = uint64(i + 1)
	}
	id := r.Capture(Exemplar{Session: "s", Spans: bigSpans, Events: bigEvents})
	ex, ok := r.Get(id)
	if !ok {
		t.Fatal("captured exemplar not retrievable")
	}
	if ex.SpanCount != MaxExemplarSpans+50 || len(ex.Spans) != MaxExemplarSpans {
		t.Fatalf("spans %d/%d, want clamp to %d keeping true count", len(ex.Spans), ex.SpanCount, MaxExemplarSpans)
	}
	if len(ex.Events) != MaxExemplarEvents || ex.Events[0].Seq != 51 {
		t.Fatalf("events clamp must keep the tail: len %d first seq %d", len(ex.Events), ex.Events[0].Seq)
	}
	for i := 0; i < 10; i++ {
		r.Capture(Exemplar{Session: fmt.Sprintf("s%d", i)})
	}
	if r.Len() != 4 {
		t.Fatalf("ring len = %d, want 4", r.Len())
	}
	if _, ok := r.Get(id); ok {
		t.Fatal("evicted exemplar still retrievable")
	}
	if got := r.Captures(); got != 11 {
		t.Fatalf("captures = %d, want 11 (monotonic across eviction)", got)
	}
	sums := r.Summaries()
	if len(sums) != 4 || sums[0].Session != "s9" || sums[3].Session != "s6" {
		t.Fatalf("summaries not most-recent-first: %+v", sums)
	}
	latest, ok := r.Latest()
	if !ok || latest.Session != "s9" {
		t.Fatal("Latest must return the newest exemplar")
	}
}

// ---- SLO burn rates ----

func TestSLOBurnMath(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	tr := NewSLOTracker(SLOConfig{
		LatencyTarget: 100 * time.Millisecond,
		Objective:     0.9, // error budget 0.1 — burn = badFrac * 10
	}, clk)

	// 100 observations spread over 100s: 20 bad (10 errors + 10 slow).
	for i := 0; i < 100; i++ {
		clk.Advance(time.Second)
		switch {
		case i%10 == 0:
			tr.Record(SLOTenant, "acme", 10*time.Millisecond, true)
		case i%10 == 5:
			tr.Record(SLOTenant, "acme", 200*time.Millisecond, false)
		default:
			tr.Record(SLOTenant, "acme", 10*time.Millisecond, false)
		}
	}
	sts := tr.Status()
	if len(sts) != 1 {
		t.Fatalf("series = %d, want 1", len(sts))
	}
	st := sts[0]
	if st.Total != 100 || st.Bad != 20 || st.Errors != 10 || st.Slow != 10 {
		t.Fatalf("counts = %+v", st)
	}
	if st.GoodFraction != 0.8 {
		t.Fatalf("good fraction = %f, want 0.8", st.GoodFraction)
	}
	// Slow window (10m) covers the whole life: burn = 0.2/0.1 = 2.
	if st.SlowBurn < 1.9 || st.SlowBurn > 2.1 {
		t.Fatalf("slow burn = %f, want ~2", st.SlowBurn)
	}
	// Fast window (1m) covers the last 60 observations: 12 bad → burn 2.
	if st.FastBurn < 1.8 || st.FastBurn > 2.2 {
		t.Fatalf("fast burn = %f, want ~2", st.FastBurn)
	}

	// A burst of pure errors moves the fast burn far above the slow burn.
	for i := 0; i < 30; i++ {
		clk.Advance(time.Second)
		tr.Record(SLOTenant, "acme", 10*time.Millisecond, true)
	}
	st = tr.Status()[0]
	if st.FastBurn <= st.SlowBurn {
		t.Fatalf("error burst: fast burn %f must exceed slow burn %f", st.FastBurn, st.SlowBurn)
	}
	if st.FastBurn < 5 {
		t.Fatalf("fast burn = %f, want >= 5 during a pure-error burst", st.FastBurn)
	}

	// Flush a checkpoint past the coalescing granularity so the burst's
	// tail is baselined, then 20 minutes of silence: both windows drain to
	// zero burn.
	clk.Advance(sloGranularity)
	tr.Record(SLOTenant, "acme", 10*time.Millisecond, false)
	clk.Advance(20 * time.Minute)
	tr.Record(SLOTenant, "acme", 10*time.Millisecond, false)
	clk.Advance(time.Second)
	st = tr.Status()[0]
	if st.FastBurn != 0 || st.SlowBurn != 0 {
		t.Fatalf("after quiet period burns = %f/%f, want 0/0", st.FastBurn, st.SlowBurn)
	}
}

func TestSLONilAndSorting(t *testing.T) {
	var nilT *SLOTracker
	nilT.Record(SLOTenant, "x", time.Second, true) // must not panic
	if nilT.Status() != nil {
		t.Fatal("nil tracker Status must be nil")
	}
	if nilT.Config().Objective != 0.99 {
		t.Fatal("nil tracker Config must return defaults")
	}
	tr := NewSLOTracker(SLOConfig{}, nil)
	tr.Record(SLOTenant, "b", 0, false)
	tr.Record(SLOAgent, "z", 0, false)
	tr.Record(SLOTenant, "a", 0, false)
	sts := tr.Status()
	got := make([]string, len(sts))
	for i, st := range sts {
		got[i] = st.Kind + "/" + st.Name
	}
	want := []string{"agent/z", "tenant/a", "tenant/b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("status order = %v, want %v", got, want)
		}
	}
	tr.Record("", "", time.Second, true) // empty name ignored
	if len(tr.Status()) != 3 {
		t.Fatal("empty-name record must not create a series")
	}
}

// Tenant names are client-chosen: past maxSLOSeries, a new tenant is counted
// in one overflow series, while the tenants seen first keep their own.
func TestSLOTenantSeriesBounded(t *testing.T) {
	tr := NewSLOTracker(SLOConfig{}, nil)
	const tenants = 10000
	for i := 0; i < tenants; i++ {
		tr.Record(SLOTenant, fmt.Sprintf("t%d", i), 0, false)
	}
	tr.Record(SLOTenant, "t0", 0, true)
	tr.Record(SLOAgent, "SQLEXECUTOR", 0, false)
	series := map[string]SLOStatus{}
	for _, st := range tr.Status() {
		if st.Kind == SLOTenant {
			series[st.Name] = st
		}
	}
	if len(series) > maxSLOSeries+1 {
		t.Fatalf("%d tenants made %d tenant series, want at most %d", tenants, len(series), maxSLOSeries+1)
	}
	if st := series["t0"]; st.Total != 2 || st.Bad != 1 {
		t.Errorf("the first tenant's series = %+v, want its own 2 observations, 1 bad", st)
	}
	if st := series[fmt.Sprintf("t%d", maxSLOSeries-1)]; st.Total != 1 {
		t.Errorf("the last tenant under the cap has no series of its own: %+v", st)
	}
	if st := series[sloOverflow]; st.Total != tenants-maxSLOSeries {
		t.Errorf("overflow series holds %d observations, want %d", st.Total, tenants-maxSLOSeries)
	}
	if _, ok := series[fmt.Sprintf("t%d", tenants-1)]; ok {
		t.Error("a tenant past the cap got a series of its own")
	}
}

func TestSLOExpositionLabels(t *testing.T) {
	r := NewRegistry()
	tr := NewSLOTracker(SLOConfig{}, nil)
	// Hostile tenant name: X-Tenant is client-controlled.
	tr.Record(SLOTenant, "evil\"}\n\\name", time.Second, true)
	r.SLOFunc("test_burn", "burn", tr)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, `test_burn{kind="tenant",name="evil\"}\n\\name",window="fast"}`) {
		t.Fatalf("escaped labeled sample missing:\n%s", text)
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "evil") && strings.ContainsRune(line, '\n') {
			t.Fatalf("raw newline leaked into sample line: %q", line)
		}
	}
	// Re-point semantics: a second SLOFunc call swaps the tracker.
	tr2 := NewSLOTracker(SLOConfig{}, nil)
	tr2.Record(SLOAgent, "fresh", 0, false)
	r.SLOFunc("test_burn", "burn", tr2)
	sb.Reset()
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `name="fresh"`) || strings.Contains(sb.String(), "evil") {
		t.Fatal("SLOFunc re-point did not swap trackers")
	}
}

func TestEscapeLabel(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{`back\slash`, `back\\slash`},
		{`quo"te`, `quo\"te`},
		{"new\nline", `new\nline`},
		{"\\\"\n", `\\\"\n`},
		{"", ""},
	}
	for _, c := range cases {
		if got := EscapeLabel(c.in); got != c.want {
			t.Fatalf("EscapeLabel(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestHistogramInfSeriesInExposition pins the exposition of observations
// beyond the last bound: they must appear only in the +Inf bucket series,
// and every finite bucket line must stay below it.
func TestHistogramInfSeriesInExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_over_seconds", "overflow", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(50)   // beyond the last bound
	h.Observe(5000) // far beyond
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	wantLines := map[string]string{
		`test_over_seconds_bucket{le="0.1"} 1`:  "le=0.1",
		`test_over_seconds_bucket{le="1"} 1`:    "le=1",
		`test_over_seconds_bucket{le="+Inf"} 3`: "le=+Inf",
		`test_over_seconds_count 3`:             "count",
	}
	for line, label := range wantLines {
		if !strings.Contains(text, line) {
			t.Fatalf("exposition missing %s line %q:\n%s", label, line, text)
		}
	}
}

// ---- tracer session bound (satellite: LRU eviction) ----

func TestTracerLRUEviction(t *testing.T) {
	tr := newTracer(3)
	for _, s := range []string{"a", "b", "c"} {
		tr.StartRoot(s, "t", "op").End()
	}
	// Touch "a" so "b" becomes least recently active.
	tr.StartRoot("a", "t", "op2").End()
	tr.StartRoot("d", "t", "op").End()
	if n := tr.SessionCount(); n != 3 {
		t.Fatalf("session count = %d, want 3", n)
	}
	if got := tr.Session("b"); got != nil {
		t.Fatal("least-recently-active session b not evicted")
	}
	for _, s := range []string{"a", "c", "d"} {
		if got := tr.Session(s); len(got) == 0 {
			t.Fatalf("session %s evicted, want retained", s)
		}
	}
}

// TestTracerBoundedMemory drives a million short sessions through one
// tracer and asserts the retained state stays at the session bound — the
// regression test for the unbounded per-session ring map.
func TestTracerBoundedMemory(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	tr := NewTracer()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		sp := tr.StartRoot(fmt.Sprintf("sess-%d", i), "session", "ask")
		tr.Resume(sp.ID(), "", "agent", "step").End()
		sp.End()
	}
	if got := tr.SessionCount(); got != DefaultMaxSessions {
		t.Fatalf("session count = %d, want bound %d", got, DefaultMaxSessions)
	}
	if n := len(tr.asks); n != 0 {
		t.Fatalf("%d asks left open after every span ended", n)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	// 128 sessions x 2048-span rings is well under 64 MiB; an unbounded map
	// of a million sessions would hold hundreds of MiB.
	const bound = 64 << 20
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > bound {
		t.Fatalf("heap grew %d bytes across %d sessions, want <= %d", grew, n, bound)
	}
}

func TestTracerTree(t *testing.T) {
	tr := NewTracer()
	// Two interleaved asks in one session: Tree must isolate one root.
	r1 := tr.StartRoot("s", "session", "ask1")
	c1 := tr.Resume(r1.ID(), "", "agent", "step1")
	c1.End()
	r1.End()
	r2 := tr.StartRoot("s", "session", "ask2")
	c2 := tr.Resume(r2.ID(), "", "agent", "step2")
	c2.End()
	r2.End()
	tree := tr.Tree("s", r1.ID())
	if len(tree) != 2 {
		t.Fatalf("tree = %d spans, want 2", len(tree))
	}
	if tree[0].Name != "step1" || tree[1].Name != "ask1" {
		t.Fatalf("tree = %s then %s, want step1 then ask1 (chronological by end)", tree[0].Name, tree[1].Name)
	}
	if got := tr.Tree("s", 999999); len(got) != 0 {
		t.Fatal("unknown root must return no spans")
	}
	if got := tr.Tree("nope", r1.ID()); len(got) != 0 {
		t.Fatal("unknown session must return no spans")
	}

	// Laggard subtree: the ask returns — and its root ends — the moment the
	// answer displays, a hair before the posting agent's span and its
	// coordinator ancestors land. The whole chain is then recorded AFTER
	// the root, so membership must not depend on ring order.
	r3 := tr.StartRoot("s", "session", "ask3")
	p3 := tr.Resume(r3.ID(), "", "coordinator", "plan")
	c3 := tr.Resume(r3.ID(), p3.Token(), "agent", "late")
	r3.End()
	c3.End()
	p3.End()
	tree = tr.Tree("s", r3.ID())
	if len(tree) != 3 {
		t.Fatalf("laggard tree = %d spans, want 3 (root + chain recorded after it)", len(tree))
	}
}

// The table of open asks holds an ask exactly while one of its spans is
// open, whatever the session bound evicts meanwhile: laggards that end after
// their root — and after their session's ring was evicted — still retire
// their ask, and every Settled channel closes.
func TestOpenAsksEmptyUnderEviction(t *testing.T) {
	tr := newTracer(2)
	var roots, laggards []*Span
	for i := 0; i < 10; i++ {
		root := tr.StartRoot(fmt.Sprintf("sess-%d", i), "session", "ask")
		plan := tr.Resume(root.ID(), "", "coordinator", "plan")
		laggards = append(laggards, plan, tr.Resume(root.ID(), plan.Token(), "agent", "late"))
		roots = append(roots, root)
	}
	for _, root := range roots {
		root.End()
	}
	if n := len(tr.asks); n != 10 {
		t.Fatalf("%d asks open with their laggards running, want 10", n)
	}
	for i := len(laggards) - 1; i >= 0; i-- {
		laggards[i].End()
	}
	for _, root := range roots {
		select {
		case <-root.Settled():
		default:
			t.Fatalf("ask %d did not settle", root.ID())
		}
	}
	if n, s := len(tr.asks), tr.SessionCount(); n != 0 || s != 2 {
		t.Fatalf("after every span ended: %d asks open (want 0), %d session rings (want the bound, 2)", n, s)
	}
}
