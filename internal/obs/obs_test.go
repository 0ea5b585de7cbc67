package obs

import (
	"bufio"
	"context"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"
)

// ---- histogram ----

func TestHistogramBasics(t *testing.T) {
	h := newHistogram("h", "", []float64{0.001, 0.01, 0.1, 1})
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i) / 1000) // uniform over [0, 1)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if s := h.Sum(); s < 499 || s > 500 {
		t.Fatalf("sum = %f", s)
	}
	qs := h.Quantiles(0.5, 0.95, 0.99)
	// Uniform data: p50 ~0.5, p95 ~0.95 — the 2x ladder is coarse, so just
	// check each estimate lands in its bucket's range.
	if qs[0] < 0.1 || qs[0] > 1 {
		t.Fatalf("p50 = %f", qs[0])
	}
	if qs[1] < qs[0] || qs[2] < qs[1] {
		t.Fatalf("quantiles not monotone: %v", qs)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := newHistogram("h", "", []float64{1, 2})
	h.Observe(1000) // +Inf bucket
	if got := h.Quantiles(0.99)[0]; got != 2 {
		t.Fatalf("overflow quantile = %f, want clamp to top bound 2", got)
	}
}

// TestHistogramConcurrent hammers one histogram from N writers while a
// reader keeps taking quantiles, asserting (under -race) that the final
// count is exact and every single-call quantile set is monotone.
func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram("h", "", LatencyBuckets)
	const writers, perWriter = 8, 20000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader: monotonicity must hold per call
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			qs := h.Quantiles(0.5, 0.95, 0.99)
			if qs[0] > qs[1] || qs[1] > qs[2] {
				t.Errorf("quantiles inverted under concurrency: %v", qs)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWriter; i++ {
				h.Observe(rng.Float64() * 0.1)
			}
		}(int64(w))
	}
	for h.Count() < writers*perWriter {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if h.Count() != writers*perWriter {
		t.Fatalf("count = %d, want %d", h.Count(), writers*perWriter)
	}
	qs := h.Quantiles(0.01, 0.5, 0.95, 0.99)
	for i := 1; i < len(qs); i++ {
		if qs[i] < qs[i-1] {
			t.Fatalf("final quantiles not monotone: %v", qs)
		}
	}
}

// TestHistogramObserveZeroAllocs enforces the hot-path contract in plain
// `go test` runs, not just benchmarks: Observe allocates nothing.
func TestHistogramObserveZeroAllocs(t *testing.T) {
	h := newHistogram("h", "", LatencyBuckets)
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(0.00042) }); allocs != 0 {
		t.Fatalf("Observe allocates %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := newHistogram("bench", "", LatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := newHistogram("bench", "", LatencyBuckets)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := 1e-6
		for pb.Next() {
			h.Observe(v)
			v *= 1.1
			if v > 1 {
				v = 1e-6
			}
		}
	})
}

// ---- registry + exposition ----

func TestExpositionFormatParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_ops_total", "operations").Inc()
	r.Gauge("test_workers", "busy workers").Add(3)
	r.GaugeFunc("test_entries", "entries", func() float64 { return 17 })
	h := r.Histogram("test_latency_seconds", "latency", []float64{0.001, 0.01, 0.1})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) * 0.002)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	// Every line must be a comment or `name[{labels}] value` with a
	// parseable float value; histogram buckets must be cumulative and the
	// +Inf bucket must equal _count.
	var bucketPrev float64
	var infBucket, count float64
	seen := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Fatalf("bad comment line: %q", line)
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("unparseable line: %q", line)
		}
		name, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		base := name
		if i := strings.IndexByte(name, '{'); i >= 0 {
			base = name[:i]
			if !strings.HasSuffix(name, "}") || !strings.Contains(name, `le="`) {
				t.Fatalf("bad label syntax: %q", line)
			}
		}
		for _, c := range base {
			if !(c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')) {
				t.Fatalf("bad metric name %q", base)
			}
		}
		seen[base] = true
		if strings.HasPrefix(name, "test_latency_seconds_bucket") {
			if v < bucketPrev {
				t.Fatalf("bucket series not cumulative: %q after %f", line, bucketPrev)
			}
			bucketPrev = v
			if strings.Contains(name, "+Inf") {
				infBucket = v
			}
		}
		if name == "test_latency_seconds_count" {
			count = v
		}
	}
	for _, want := range []string{"test_ops_total", "test_workers", "test_entries", "test_latency_seconds_bucket", "test_latency_seconds_sum", "test_latency_seconds_count"} {
		if !seen[want] {
			t.Fatalf("exposition missing %s:\n%s", want, text)
		}
	}
	if infBucket != count || count != 100 {
		t.Fatalf("+Inf bucket %f != count %f (want 100)", infBucket, count)
	}
}

func TestRegistryIdempotentAndSnapshot(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "")
	c2 := r.Counter("x_total", "")
	if c1 != c2 {
		t.Fatal("re-registration returned a different counter")
	}
	c1.Inc()
	r.GaugeFunc("g", "", func() float64 { return 1 })
	r.GaugeFunc("g", "", func() float64 { return 2 }) // re-point wins
	snap := r.Snapshot()
	if snap["x_total"] != 1 || snap["g"] != 2 {
		t.Fatalf("snapshot = %v", snap)
	}
}

// ---- spans ----

func TestSpanTreeAndContextPropagation(t *testing.T) {
	tr := NewTracer()
	root := tr.StartRoot("s1", "session", "ask")
	if root == nil {
		t.Fatal("root nil while enabled")
	}
	ctx := ContextWith(context.Background(), root)
	ctx, child := StartSpan(ctx, "coordinator", "plan")
	_, grand := StartSpan(ctx, "scheduler", "step:1")
	grand.SetAttr("agent", "NL2Q")
	grand.End()
	_, grand2 := StartSpan(ctx, "scheduler", "step:2")
	grand2.End()
	child.End()
	root.End()

	spans := tr.Session("s1")
	if len(spans) != 4 {
		t.Fatalf("spans = %d, want 4", len(spans))
	}
	byID := map[uint64]SpanData{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	g := byID[grand.ID()]
	if g.Parent != child.ID() || byID[child.ID()].Parent != root.ID() || byID[root.ID()].Parent != 0 {
		t.Fatalf("parent links wrong: %+v", spans)
	}
	if len(g.Attrs) != 1 || g.Attrs[0].Key != "agent" {
		t.Fatalf("attrs = %+v", g.Attrs)
	}
	out := RenderTree(spans)
	for _, want := range []string{"session/ask", "├─", "└─", `agent="NL2Q"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// A span started for a message is parented and charged by the ask the
// message names, never by whichever ask is open when it starts: a laggard of
// ask 1 that starts while ask 2 is open joins ask 1's tree and holds ask 1
// open, and once every span of an ask has ended its id anchors nothing.
func TestResumeAnchorsByAsk(t *testing.T) {
	tr := NewTracer()
	if sp := tr.Resume(0, 0, "agent", "x"); sp != nil {
		t.Fatal("Resume for no ask must be a no-op")
	}
	ask1 := tr.StartRoot("s2", "session", "ask")
	plan := tr.Resume(ask1.ID(), 0, "coordinator", "plan")
	ask1.End() // the answer displayed; the plan still runs
	ask2 := tr.StartRoot("s2", "session", "ask")
	late := tr.Resume(ask1.ID(), plan.ID(), "agent", "late")
	if late == nil || late.parent != plan.ID() || late.ask != ask1.ask {
		t.Fatalf("laggard of ask 1 = %+v, want a child of its plan span charged to ask 1", late)
	}
	plan.End()
	select {
	case <-ask1.Settled():
		t.Fatal("ask 1 settled with its laggard still open")
	default:
	}
	if n := ask2.ask.open.Load(); n != 1 {
		t.Fatalf("ask 2 counts %d open spans, want its root alone", n)
	}
	late.End()
	select {
	case <-ask1.Settled():
	default:
		t.Fatal("ask 1 did not settle when its last span ended")
	}
	if sp := tr.Resume(ask1.ID(), 0, "agent", "after"); sp != nil {
		t.Fatal("a settled ask anchored a new span")
	}
	if tree := tr.Tree("s2", ask1.ID()); len(tree) != 3 {
		t.Fatalf("ask 1's tree holds %d spans, want root, plan and laggard", len(tree))
	}
	ask2.End()
}

// The parent a directive carries is a span id: Resume opens the span under
// it, under the ask's root when it is 0, and not at all once the ask is done.
func TestResumeToken(t *testing.T) {
	tr := NewTracer()
	root := tr.StartRoot("s3", "session", "ask")
	_, step := StartSpan(ContextWith(t.Context(), root), "scheduler", "step")
	sp := tr.Resume(root.ID(), step.ID(), "agent", "NL2Q")
	if sp == nil || sp.parent != step.ID() {
		t.Fatalf("Resume(%d) parent = %v, want %d", step.ID(), sp, step.ID())
	}
	// No parent anchors under the ask's root.
	if got := tr.Resume(root.ID(), 0, "agent", "x"); got == nil || got.parent != root.ID() {
		t.Fatalf("no parent: %+v, want a child of the root", got)
	} else {
		got.End()
	}
	sp.End()
	step.End()
	root.End()
	if got := tr.Resume(root.ID(), step.ID(), "agent", "x"); got != nil {
		t.Fatalf("a parent of an ask with no span open should no-op")
	}
}

// Outside a traced request the span sites hand out nil spans, and the whole
// span surface is inert on nil.
func TestNilSpanIsInert(t *testing.T) {
	tr := NewTracer()
	if tr.Resume(1, 0, "agent", "x") != nil {
		t.Fatal("Resume for an ask never started")
	}
	if ctx, sp := StartSpan(context.Background(), "agent", "x"); sp != nil || FromContext(ctx) != nil {
		t.Fatal("StartSpan without a parent in the context")
	}
	var sp *Span
	sp.SetAttr("k", "v")
	sp.End()
	if sp.ID() != 0 || sp.Settled() == nil {
		t.Fatal("nil span surface not inert")
	}
}

func TestRingBounded(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < ringCapacity+100; i++ {
		sp := tr.StartRoot("s", "session", "ask")
		sp.End()
	}
	spans := tr.Session("s")
	if len(spans) != ringCapacity {
		t.Fatalf("ring = %d, want %d", len(spans), ringCapacity)
	}
	// Oldest 100 must have been overwritten: first recorded span is gone.
	if spans[0].ID < 100 {
		t.Fatalf("oldest span id = %d, eviction failed", spans[0].ID)
	}
}

func TestTruncateRuneSafe(t *testing.T) {
	s := strings.Repeat("é", 40) // 2 bytes each
	got := Truncate(s, 61)       // byte 61 splits a rune
	if !utf8.ValidString(got) {
		t.Fatalf("truncated string invalid UTF-8: %q", got)
	}
	if !strings.HasSuffix(got, "...") || len(got) > 64 {
		t.Fatalf("truncate = %q", got)
	}
	if Truncate("short", 61) != "short" {
		t.Fatal("short strings must pass through")
	}
}
