package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"blueprint"
	"blueprint/internal/obs"
	"blueprint/internal/resilience"
)

func newTestServer(t *testing.T) *Server {
	t.Helper()
	return newTestServerCfg(t, blueprint.Config{ModelAccuracy: 1.0})
}

func newTestServerCfg(t *testing.T, cfg blueprint.Config) *Server {
	t.Helper()
	sys, err := blueprint.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return New(sys, Options{})
}

func do(t *testing.T, h http.Handler, method, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	_ = json.Unmarshal(rec.Body.Bytes(), &out)
	return rec, out
}

func TestSessionLifecycleOverHTTP(t *testing.T) {
	s := newTestServer(t)
	rec, out := do(t, s, "POST", "/sessions", "")
	if rec.Code != http.StatusCreated {
		t.Fatalf("create = %d %s", rec.Code, rec.Body)
	}
	id, _ := out["id"].(string)
	if !strings.HasPrefix(id, "session:") {
		t.Fatalf("id = %q", id)
	}
	if s.SessionCount() != 1 {
		t.Fatalf("session count = %d", s.SessionCount())
	}

	rec, out = do(t, s, "POST", "/sessions/"+strings.TrimPrefix(id, "session:")+"/ask",
		`{"text": "How many jobs are in San Francisco?"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("ask = %d %s", rec.Code, rec.Body)
	}
	if ans, _ := out["answer"].(string); !strings.Contains(ans, "Summary:") {
		t.Fatalf("answer = %v", out)
	}

	rec, out = do(t, s, "POST", "/sessions/"+strings.TrimPrefix(id, "session:")+"/click",
		`{"action": "select_job", "job_id": 3}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("click = %d %s", rec.Code, rec.Body)
	}
	if ans, _ := out["answer"].(string); !strings.Contains(ans, "Job 3") {
		t.Fatalf("click answer = %v", out)
	}

	req := httptest.NewRequest("GET", "/sessions/"+strings.TrimPrefix(id, "session:")+"/flow", nil)
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusOK {
		t.Fatalf("flow = %d", rec2.Code)
	}
	var flow []map[string]any
	if err := json.Unmarshal(rec2.Body.Bytes(), &flow); err != nil || len(flow) == 0 {
		t.Fatalf("flow body = %v err=%v", len(flow), err)
	}
}

func TestErrorsOverHTTP(t *testing.T) {
	s := newTestServer(t)
	rec, _ := do(t, s, "POST", "/sessions/999/ask", `{"text": "hi"}`)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown session = %d", rec.Code)
	}
	// Bad bodies.
	_, out := do(t, s, "POST", "/sessions", "")
	id := strings.TrimPrefix(out["id"].(string), "session:")
	rec, _ = do(t, s, "POST", "/sessions/"+id+"/ask", `{}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty text = %d", rec.Code)
	}
	rec, _ = do(t, s, "POST", "/sessions/"+id+"/click", `not json`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad click body = %d", rec.Code)
	}
}

func TestMemoOverHTTP(t *testing.T) {
	s := newTestServer(t)
	rec, out := do(t, s, "GET", "/memo", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/memo = %d %s", rec.Code, rec.Body)
	}
	if out["enabled"] != true {
		t.Fatalf("memo disabled by default: %v", out)
	}
	for _, field := range []string{"hits", "misses", "hit_rate", "coalesced", "evictions", "invalidations", "entries"} {
		if _, ok := out[field]; !ok {
			t.Fatalf("/memo missing %q: %v", field, out)
		}
	}
	rec, out = do(t, s, "GET", "/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats = %d", rec.Code)
	}
	if _, ok := out["memo_hit_rate"]; !ok {
		t.Fatalf("/stats missing memo_hit_rate: %v", out)
	}
}

func TestMetricsExpositionOverHTTP(t *testing.T) {
	s := newTestServer(t)
	// Drive one ask so the ask counter and latency histogram have samples.
	_, out := do(t, s, "POST", "/sessions", "")
	id := strings.TrimPrefix(out["id"].(string), "session:")
	rec, _ := do(t, s, "POST", "/sessions/"+id+"/ask", `{"text": "How many jobs are in San Francisco?"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("ask = %d %s", rec.Code, rec.Body)
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec2.Code)
	}
	if ct := rec2.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	body := rec2.Body.String()
	for _, want := range []string{
		"# TYPE blueprint_asks_total counter",
		"# TYPE blueprint_ask_latency_seconds histogram",
		`blueprint_ask_latency_seconds_bucket{le="+Inf"}`,
		"blueprint_ask_latency_seconds_sum",
		"blueprint_memo_hits_total",
		"blueprint_memo_misses_total",
		"blueprint_stmt_cache_shape_hits_total",
		"blueprint_table_profile_builds_total",
		"blueprint_table_profile_hits_total",
		"blueprint_scheduler_busy_workers",
		"blueprint_durability_fsyncs_total",
		"# TYPE blueprint_slo_burn_rate gauge",
		"blueprint_events_retained",
		"blueprint_slow_ask_captures_total",
		"blueprint_trace_sessions",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestTraceOverHTTP(t *testing.T) {
	s := newTestServer(t)
	rec, _ := do(t, s, "GET", "/trace/does-not-exist", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown trace = %d", rec.Code)
	}

	_, out := do(t, s, "POST", "/sessions", "")
	id := strings.TrimPrefix(out["id"].(string), "session:")
	// A summarize intent drives the full orchestration: the Agentic
	// Employer emits a plan, the coordinator service executes it through
	// the scheduler, memo and the Summarizer agent.
	rec, _ = do(t, s, "POST", "/sessions/"+id+"/ask", `{"text": "Summarize the applicants for job 3"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("ask = %d %s", rec.Code, rec.Body)
	}

	// The plan span records just after the display answer is delivered;
	// poll briefly for the tree to complete.
	want := []string{"session", "coordinator", "scheduler", "memo", "agent"}
	var components map[string]bool
	var tree string
	for tries := 0; tries < 100; tries++ {
		rec, out = do(t, s, "GET", "/trace/"+id, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("/trace = %d %s", rec.Code, rec.Body)
		}
		tree, _ = out["tree"].(string)
		spans, _ := out["spans"].([]any)
		components = map[string]bool{}
		for _, sp := range spans {
			m := sp.(map[string]any)
			components[m["component"].(string)] = true
		}
		ok := true
		for _, c := range want {
			ok = ok && components[c]
		}
		if ok {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if out["session"] != "session:"+id {
		t.Fatalf("trace session = %v", out["session"])
	}
	if !strings.Contains(tree, "session/ask") {
		t.Fatalf("trace tree missing root:\n%s", tree)
	}
	for _, c := range want {
		if !components[c] {
			t.Fatalf("trace missing component %q (got %v)\n%s", c, components, tree)
		}
	}
}

// TestOverloadShedAndDegradeOverHTTP pins the daemon's overload contract:
// with a single governed slot occupied, a same-tenant repeat ask is served
// from the stale whole-ask memo (200 + "degraded": true) and a novel ask is
// shed with 429 + Retry-After. MaxConcurrent 1 with the default 0.5 tenant
// share makes the shed deterministic — the share clamps to one slot, and a
// tenant already holding its share sheds immediately under contention
// instead of queueing.
func TestOverloadShedAndDegradeOverHTTP(t *testing.T) {
	s := newTestServerCfg(t, blueprint.Config{
		ModelAccuracy: 1.0,
		Governor:      resilience.GovernorConfig{MaxConcurrent: 1, RetryAfter: 2 * time.Second},
	})
	_, out := do(t, s, "POST", "/sessions", "")
	id := strings.TrimPrefix(out["id"].(string), "session:")

	// Baseline ask: admitted (slot free) and memoized for the degraded path.
	const repeat = `{"text": "How many jobs are in San Francisco?"}`
	rec, out := do(t, s, "POST", "/sessions/"+id+"/ask", repeat)
	if rec.Code != http.StatusOK {
		t.Fatalf("baseline ask = %d %s", rec.Code, rec.Body)
	}
	if _, ok := out["degraded"]; ok {
		t.Fatalf("baseline ask marked degraded: %v", out)
	}

	// Slow agent invocations down so a holder ask keeps the slot occupied
	// long enough to observe the brownout.
	inj := resilience.NewInjector(1, resilience.Rule{
		Site: resilience.SiteAgent, Kind: resilience.KindLatency,
		Probability: 1, Latency: 300 * time.Millisecond,
	})
	resilience.Activate(inj)
	defer resilience.Deactivate()
	holder := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		req := httptest.NewRequest("POST", "/sessions/"+id+"/ask",
			strings.NewReader(`{"text": "Summarize the applicants for job 3"}`))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		holder <- rec
	}()
	for deadline := time.Now().Add(10 * time.Second); s.sys.GovernorStats().InFlight == 0; {
		if time.Now().After(deadline) {
			t.Fatal("holder ask never occupied the governor slot")
		}
		time.Sleep(time.Millisecond)
	}

	// Repeat text while the slot is held: shed, but the stale memo answer is
	// served, marked degraded with its age.
	rec, out = do(t, s, "POST", "/sessions/"+id+"/ask", repeat)
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded ask = %d %s", rec.Code, rec.Body)
	}
	if out["degraded"] != true {
		t.Fatalf("shed repeat ask not marked degraded: %v", out)
	}
	if _, ok := out["stale_for_ms"]; !ok {
		t.Fatalf("degraded answer missing stale_for_ms: %v", out)
	}
	if ans, _ := out["answer"].(string); !strings.Contains(ans, "Summary:") {
		t.Fatalf("degraded answer = %v", out)
	}

	// Novel text while the slot is held: nothing stale to serve — 429 with
	// the governor's advisory backoff in whole seconds.
	rec, out = do(t, s, "POST", "/sessions/"+id+"/ask",
		`{"text": "average salary per city for salary over 120000"}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("novel ask under overload = %d %s", rec.Code, rec.Body)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}
	if ms, _ := out["retry_after_ms"].(float64); ms != 2000 {
		t.Fatalf("retry_after_ms = %v", out)
	}

	resilience.Deactivate()
	if hrec := <-holder; hrec.Code != http.StatusOK {
		t.Fatalf("holder ask = %d %s", hrec.Code, hrec.Body)
	}

	// Slot free again: the same repeat ask is admitted and served fresh.
	rec, out = do(t, s, "POST", "/sessions/"+id+"/ask", repeat)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-brownout ask = %d %s", rec.Code, rec.Body)
	}
	if _, ok := out["degraded"]; ok {
		t.Fatalf("post-brownout ask still degraded: %v", out)
	}
	st := s.sys.GovernorStats()
	if st.Admitted < 3 || st.Shed < 2 || st.TenantShed < 2 {
		t.Fatalf("governor ledger = %+v, want >= 3 admitted, >= 2 shed (tenant share)", st)
	}
}

func TestDeployTimeTuningConfig(t *testing.T) {
	// The -parallel / -memo / -no-memo flags plumb straight into these
	// Config fields; a system built with them must come up (and with memo
	// off, /memo reports disabled).
	sys, err := blueprint.New(blueprint.Config{
		ModelAccuracy: 1.0, MaxParallel: 2, MemoCapacity: 16, DisableMemo: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	if sys.Memo != nil {
		t.Fatal("DisableMemo left a memo store")
	}
	if st := sys.MemoStats(); st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("disabled memo stats = %+v", st)
	}
}

func TestIntrospectionOverHTTP(t *testing.T) {
	s := newTestServer(t)
	for _, path := range []string{"/agents", "/data", "/stats", "/memo", "/events", "/slow", "/slo"} {
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d", path, rec.Code)
		}
		if rec.Body.Len() < 10 {
			t.Fatalf("%s body = %q", path, rec.Body)
		}
	}
	rec, _ := do(t, s, "GET", "/stats", "")
	var stats map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats["version"] != blueprint.Version {
		t.Fatalf("stats = %v", stats)
	}
}

// TestTraceIDHeaderOverHTTP pins the X-Trace-Id contract: every ask
// response carries the header — success, degraded and shed (429) alike —
// and the body's trace field matches it.
func TestTraceIDHeaderOverHTTP(t *testing.T) {
	s := newTestServerCfg(t, blueprint.Config{
		ModelAccuracy: 1.0,
		Governor:      resilience.GovernorConfig{MaxConcurrent: 1, RetryAfter: time.Second},
	})
	_, out := do(t, s, "POST", "/sessions", "")
	id := strings.TrimPrefix(out["id"].(string), "session:")

	rec, out := do(t, s, "POST", "/sessions/"+id+"/ask", `{"text": "How many jobs are in San Francisco?"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("ask = %d %s", rec.Code, rec.Body)
	}
	tid := rec.Header().Get("X-Trace-Id")
	if !strings.HasPrefix(tid, "session:"+id+"-") {
		t.Fatalf("X-Trace-Id = %q, want session-prefixed id", tid)
	}
	if out["trace"] != tid {
		t.Fatalf("body trace %v != header %q", out["trace"], tid)
	}

	// A click is an ask: its response carries a fresh id as well, and the
	// click's root span is tagged with it.
	rec, out = do(t, s, "POST", "/sessions/"+id+"/click", `{"action": "select_job", "job_id": 4}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("click = %d %s", rec.Code, rec.Body)
	}
	clickTid := rec.Header().Get("X-Trace-Id")
	if !strings.HasPrefix(clickTid, "session:"+id+"-") || clickTid == tid || out["trace"] != clickTid {
		t.Fatalf("click X-Trace-Id = %q, body trace %v (ask's %q), want a fresh session-prefixed id in both", clickTid, out["trace"], tid)
	}
	tagged := false
	for _, sp := range obs.Spans.Session("session:" + id) {
		for _, a := range sp.Attrs {
			tagged = tagged || (sp.Parent == 0 && sp.Name == "click" && a.Key == "trace" && a.Value == clickTid)
		}
	}
	if !tagged {
		t.Fatalf("no click root span carries trace %q", clickTid)
	}

	// Occupy the slot, then shed a novel ask: the 429 must carry the header
	// too (the operator greps /events for exactly this id).
	inj := resilience.NewInjector(1, resilience.Rule{
		Site: resilience.SiteAgent, Kind: resilience.KindLatency,
		Probability: 1, Latency: 300 * time.Millisecond,
	})
	resilience.Activate(inj)
	defer resilience.Deactivate()
	holder := make(chan struct{})
	go func() {
		defer close(holder)
		do(t, s, "POST", "/sessions/"+id+"/ask", `{"text": "Summarize the applicants for job 3"}`)
	}()
	for deadline := time.Now().Add(10 * time.Second); s.sys.GovernorStats().InFlight == 0; {
		if time.Now().After(deadline) {
			t.Fatal("holder ask never occupied the governor slot")
		}
		time.Sleep(time.Millisecond)
	}
	rec, out = do(t, s, "POST", "/sessions/"+id+"/ask", `{"text": "average salary per city for salary over 120000"}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("shed ask = %d %s", rec.Code, rec.Body)
	}
	shedTid := rec.Header().Get("X-Trace-Id")
	if shedTid == "" || shedTid == tid {
		t.Fatalf("shed X-Trace-Id = %q (baseline %q), want a fresh id", shedTid, tid)
	}
	if out["trace"] != shedTid {
		t.Fatalf("shed body trace %v != header %q", out["trace"], shedTid)
	}
	resilience.Deactivate()
	<-holder
}

// TestRetryAfterOnBothShedPaths pins Retry-After on the two 429 paths: the
// immediate shed (tenant over its share / queue full) and the
// queue-timeout shed (admitted to the queue, never got a slot). Two
// tenants make the second tenant queue rather than shed on share.
func TestRetryAfterOnBothShedPaths(t *testing.T) {
	s := newTestServerCfg(t, blueprint.Config{
		ModelAccuracy: 1.0,
		Governor: resilience.GovernorConfig{
			MaxConcurrent: 1, MaxQueue: 1,
			QueueTimeout: 50 * time.Millisecond, RetryAfter: 3 * time.Second,
		},
	})
	_, out := do(t, s, "POST", "/sessions", "")
	id := strings.TrimPrefix(out["id"].(string), "session:")

	inj := resilience.NewInjector(1, resilience.Rule{
		Site: resilience.SiteAgent, Kind: resilience.KindLatency,
		Probability: 1, Latency: 500 * time.Millisecond,
	})
	resilience.Activate(inj)
	defer resilience.Deactivate()
	holder := make(chan struct{})
	go func() {
		defer close(holder)
		req := httptest.NewRequest("POST", "/sessions/"+id+"/ask",
			strings.NewReader(`{"text": "Summarize the applicants for job 3"}`))
		req.Header.Set("X-Tenant", "tenant-a")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
	}()
	for deadline := time.Now().Add(10 * time.Second); s.sys.GovernorStats().InFlight == 0; {
		if time.Now().After(deadline) {
			t.Fatal("holder ask never occupied the governor slot")
		}
		time.Sleep(time.Millisecond)
	}

	// Path 1 — immediate shed: same tenant already holds its clamped share,
	// so a second ask sheds without queueing.
	req := httptest.NewRequest("POST", "/sessions/"+id+"/ask",
		strings.NewReader(`{"text": "average salary per city for salary over 120000"}`))
	req.Header.Set("X-Tenant", "tenant-a")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("immediate shed = %d %s", rec.Code, rec.Body)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "3" {
		t.Fatalf("immediate shed Retry-After = %q, want \"3\"", ra)
	}

	// Path 2 — queue-timeout shed: a different tenant is under its share,
	// queues, and times out after QueueTimeout while the slot stays held.
	req = httptest.NewRequest("POST", "/sessions/"+id+"/ask",
		strings.NewReader(`{"text": "average salary per city for salary over 120000"}`))
	req.Header.Set("X-Tenant", "tenant-b")
	rec = httptest.NewRecorder()
	start := time.Now()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("queue-timeout shed = %d %s", rec.Code, rec.Body)
	}
	if waited := time.Since(start); waited < 40*time.Millisecond {
		t.Fatalf("queue-timeout shed returned after %s, want >= ~50ms queue wait", waited)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "3" {
		t.Fatalf("queue-timeout shed Retry-After = %q, want \"3\"", ra)
	}
	st := s.sys.GovernorStats()
	if st.QueueTimeouts < 1 {
		t.Fatalf("governor ledger = %+v, want >= 1 queue-timeout shed", st)
	}
	resilience.Deactivate()
	<-holder
}

// TestFlightRecorderEndpointsOverHTTP drives a slow ask over the API and
// reads it back through /events, /slow, /slow/{id} and /slo.
func TestFlightRecorderEndpointsOverHTTP(t *testing.T) {
	obs.SlowAsks.Reset()
	s := newTestServerCfg(t, blueprint.Config{
		ModelAccuracy:    1.0,
		SlowAskThreshold: time.Nanosecond, // everything is slow
		EventLevel:       "debug",         // admit events fire per governed ask
		SLO:              obs.SLOConfig{LatencyTarget: time.Nanosecond},
		Governor:         resilience.GovernorConfig{MaxConcurrent: 4},
	})
	t.Cleanup(func() {
		obs.SlowAsks.SetThreshold(obs.DefaultSlowThreshold)
		obs.Events.SetLevel(obs.LevelInfo)
	})
	_, out := do(t, s, "POST", "/sessions", "")
	id := strings.TrimPrefix(out["id"].(string), "session:")
	evHead := obs.Events.Seq()
	rec, _ := do(t, s, "POST", "/sessions/"+id+"/ask", `{"text": "Summarize the applicants for job 3"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("ask = %d %s", rec.Code, rec.Body)
	}
	tid := rec.Header().Get("X-Trace-Id")

	// /events with a since-cursor shows this ask's window.
	rec, out = do(t, s, "GET", "/events?since="+strconvU(evHead), "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/events = %d %s", rec.Code, rec.Body)
	}
	if head, _ := out["head"].(float64); uint64(head) <= evHead {
		t.Fatalf("/events head = %v, want > %d", out["head"], evHead)
	}
	// Bad params are rejected.
	for _, q := range []string{"?since=abc", "?level=loud", "?limit=-2"} {
		if rec, _ := do(t, s, "GET", "/events"+q, ""); rec.Code != http.StatusBadRequest {
			t.Fatalf("/events%s = %d, want 400", q, rec.Code)
		}
	}

	// /slow lists the captured exemplar; /slow/{id} and /slow/latest return
	// the full evidence.
	rec, out = do(t, s, "GET", "/slow", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/slow = %d", rec.Code)
	}
	exs, _ := out["exemplars"].([]any)
	if len(exs) == 0 {
		t.Fatalf("/slow empty after a slow ask: %v", out)
	}
	first := exs[0].(map[string]any)
	exID := strconvU(uint64(first["id"].(float64)))
	rec, out = do(t, s, "GET", "/slow/"+exID, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/slow/%s = %d %s", exID, rec.Code, rec.Body)
	}
	if out["trace"] != tid {
		t.Fatalf("exemplar trace = %v, want %q", out["trace"], tid)
	}
	if spans, _ := out["spans"].([]any); len(spans) < 4 {
		t.Fatalf("exemplar spans = %d, want >= 4 (full tree)", len(spans))
	}
	rec, latest := do(t, s, "GET", "/slow/latest", "")
	if rec.Code != http.StatusOK || latest["id"] != out["id"] {
		t.Fatalf("/slow/latest = %d %v, want exemplar %v", rec.Code, latest["id"], out["id"])
	}
	if rec, _ := do(t, s, "GET", "/slow/999999", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("/slow/999999 = %d, want 404", rec.Code)
	}
	if rec, _ := do(t, s, "GET", "/slow/nope", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("/slow/nope = %d, want 400", rec.Code)
	}

	// /slo shows the tenant series with a nonzero burn (1ns target: every
	// ask is slow).
	rec, out = do(t, s, "GET", "/slo", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/slo = %d", rec.Code)
	}
	series, _ := out["series"].([]any)
	var found bool
	for _, sr := range series {
		m := sr.(map[string]any)
		if m["kind"] == "tenant" && m["name"] == "default" {
			found = true
			if burn, _ := m["fast_burn"].(float64); burn <= 0 {
				t.Fatalf("tenant fast burn = %v, want > 0", m)
			}
		}
	}
	if !found {
		t.Fatalf("/slo missing tenant/default series: %v", out)
	}
}

func strconvU(n uint64) string { return strconv.FormatUint(n, 10) }
