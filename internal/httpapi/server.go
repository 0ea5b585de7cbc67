// Package httpapi is blueprintd's HTTP surface as an embeddable handler:
// sessions and the conversational surface, both registries, metrics,
// traces, the event log, the slow-ask flight recorder and SLO burn rates.
// cmd/blueprintd wires it to flags and a listener; tests and the real-HTTP
// workload driver mount it on httptest servers.
package httpapi

import (
	"cmp"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"blueprint"
	"blueprint/internal/obs"
	"blueprint/internal/resilience"
)

// Options tunes the handler surface.
type Options struct {
	// Pprof additionally serves net/http/pprof under /debug/pprof/ (off by
	// default: profiling endpoints are a debugging surface, not a
	// production one).
	Pprof bool
}

// Server serves a blueprint System over HTTP.
//
// Endpoints:
//
//	POST /sessions                         -> {"id": "session:1"}
//	POST /sessions/{id}/ask    {"text":..} -> {"answer": ...} (X-Trace-Id on every response, 429s included)
//	POST /sessions/{id}/click  {event}     -> {"answer": ...} (X-Trace-Id, as for ask)
//	GET  /sessions/{id}/flow               -> per-message flow trace
//	GET  /agents                           -> agent registry contents
//	GET  /data                             -> data registry contents
//	GET  /stats                            -> flat registry snapshot (all counters + quantiles)
//	GET  /memo                             -> step-result memoization stats
//	GET  /metrics                          -> Prometheus text exposition (0.0.4)
//	GET  /trace/{id}                       -> span tree for a session's recent asks
//	GET  /events                           -> structured event log (?since=SEQ&level=L&limit=N)
//	GET  /slow                             -> slow-ask exemplar summaries
//	GET  /slow/{id}                        -> one exemplar: span tree, events, cost breakdown
//	GET  /slo                              -> per-tenant/per-agent SLO burn rates
//	POST /snapshot                         -> take a durability snapshot now
//
// An ask's or a click's body is at most maxBody bytes (413 beyond), an ask's
// timeout_ms at most maxAskTimeout, and either one's wait ends when its
// client goes away.
type Server struct {
	sys *blueprint.System
	mux *http.ServeMux
}

// New builds the handler for sys.
func New(sys *blueprint.System, opts Options) *Server {
	s := &Server{sys: sys}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sessions", s.createSession)
	mux.HandleFunc("POST /sessions/{id}/ask", s.ask)
	mux.HandleFunc("POST /sessions/{id}/click", s.click)
	mux.HandleFunc("GET /sessions/{id}/flow", s.flow)
	mux.HandleFunc("GET /agents", s.agents)
	mux.HandleFunc("GET /data", s.data)
	mux.HandleFunc("GET /stats", s.stats)
	mux.HandleFunc("GET /memo", s.memo)
	mux.HandleFunc("GET /metrics", s.metrics)
	mux.HandleFunc("GET /trace/{id}", s.trace)
	mux.HandleFunc("GET /events", s.events)
	mux.HandleFunc("GET /slow", s.slowList)
	mux.HandleFunc("GET /slow/{id}", s.slowGet)
	mux.HandleFunc("GET /slo", s.slo)
	mux.HandleFunc("POST /snapshot", s.snapshot)
	if opts.Pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SessionCount reports the system's open sessions (the /stats "sessions"
// field and the blueprint_sessions_open gauge read the same list;
// blueprintd logs it at shutdown).
func (s *Server) SessionCount() int { return len(s.sys.Sessions.List()) }

const maxBody = 1 << 20                // bytes of an ask's or a click's body
const maxAskTimeout = 60 * time.Second // the longest wait timeout_ms asks for

// decodeBody decodes r's JSON body, read up to maxBody bytes, into v, and
// returns the status a failure answers (0 for none): 413 for a longer body,
// 400 for one that does not decode.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) int {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(v)
	var tooLong *http.MaxBytesError
	if errors.As(err, &tooLong) {
		return http.StatusRequestEntityTooLarge
	}
	if err != nil {
		return http.StatusBadRequest
	}
	return 0
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) createSession(w http.ResponseWriter, r *http.Request) {
	sess, err := s.sys.StartSession("")
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"id": sess.ID})
}

// sessionID is the request's {id}, "session:" prefixed when it comes without.
func sessionID(r *http.Request) string {
	id := r.PathValue("id")
	if strings.HasPrefix(id, "session:") {
		return id
	}
	return "session:" + id
}

func (s *Server) session(w http.ResponseWriter, r *http.Request) *blueprint.Session {
	id := sessionID(r)
	sess, ok := s.sys.Session(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown session " + id})
		return nil
	}
	return sess
}

func (s *Server) ask(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	var body struct {
		Text    string `json:"text"`
		Timeout int    `json:"timeout_ms"`
	}
	if code := decodeBody(w, r, &body); code != 0 || body.Text == "" {
		writeJSON(w, cmp.Or(code, http.StatusBadRequest), map[string]string{"error": "body must be {\"text\": ...}, at most 1 MiB"})
		return
	}
	timeout := 15 * time.Second
	if body.Timeout > 0 {
		timeout = time.Duration(min(body.Timeout, int(maxAskTimeout/time.Millisecond))) * time.Millisecond
	}
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	// Mint the trace id here so the response header is set on every path —
	// sheds included, which is exactly when an operator wants to grep the
	// event log for the rejected ask.
	tid := obs.NewTraceID(sess.ID)
	w.Header().Set("X-Trace-Id", tid)
	ctx := obs.WithTraceID(r.Context(), tid)
	ans, err := sess.GovernedAsk(ctx, tenant, body.Text, timeout)
	if err != nil {
		var ov *resilience.OverloadError
		if errors.As(err, &ov) {
			// Shed: 429 with the governor's advisory backoff. Retry-After
			// is whole seconds (RFC 9110), rounded up so "1s" never
			// becomes "0".
			secs := int(math.Ceil(ov.RetryAfter.Seconds()))
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeJSON(w, http.StatusTooManyRequests, map[string]any{
				"error": err.Error(), "retry_after_ms": ov.RetryAfter.Milliseconds(),
				"trace": tid,
			})
			return
		}
		writeJSON(w, http.StatusGatewayTimeout, map[string]string{"error": err.Error(), "trace": tid})
		return
	}
	out := map[string]any{"answer": ans.Text, "trace": ans.TraceID}
	if ans.Degraded {
		out["degraded"] = true
		out["stale_for_ms"] = ans.StaleFor.Milliseconds()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) click(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	var event map[string]any
	if code := decodeBody(w, r, &event); code != 0 {
		writeJSON(w, code, map[string]string{"error": "body must be a UI event object, at most 1 MiB"})
		return
	}
	// A click is an ask: it has a trace id on every response too.
	tid := obs.NewTraceID(sess.ID)
	w.Header().Set("X-Trace-Id", tid)
	answer, err := sess.ClickCtx(obs.WithTraceID(r.Context(), tid), event, 15*time.Second)
	if err != nil {
		writeJSON(w, http.StatusGatewayTimeout, map[string]string{"error": err.Error(), "trace": tid})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"answer": answer, "trace": tid})
}

func (s *Server) flow(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	steps := sess.Flow()
	out := make([]map[string]any, len(steps))
	for i, st := range steps {
		out[i] = map[string]any{
			"ts": st.TS, "sender": st.Sender, "stream": st.Stream,
			"kind": st.Kind.String(), "op": st.Op, "tags": st.Tags, "payload": st.Payload,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) agents(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sys.AgentRegistry.List())
}

func (s *Server) data(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sys.DataRegistry.List("", ""))
}

// stats serves a thin view over the metrics registry: every registered
// instrument flattened to name->value (histograms as _count/_sum/_p50/_p95/
// _p99), plus the few non-numeric or derived fields a registry cannot carry
// (version string, hit-rate ratios, recovery summary).
func (s *Server) stats(w http.ResponseWriter, r *http.Request) {
	ms := s.sys.MemoStats()
	cs := s.sys.Enterprise.DB.CacheStats()
	ds := s.sys.DurabilityStats()
	breakers := map[string]string{}
	for name, st := range s.sys.BreakerStates() {
		breakers[name] = st.String()
	}
	out := map[string]any{
		"version": blueprint.Version, "sessions": s.SessionCount(),
		"memo_hit_rate":                 ms.HitRate(),
		"stmt_cache_hit_rate":           cs.HitRate(),
		"governor_enabled":              s.sys.Governor != nil,
		"breakers":                      breakers,
		"durability_enabled":            s.sys.Durability != nil,
		"durability_segments":           ds.Segments,
		"durability_last_recovery":      ds.Recovery.Duration.String(),
		"durability_snapshot_restored":  ds.Recovery.SnapshotRestored,
		"durability_replayed_records":   ds.Recovery.ReplayedRecords,
		"durability_torn_tail_repaired": ds.Recovery.TornTailTruncated,
	}
	for name, v := range obs.Default.Snapshot() {
		out[name] = v
	}
	writeJSON(w, http.StatusOK, out)
}

// metrics serves the registry in Prometheus text exposition format.
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.Default.WritePrometheus(w)
}

// trace serves a session's recorded span tree: the raw spans plus a
// rendered tree (what bpctl trace prints).
func (s *Server) trace(w http.ResponseWriter, r *http.Request) {
	id := sessionID(r)
	spans := obs.Spans.Session(id)
	if len(spans) == 0 {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no trace recorded for " + id})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"session": id,
		"spans":   spans,
		"tree":    obs.RenderTree(spans),
	})
}

// events serves the structured event log, oldest first. ?since=SEQ returns
// only events newer than the cursor (poll with the returned "head"),
// ?level=warn filters below-level events out, ?limit=N keeps the newest N.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	var after uint64
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "since must be a sequence number"})
			return
		}
		after = n
	}
	min := obs.LevelDebug
	if v := r.URL.Query().Get("level"); v != "" {
		lv, err := obs.ParseLevel(v)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		min = lv
	}
	evs := slices.DeleteFunc(obs.Events.Since(after), func(e obs.Event) bool { return e.Level < min })
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "limit must be a non-negative integer"})
			return
		}
		if n < len(evs) {
			evs = evs[len(evs)-n:]
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"head":   obs.Events.Seq(),
		"level":  obs.Events.Level().String(),
		"events": evs,
	})
}

// slowList serves the flight recorder's exemplar summaries, newest first.
func (s *Server) slowList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"threshold_ms": float64(obs.SlowAsks.Threshold()) / float64(time.Millisecond),
		"captures":     obs.SlowAsks.Captures(),
		"exemplars":    obs.SlowAsks.Summaries(),
	})
}

// slowGet serves one exemplar with its full evidence ("latest" or an ID).
func (s *Server) slowGet(w http.ResponseWriter, r *http.Request) {
	var (
		ex *obs.Exemplar
		ok bool
	)
	if id := r.PathValue("id"); id == "latest" {
		ex, ok = obs.SlowAsks.Latest()
	} else {
		n, err := strconv.ParseUint(id, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "id must be a capture number or \"latest\""})
			return
		}
		ex, ok = obs.SlowAsks.Get(n)
	}
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such exemplar (evicted or never captured)"})
		return
	}
	writeJSON(w, http.StatusOK, ex)
}

// slo serves the per-tenant/per-agent burn-rate view.
func (s *Server) slo(w http.ResponseWriter, r *http.Request) {
	cfg := s.sys.SLO.Config()
	writeJSON(w, http.StatusOK, map[string]any{
		"objective":         cfg.Objective,
		"latency_target_ms": float64(cfg.LatencyTarget) / float64(time.Millisecond),
		"fast_window_ms":    float64(obs.SLOFastWindow) / float64(time.Millisecond),
		"slow_window_ms":    float64(obs.SLOSlowWindow) / float64(time.Millisecond),
		"series":            s.sys.SLO.Status(),
	})
}

// snapshot triggers a durability snapshot on demand (POST /snapshot).
func (s *Server) snapshot(w http.ResponseWriter, r *http.Request) {
	if err := s.sys.Snapshot(); err != nil {
		writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
		return
	}
	st := s.sys.DurabilityStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"snapshots":      st.Snapshots,
		"snapshot_bytes": st.SnapshotBytes,
		"log_bytes":      st.LogBytes,
		"segments":       st.Segments,
	})
}

func (s *Server) memo(w http.ResponseWriter, r *http.Request) {
	ms := s.sys.MemoStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled":       s.sys.Memo != nil,
		"hits":          ms.Hits,
		"misses":        ms.Misses,
		"hit_rate":      ms.HitRate(),
		"coalesced":     ms.Coalesced,
		"evictions":     ms.Evictions,
		"invalidations": ms.Invalidations,
		"entries":       ms.Entries,
		"saved_cost":    ms.SavedCost,
		"saved_latency": ms.SavedLatency.String(),
	})
}
