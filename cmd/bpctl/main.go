// bpctl is the developer console for a blueprint System: it boots an
// in-process instance and inspects registries, compiles queries, plans
// utterances and replays conversations — the "web interface for developers"
// of §V-C, as a CLI.
//
// Usage:
//
//	bpctl agents                      # list the agent registry
//	bpctl data                        # list the data registry
//	bpctl search-agents <text>        # vector search over agents
//	bpctl discover <text>             # vector search over data assets
//	bpctl nl2q <question>             # compile NL -> SQL and run it
//	bpctl plan <utterance>            # show the task plan DAG
//	bpctl ask <utterance>             # full pipeline, print outcome, answer + flow
//	bpctl memo <utterance>            # run the plan twice: cold vs memo-warm + stats
//	bpctl sql <statement>             # raw SQL against the enterprise DB: one table a statement; JOIN, aliases, HAVING, BETWEEN are refused by name
//	bpctl stats                       # statement-cache counters (shape keying)
//	bpctl -data-dir D snapshot        # take a durability snapshot + print stats
//	bpctl [-addr URL] trace <session> # span tree of a session on a running daemon
//	bpctl [-addr URL] top             # live ask rate, latency quantiles, cache ratios, SLO burn
//	bpctl [-addr URL] events [level]  # structured event log (optionally filtered by min level)
//	bpctl [-addr URL] slow [id]       # slow-ask exemplars: list, or one full flight recording
//
// With -data-dir every command runs against the durable state in that
// directory (recovering it first), so e.g. `bpctl -data-dir D sql ...`
// mutates durably and `bpctl -data-dir D snapshot` compacts the log.
//
// trace, top, events and slow are the remote commands: they query a running
// blueprintd (its /trace/{session}, /stats, /slo, /events and /slow
// endpoints) at -addr instead of booting an in-process system — telemetry
// lives in the daemon's process.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"blueprint"
	"blueprint/internal/dataplan"
	"blueprint/internal/nlq"
	"blueprint/internal/obs"
	"blueprint/internal/trace"
)

func main() {
	seed := flag.Int64("seed", 42, "deterministic seed")
	dataDir := flag.String("data-dir", "", "durability directory (recover from and persist to it)")
	addr := flag.String("addr", "http://localhost:8080", "blueprintd base URL for the remote trace/top commands")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		log.Fatal("usage: bpctl [-data-dir D] [-addr URL] <agents|data|search-agents|discover|nl2q|plan|ask|memo|sql|stats|trace|top|events|slow|snapshot> [args]")
	}

	cmd, rest := args[0], strings.Join(args[1:], " ")

	// Remote commands: inspect a running daemon, no in-process system.
	switch cmd {
	case "trace":
		if err := remoteTrace(os.Stdout, *addr, rest); err != nil {
			log.Fatal(err)
		}
		return
	case "top":
		if err := remoteTop(os.Stdout, *addr); err != nil {
			log.Fatal(err)
		}
		return
	case "events":
		if err := remoteEvents(os.Stdout, *addr, rest); err != nil {
			log.Fatal(err)
		}
		return
	case "slow":
		if err := remoteSlow(os.Stdout, *addr, rest); err != nil {
			log.Fatal(err)
		}
		return
	}

	sys, err := blueprint.New(blueprint.Config{Seed: *seed, ModelAccuracy: 1.0, DataDir: *dataDir})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	switch cmd {
	case "agents":
		for _, spec := range sys.AgentRegistry.List() {
			fmt.Printf("%-20s v%d  %s\n", spec.Name, spec.Version, spec.Description)
			for _, in := range spec.Inputs {
				fmt.Printf("    in:  %s (%s)\n", in.Name, in.Type)
			}
			for _, out := range spec.Outputs {
				fmt.Printf("    out: %s (%s)\n", out.Name, out.Type)
			}
		}
	case "data":
		for _, a := range sys.DataRegistry.List("", "") {
			fmt.Printf("%-20s %-10s %-10s rows=%-6d %s\n", a.Name, a.Kind, a.Level, a.Rows, a.Description)
			if len(a.Indexes) > 0 {
				fmt.Printf("    indexes: %s\n", strings.Join(a.Indexes, ", "))
			}
		}
	case "search-agents":
		for _, h := range sys.AgentRegistry.SearchVector(rest, 5) {
			fmt.Printf("%.3f  %-20s %s\n", h.Score, h.Spec.Name, h.Spec.Description)
		}
	case "discover":
		for _, h := range sys.DataRegistry.Discover(rest, 5) {
			fmt.Printf("%.3f  %-20s %s\n", h.Score, h.Asset.Name, h.Asset.Description)
		}
	case "nl2q":
		tgt, err := dataplan.BuildTarget(sys.Enterprise.DB, "jobs")
		if err != nil {
			log.Fatal(err)
		}
		c, err := nlq.Compile(rest, tgt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("sql:        %s\nconfidence: %.2f\n", c.SQL, c.Confidence)
		for _, e := range c.Explanation {
			fmt.Printf("  %s\n", e)
		}
		res, err := sys.Enterprise.DB.Query(c.SQL)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res)
	case "plan":
		p, err := sys.TaskPlanner.Plan(rest)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(p)
		for _, e := range p.Explanation {
			fmt.Printf("  %s\n", e)
		}
	case "ask":
		s, err := sys.StartSession("")
		if err != nil {
			log.Fatal(err)
		}
		defer s.Close()
		ans, err := s.GovernedAsk(context.Background(), "", rest, nil, 15*time.Second)
		fmt.Printf("outcome: %s\n", ans.Outcome)
		if err == nil {
			fmt.Printf("answer: %s\n", ans.Text)
		}
		// A failed ask's flow holds its failure record, naming the agent.
		fmt.Printf("\nflow (%d earlier messages released):\n%s", s.Released(), trace.Render(s.Flow()))
		if spans := obs.Spans.Session(s.ID); len(spans) > 0 {
			fmt.Printf("\nspans:\n%s", obs.RenderTree(spans))
		}
		if err != nil {
			log.Fatal(err)
		}
	case "memo":
		s, err := sys.StartSession("")
		if err != nil {
			log.Fatal(err)
		}
		defer s.Close()
		run := func(label string) {
			start := time.Now()
			res, _, err := s.ExecuteUtterance(rest)
			if err != nil {
				log.Fatal(err)
			}
			cached := 0
			for _, sr := range res.Steps {
				if sr.Cached {
					cached++
				}
			}
			fmt.Printf("%-5s wall=%-12s steps=%d cached=%d cost=$%.5f\n",
				label, time.Since(start).Round(time.Microsecond), len(res.Steps), cached, res.Budget.CostSpent)
		}
		run("cold")
		run("warm")
		st := sys.MemoStats()
		fmt.Printf("memo  hits=%d misses=%d hit_rate=%.0f%% coalesced=%d entries=%d saved=$%.5f/%s\n",
			st.Hits, st.Misses, st.HitRate()*100, st.Coalesced, st.Entries, st.SavedCost, st.SavedLatency)
	case "sql":
		res, err := sys.Enterprise.DB.Query(rest)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res)
		if res.Plan != "" {
			fmt.Printf("plan: %s\n", res.Plan)
		}
	case "stats":
		cs := sys.Enterprise.DB.CacheStats()
		fmt.Printf("stmt cache: hits=%d (shape=%d) misses=%d hit_rate=%.0f%%\n",
			cs.Hits, cs.ShapeHits, cs.Misses, cs.HitRate()*100)
		fmt.Printf("            compiles=%d invalidations=%d uncacheable=%d size=%d\n",
			cs.Compiles, cs.Invalidations, cs.Uncacheable, cs.Size)
	case "snapshot":
		if err := sys.Snapshot(); err != nil {
			log.Fatal(err)
		}
		st := sys.DurabilityStats()
		fmt.Printf("snapshot taken: bytes=%d segments=%d log_bytes=%d snapshots_this_run=%d\n",
			st.SnapshotBytes, st.Segments, st.LogBytes, st.Snapshots)
		rec := st.Recovery
		fmt.Printf("recovery at open: snapshot_restored=%v replayed_records=%d torn_tail_repaired=%v duration=%s\n",
			rec.SnapshotRestored, rec.ReplayedRecords, rec.TornTailTruncated, rec.Duration)
	default:
		log.Fatalf("unknown command %q", cmd)
	}
}

// getJSON fetches one JSON document from a running blueprintd.
func getJSON(addr, path string, out any) error {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(strings.TrimRight(addr, "/") + path)
	if err != nil {
		return fmt.Errorf("is blueprintd running at %s? %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		if e.Error != "" {
			return fmt.Errorf("%s: %s", path, e.Error)
		}
		return fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// remoteTrace prints the span tree GET /trace/{session} returns.
func remoteTrace(w io.Writer, addr, session string) error {
	if session == "" {
		return fmt.Errorf("usage: bpctl [-addr URL] trace <session>")
	}
	var out struct {
		Session string `json:"session"`
		Tree    string `json:"tree"`
	}
	if err := getJSON(addr, "/trace/"+url.PathEscape(strings.TrimPrefix(session, "session:")), &out); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n%s", out.Session, out.Tree)
	return nil
}

// remoteEvents prints the daemon's structured event log, oldest first. An
// optional level argument ("warn") filters below-level events out.
func remoteEvents(w io.Writer, addr, level string) error {
	path := "/events"
	if level != "" {
		path += "?level=" + url.QueryEscape(level)
	}
	var out struct {
		Head   uint64      `json:"head"`
		Level  string      `json:"level"`
		Events []obs.Event `json:"events"`
	}
	if err := getJSON(addr, path, &out); err != nil {
		return err
	}
	fmt.Fprintf(w, "event log: head=%d retained=%d min_level=%s\n", out.Head, len(out.Events), out.Level)
	for _, e := range out.Events {
		fmt.Fprintln(w, renderEvent(e))
	}
	return nil
}

// renderEvent formats one event as a log line.
func renderEvent(e obs.Event) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %-5s %-10s %-14s", e.Time.Format("15:04:05.000"), e.Level, e.Component, e.Kind)
	for _, a := range e.Attrs {
		fmt.Fprintf(&sb, " %s=%s", a.Key, a.Value)
	}
	if e.Session != "" {
		fmt.Fprintf(&sb, " session=%s", e.Session)
	}
	if e.Trace != "" {
		fmt.Fprintf(&sb, " trace=%s", e.Trace)
	}
	return sb.String()
}

// remoteSlow lists the flight recorder's exemplars, or — given a capture id
// or "latest" — renders one full recording: identity, outcome, cost
// breakdown, span tree and overlapping events.
func remoteSlow(w io.Writer, addr, arg string) error {
	if arg == "" {
		var out struct {
			ThresholdMS float64               `json:"threshold_ms"`
			Captures    uint64                `json:"captures"`
			Exemplars   []obs.ExemplarSummary `json:"exemplars"`
		}
		if err := getJSON(addr, "/slow", &out); err != nil {
			return err
		}
		fmt.Fprintf(w, "slow asks: threshold=%.0fms captures=%d retained=%d\n", out.ThresholdMS, out.Captures, len(out.Exemplars))
		for _, ex := range out.Exemplars {
			fmt.Fprintf(w, "%4d  %-9s %-12s %-10s %s  %q\n",
				ex.ID, ex.Outcome, ex.Dur.Round(time.Millisecond), ex.Tenant, ex.Trace, ex.Text)
		}
		if len(out.Exemplars) > 0 {
			fmt.Fprintf(w, "use `bpctl slow <id>` for one full flight recording\n")
		}
		return nil
	}
	var ex obs.Exemplar
	if err := getJSON(addr, "/slow/"+url.PathEscape(arg), &ex); err != nil {
		return err
	}
	fmt.Fprintf(w, "exemplar %d: %s ask %q\n", ex.ID, ex.Outcome, ex.Text)
	fmt.Fprintf(w, "  trace=%s session=%s tenant=%s dur=%s start=%s\n",
		ex.Trace, ex.Session, ex.Tenant, ex.Dur.Round(time.Microsecond), ex.Start.Format(time.RFC3339Nano))
	if ex.Err != "" {
		fmt.Fprintf(w, "  error: %s\n", ex.Err)
	}
	if b := ex.Breakdown; b != nil {
		fmt.Fprintf(w, "  cost: $%.5f steps=%d cached=%d degraded=%d retries=%d replans=%d elapsed=%s plan=%s\n",
			b.Cost, b.Steps, b.CachedSteps, b.DegradedSteps, b.Retries, b.Replans,
			b.Elapsed.Round(time.Microsecond), b.PlanID)
	}
	if len(ex.Spans) > 0 {
		fmt.Fprintf(w, "spans (%d of %d):\n%s", len(ex.Spans), ex.SpanCount, obs.RenderTree(ex.Spans))
	}
	if len(ex.Events) > 0 {
		fmt.Fprintf(w, "events (%d of %d):\n", len(ex.Events), ex.EventCount)
		for _, e := range ex.Events {
			fmt.Fprintf(w, "  %s\n", renderEvent(e))
		}
	}
	return nil
}

// remoteTop samples GET /stats twice, a second apart, and prints a one-shot
// top-style summary: ask throughput and latency quantiles, memo and
// statement-cache effectiveness, scheduler occupancy, SLO burn rates.
func remoteTop(w io.Writer, addr string) error {
	sample := func() (map[string]any, error) {
		var st map[string]any
		err := getJSON(addr, "/stats", &st)
		return st, err
	}
	num := func(st map[string]any, key string) float64 {
		v, _ := st[key].(float64)
		return v
	}

	first, err := sample()
	if err != nil {
		return err
	}
	time.Sleep(time.Second)
	second, err := sample()
	if err != nil {
		return err
	}

	asks := num(second, "blueprint_asks_total")
	rate := asks - num(first, "blueprint_asks_total")
	fmt.Fprintf(w, "asks      total=%.0f rate=%.1f/s  p50=%s p95=%s p99=%s\n",
		asks, rate,
		quantile(second, "blueprint_ask_latency_seconds_p50"),
		quantile(second, "blueprint_ask_latency_seconds_p95"),
		quantile(second, "blueprint_ask_latency_seconds_p99"))
	hits, misses := num(second, "blueprint_memo_hits_total"), num(second, "blueprint_memo_misses_total")
	fmt.Fprintf(w, "memo      hits=%.0f misses=%.0f hit_ratio=%s entries=%.0f\n",
		hits, misses, ratio(hits, hits+misses), num(second, "blueprint_memo_entries"))
	scHits, scMisses := num(second, "blueprint_stmt_cache_hits_total"), num(second, "blueprint_stmt_cache_misses_total")
	fmt.Fprintf(w, "stmt      hits=%.0f (shape=%.0f) misses=%.0f hit_ratio=%s compiles=%.0f\n",
		scHits, num(second, "blueprint_stmt_cache_shape_hits_total"), scMisses,
		ratio(scHits, scHits+scMisses), num(second, "blueprint_plan_compiles_total"))
	fmt.Fprintf(w, "sched     steps=%.0f cached=%.0f busy_workers=%.0f  step_p95=%s\n",
		num(second, "blueprint_scheduler_steps_total"), num(second, "blueprint_scheduler_steps_cached_total"),
		num(second, "blueprint_scheduler_busy_workers"), quantile(second, "blueprint_step_latency_seconds_p95"))
	fmt.Fprintf(w, "sessions  open=%.0f  durability appends=%.0f fsyncs=%.0f\n",
		num(second, "blueprint_sessions_open"),
		num(second, "blueprint_durability_appends_total"), num(second, "blueprint_durability_fsyncs_total"))
	// Resilience: admission ledger, degraded serves, breaker state. During a
	// brownout this is the line to watch — shed climbing, degraded absorbing
	// repeat asks, breakers_open isolating failing agents.
	admitted, shed := num(second, "blueprint_governor_admitted_total"), num(second, "blueprint_governor_shed_total")
	fmt.Fprintf(w, "resil     admitted=%.0f shed=%.0f (tenant=%.0f timeout=%.0f) degraded=%.0f inflight=%.0f queued=%.0f shed_ratio=%s\n",
		admitted, shed,
		num(second, "blueprint_governor_tenant_shed_total"), num(second, "blueprint_governor_queue_timeouts_total"),
		num(second, "blueprint_degraded_answers_total"),
		num(second, "blueprint_governor_inflight"), num(second, "blueprint_governor_queued"),
		ratio(shed, admitted+shed))
	fmt.Fprintf(w, "          retries=%.0f breaker trips=%.0f rejections=%.0f open_now=%.0f stale_steps=%.0f\n",
		num(second, "blueprint_scheduler_step_retries_total"),
		num(second, "blueprint_breaker_trips_total"), num(second, "blueprint_breaker_rejections_total"),
		num(second, "blueprint_breakers_open"), num(second, "blueprint_scheduler_steps_degraded_total"))
	// SLO burn: one line per tenant/agent series from GET /slo. Burn > 1
	// means the error budget is being consumed faster than sustainable —
	// fast >> slow means it started just now.
	var slo struct {
		Series []obs.SLOStatus `json:"series"`
	}
	if err := getJSON(addr, "/slo", &slo); err == nil {
		for _, st := range slo.Series {
			fmt.Fprintf(w, "slo       %-6s %-14s burn fast=%.2f slow=%.2f good=%s n=%d (err=%d slow=%d)\n",
				st.Kind, st.Name, st.FastBurn, st.SlowBurn,
				ratio(float64(st.Total-st.Bad), float64(st.Total)), st.Total, st.Errors, st.Slow)
		}
	}
	return nil
}

func quantile(st map[string]any, key string) string {
	v, ok := st[key].(float64)
	if !ok || v <= 0 {
		return "-"
	}
	return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
}

func ratio(part, whole float64) string {
	if whole == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*part/whole)
}
