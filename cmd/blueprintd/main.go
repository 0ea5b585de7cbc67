// blueprintd serves a blueprint System over HTTP — the "deployed in a
// distributed system" face of the architecture, exposing sessions, the
// conversational surface, both registries, stream observability, the
// structured event log, the slow-ask flight recorder and SLO burn rates.
// The handler surface itself lives in internal/httpapi (see its Server doc
// for the endpoint list); this binary binds it to flags, a listener and a
// graceful-shutdown lifecycle.
//
// Deploy-time tuning: -no-memo turns step-result reuse off, and -data-dir
// points the shared durability engine at its WAL + snapshot directory — a
// restarted daemon then recovers tables, registries, warm memo entries and
// stream history instead of coming back cold. SIGINT and SIGTERM shut down
// gracefully: in-flight requests drain, a final snapshot is flushed and the
// log closes cleanly.
//
// Overload control: -max-concurrent bounds in-flight asks globally (0 =
// ungoverned); beyond it asks queue (bounded by -max-queue, waiting at most
// -queue-timeout) and then shed with HTTP 429 + Retry-After. Tenants are
// identified by the X-Tenant header ("default" when absent) and capped to a
// -tenant-share fraction of the slots under contention. A shed repeat ask
// within the staleness budget is answered from the memoized previous answer,
// marked "degraded": true. -read-timeout, -write-timeout and -idle-timeout
// bound the HTTP connection itself (slowloris defense).
//
// Flight-recorder tuning: -slow-threshold sets the latency past which an
// ask is captured with its span tree, events and cost breakdown (negative
// disables), -event-level the event log's minimum recorded level, and
// -slo-target / -slo-objective the SLO burn-rate accounting served at /slo.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"blueprint"
	"blueprint/internal/httpapi"
	"blueprint/internal/obs"
	"blueprint/internal/resilience"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	seed := flag.Int64("seed", 42, "deterministic seed")
	dataDir := flag.String("data-dir", "", "durability directory: shared WAL + snapshots for warm restarts")
	noMemo := flag.Bool("no-memo", false, "disable step-result memoization")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof handlers under /debug/pprof/")
	maxConc := flag.Int("max-concurrent", 0, "max in-flight asks before queueing/shedding (0 = ungoverned)")
	maxQueue := flag.Int("max-queue", 0, "max asks waiting for a slot before immediate shed (0 = 2x max-concurrent)")
	queueTO := flag.Duration("queue-timeout", time.Second, "max time a queued ask waits before it is shed")
	tenantShare := flag.Float64("tenant-share", 0.5, "fraction of slots one tenant may hold under contention")
	readTO := flag.Duration("read-timeout", 30*time.Second, "max time to read a request, headers included (slowloris bound)")
	writeTO := flag.Duration("write-timeout", 60*time.Second, "max time to write a response")
	idleTO := flag.Duration("idle-timeout", 2*time.Minute, "max keep-alive idle time per connection")
	slowThresh := flag.Duration("slow-threshold", 0, "flight-recorder capture threshold for slow asks (0 = default 800ms, negative = disable)")
	eventLevel := flag.String("event-level", "", "event log minimum level: debug, info, warn, error, off (empty = info)")
	sloTarget := flag.Duration("slo-target", 0, "SLO latency target classifying an ask as slow (0 = default 1s)")
	sloObjective := flag.Float64("slo-objective", 0, "SLO good-fraction objective, e.g. 0.99 (0 = default)")
	flag.Parse()

	sys, err := blueprint.New(blueprint.Config{
		Seed: *seed, ModelAccuracy: 1.0, DataDir: *dataDir,
		DisableMemo: *noMemo,
		Governor: resilience.GovernorConfig{
			MaxConcurrent: *maxConc, MaxQueue: *maxQueue,
			QueueTimeout: *queueTO, TenantShare: *tenantShare,
			RetryAfter: *queueTO,
		},
		SlowAskThreshold: *slowThresh,
		EventLevel:       *eventLevel,
		SLO:              obs.SLOConfig{LatencyTarget: *sloTarget, Objective: *sloObjective},
	})
	if err != nil {
		log.Fatal(err)
	}

	handler := httpapi.New(sys, httpapi.Options{Pprof: *pprofOn})
	if *pprofOn {
		log.Printf("pprof on at /debug/pprof/")
	}

	if *dataDir != "" {
		rec := sys.DurabilityStats().Recovery
		log.Printf("durability on at %s: snapshot_restored=%v replayed_records=%d torn_tail=%v recovery=%s",
			*dataDir, rec.SnapshotRestored, rec.ReplayedRecords, rec.TornTailTruncated, rec.Duration)
	}
	log.Printf("blueprintd %s listening on %s (agents=%d, data assets=%d)",
		blueprint.Version, *addr, sys.AgentRegistry.Len(), sys.DataRegistry.Len())

	if *maxConc > 0 {
		log.Printf("overload governor on: max_concurrent=%d max_queue=%d queue_timeout=%s tenant_share=%.2f",
			*maxConc, *maxQueue, *queueTO, *tenantShare)
	}
	// Connection-level timeouts: a client trickling bytes (slowloris) is cut
	// off instead of pinning a goroutine and an admission slot forever.
	srv := &http.Server{
		Addr: *addr, Handler: handler,
		ReadTimeout:       *readTO,
		ReadHeaderTimeout: *readTO,
		WriteTimeout:      *writeTO,
		IdleTimeout:       *idleTO,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		sys.Close()
		log.Fatal(err)
	case <-ctx.Done():
	}
	// Graceful shutdown: drain in-flight requests, then flush a final
	// snapshot and close the log cleanly (System.Close).
	log.Printf("shutting down: draining requests, flushing final snapshot")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	sys.Close()
	if *dataDir != "" {
		st := sys.DurabilityStats()
		log.Printf("durability closed: snapshots=%d appends=%d log_bytes=%d", st.Snapshots, st.Appends, st.LogBytes)
	}
}
