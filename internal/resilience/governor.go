package resilience

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"blueprint/internal/obs"
)

// Process-wide admission instruments.
var (
	mGovAdmitted      = obs.Default.Counter("blueprint_governor_admitted_total", "asks admitted by the overload governor")
	mGovShed          = obs.Default.Counter("blueprint_governor_shed_total", "asks shed by the overload governor (429)")
	mGovTenantShed    = obs.Default.Counter("blueprint_governor_tenant_shed_total", "asks shed because the tenant exceeded its fair share under contention")
	mGovQueueTimeouts = obs.Default.Counter("blueprint_governor_queue_timeouts_total", "queued asks shed after waiting past the queue timeout")
	mGovDegraded      = obs.Default.Counter("blueprint_degraded_answers_total", "asks answered from stale memo entries instead of execution")
)

// shedEvent records one shed decision in the event log, carrying the
// tenant, the reason and the ask's trace id so a 429 response correlates
// with the flight recorder.
func shedEvent(ctx context.Context, tenant, reason string, queued int) {
	if !obs.Events.On(obs.LevelWarn) {
		return
	}
	obs.Events.Append(obs.Event{
		Level: obs.LevelWarn, Component: "governor", Kind: "shed",
		Trace: obs.TraceIDFrom(ctx),
		Attrs: []obs.Attr{
			{Key: "tenant", Value: tenant},
			{Key: "reason", Value: reason},
			{Key: "queued", Value: strconv.Itoa(queued)},
		},
	})
}

// ErrOverloaded reports an ask shed by the governor. blueprintd maps it to
// HTTP 429 with a Retry-After header.
var ErrOverloaded = errors.New("resilience: overloaded, request shed")

// OverloadError carries the advisory retry delay of one shed decision.
type OverloadError struct {
	// RetryAfter is the advised client backoff.
	RetryAfter time.Duration
	// Reason distinguishes queue-full, queue-timeout and tenant-share sheds.
	Reason string
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("%v (%s; retry after %s)", ErrOverloaded, e.Reason, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrOverloaded) hold.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// GovernorConfig bounds the daemon's concurrent ask processing. The zero
// value disables governing entirely (every Admit succeeds immediately).
type GovernorConfig struct {
	// MaxConcurrent is the global in-flight ask bound (0 = ungoverned).
	MaxConcurrent int
	// MaxQueue bounds asks waiting for a slot; arrivals beyond it shed
	// immediately (default 2x MaxConcurrent).
	MaxQueue int
	// QueueTimeout sheds a queued ask that waited this long (default 1s) —
	// under sustained overload a deep queue only converts latency into
	// missed deadlines, so waiting is bounded too.
	QueueTimeout time.Duration
	// TenantShare caps, under contention, the fraction of MaxConcurrent one
	// tenant may hold (default 0.5; clamped to at least one slot). The cap
	// binds only while others are waiting, so a lone tenant still uses the
	// whole capacity.
	TenantShare float64
	// RetryAfter is the advisory backoff attached to shed decisions
	// (default 1s).
	RetryAfter time.Duration
}

func (c GovernorConfig) withDefaults() GovernorConfig {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxConcurrent
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = time.Second
	}
	if c.TenantShare <= 0 || c.TenantShare > 1 {
		c.TenantShare = 0.5
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// GovernorStats counts admission outcomes.
type GovernorStats struct {
	Admitted      int
	Shed          int
	TenantShed    int
	QueueTimeouts int
	InFlight      int
	Queued        int
	PeakInFlight  int
}

// waiter is one queued admission request.
type waiter struct {
	tenant  string
	granted chan struct{} // closed by Release's handoff
}

// Governor is the global concurrency/cost governor generalizing the budget's
// Reserve/Commit admission to the whole daemon: a bounded in-flight slot
// pool with a bounded FIFO wait queue, per-tenant fair shares under
// contention, and load shedding (ErrOverloaded) when either bound is hit.
// A nil *Governor admits everything (the ungoverned library default).
type Governor struct {
	mu    sync.Mutex
	cfg   GovernorConfig
	share int // per-tenant slot cap under contention

	inflight  int
	perTenant map[string]int
	queue     *list.List // of *waiter
	stats     GovernorStats
}

// NewGovernor creates a governor; a config with MaxConcurrent <= 0 returns
// nil (ungoverned).
func NewGovernor(cfg GovernorConfig) *Governor {
	if cfg.MaxConcurrent <= 0 {
		return nil
	}
	cfg = cfg.withDefaults()
	share := int(math.Ceil(float64(cfg.MaxConcurrent) * cfg.TenantShare))
	if share < 1 {
		share = 1
	}
	return &Governor{cfg: cfg, share: share, perTenant: map[string]int{}, queue: list.New()}
}

// Admit claims one ask slot for tenant, waiting (bounded) when the daemon is
// at capacity. On success it returns the release function that must be
// called exactly once when the ask completes. On shed it returns an
// *OverloadError. A nil governor admits immediately with a no-op release.
func (g *Governor) Admit(ctx context.Context, tenant string) (func(), error) {
	if g == nil {
		return func() {}, nil
	}
	g.mu.Lock()
	// Fast path: capacity free and nobody queued ahead. The tenant-share
	// cap binds only under contention (a waiter exists), so a lone tenant
	// may fill the whole pool.
	if g.inflight < g.cfg.MaxConcurrent && g.queue.Len() == 0 {
		g.admitLocked(tenant)
		g.mu.Unlock()
		g.admitEvent(ctx, tenant, false)
		return func() { g.release(tenant) }, nil
	}
	// Contended. A tenant already holding its fair share sheds immediately
	// rather than queueing — its queued ask could only displace other
	// tenants' slots.
	if g.perTenant[tenant] >= g.share {
		g.stats.Shed++
		g.stats.TenantShed++
		mGovShed.Inc()
		mGovTenantShed.Inc()
		retry := g.cfg.RetryAfter
		queued := g.queue.Len()
		g.mu.Unlock()
		shedEvent(ctx, tenant, "tenant over fair share", queued)
		return nil, &OverloadError{RetryAfter: retry, Reason: "tenant over fair share"}
	}
	if g.queue.Len() >= g.cfg.MaxQueue {
		g.stats.Shed++
		mGovShed.Inc()
		retry := g.cfg.RetryAfter
		queued := g.queue.Len()
		g.mu.Unlock()
		shedEvent(ctx, tenant, "queue full", queued)
		return nil, &OverloadError{RetryAfter: retry, Reason: "queue full"}
	}
	w := &waiter{tenant: tenant, granted: make(chan struct{})}
	el := g.queue.PushBack(w)
	depth := g.queue.Len()
	g.stats.Queued = depth
	g.mu.Unlock()
	if obs.Events.On(obs.LevelInfo) {
		obs.Events.Append(obs.Event{
			Level: obs.LevelInfo, Component: "governor", Kind: "queue",
			Trace: obs.TraceIDFrom(ctx),
			Attrs: []obs.Attr{
				{Key: "tenant", Value: tenant},
				{Key: "depth", Value: strconv.Itoa(depth)},
			},
		})
	}

	t := time.NewTimer(g.cfg.QueueTimeout)
	defer t.Stop()
	select {
	case <-w.granted:
		g.admitEvent(ctx, tenant, true)
		return func() { g.release(tenant) }, nil
	case <-t.C:
	case <-ctx.Done():
	}
	// Timed out or cancelled — but the handoff may have raced us: once
	// granted is closed the slot is ours and must be returned, not shed.
	g.mu.Lock()
	select {
	case <-w.granted:
		g.mu.Unlock()
		g.admitEvent(ctx, tenant, true)
		return func() { g.release(tenant) }, nil
	default:
	}
	g.queue.Remove(el)
	g.stats.Queued = g.queue.Len()
	g.stats.Shed++
	g.stats.QueueTimeouts++
	mGovShed.Inc()
	mGovQueueTimeouts.Inc()
	retry := g.cfg.RetryAfter
	queued := g.queue.Len()
	g.mu.Unlock()
	reason := "queue timeout"
	if ctx.Err() != nil {
		reason = "cancelled while queued"
	}
	shedEvent(ctx, tenant, reason, queued)
	return nil, &OverloadError{RetryAfter: retry, Reason: reason}
}

// admitEvent records one admission at debug level (the governor's steady
// state; operators raise the log to info/warn to keep only transitions).
func (g *Governor) admitEvent(ctx context.Context, tenant string, waited bool) {
	if !obs.Events.On(obs.LevelDebug) {
		return
	}
	obs.Events.Append(obs.Event{
		Level: obs.LevelDebug, Component: "governor", Kind: "admit",
		Trace: obs.TraceIDFrom(ctx),
		Attrs: []obs.Attr{
			{Key: "tenant", Value: tenant},
			{Key: "waited", Value: strconv.FormatBool(waited)},
		},
	})
}

// admitLocked books one slot for tenant.
func (g *Governor) admitLocked(tenant string) {
	g.inflight++
	g.perTenant[tenant]++
	if g.inflight > g.stats.PeakInFlight {
		g.stats.PeakInFlight = g.inflight
	}
	g.stats.Admitted++
	g.stats.InFlight = g.inflight
	mGovAdmitted.Inc()
}

// release returns tenant's slot and hands it to the first eligible waiter:
// FIFO order, skipping tenants at their share cap (they are reconsidered as
// earlier holders drain). If every waiter is capped the scan falls back to
// the head, keeping the pool work-conserving.
func (g *Governor) release(tenant string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inflight--
	if g.perTenant[tenant] <= 1 {
		delete(g.perTenant, tenant)
	} else {
		g.perTenant[tenant]--
	}
	for g.inflight < g.cfg.MaxConcurrent && g.queue.Len() > 0 {
		var pick *list.Element
		for el := g.queue.Front(); el != nil; el = el.Next() {
			if g.perTenant[el.Value.(*waiter).tenant] < g.share {
				pick = el
				break
			}
		}
		if pick == nil {
			pick = g.queue.Front()
		}
		w := pick.Value.(*waiter)
		g.queue.Remove(pick)
		g.admitLocked(w.tenant)
		close(w.granted)
	}
	g.stats.InFlight = g.inflight
	g.stats.Queued = g.queue.Len()
}

// Stats snapshots the admission counters. Safe on nil.
func (g *Governor) Stats() GovernorStats {
	if g == nil {
		return GovernorStats{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.stats
	st.InFlight = g.inflight
	st.Queued = g.queue.Len()
	return st
}

// CountDegraded counts one stale-memo degraded answer (kept here so the
// governor owns the full admitted/shed/degraded ledger the A11 experiment
// reads). Safe on nil.
func (g *Governor) CountDegraded() { mGovDegraded.Inc() }
