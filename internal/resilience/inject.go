// Package resilience is the blueprint's fault-tolerance and overload-control
// layer: a deterministic fault injector every execution layer consults behind
// a build-free runtime hook (this file), retry with exponential backoff +
// jitter charged against plan deadline budgets (retry.go), per-agent circuit
// breakers (breaker.go), a global concurrency governor with per-tenant fair
// admission and load shedding (governor.go), and the graceful-degradation
// policy that decides when a stale memoized answer may stand in for real
// execution (degrade.go).
//
// The production-deployment study (arXiv 2604.25724, PAPERS.md) makes
// SLO-driven overload control and graceful degradation the defining property
// of a production compound-AI serving tier; the multi-agent orchestration
// survey (arXiv 2601.13671) catalogs retry/circuit-breaker patterns as table
// stakes. This package supplies both, plus the chaos seam — deterministic,
// seedable fault injection — that lets the test suite (the chaos tests, the
// overload test) prove the claims instead of asserting them. See
// ARCHITECTURE.md.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"blueprint/internal/clock"
	"blueprint/internal/obs"
)

// Process-wide injection instruments: how often each fault kind fired.
var (
	mInjectedErrors   = obs.Default.Counter("blueprint_faults_injected_errors_total", "injected agent/relational/durability errors")
	mInjectedLatency  = obs.Default.Counter("blueprint_faults_injected_latency_total", "injected latency spikes")
	mInjectedHangs    = obs.Default.Counter("blueprint_faults_injected_hangs_total", "injected hangs (block until cancel or hang bound)")
	mInjectedCrashes  = obs.Default.Counter("blueprint_faults_injected_crashes_total", "injected crashes (SimulateCrash hook)")
	mInjectionChecked = obs.Default.Counter("blueprint_faults_checked_total", "injection-site consultations while an injector is active")
)

// ErrInjected marks an injector-produced failure. Transient by definition:
// the retry classifier treats it as retryable.
var ErrInjected = errors.New("resilience: injected fault")

// Site names one injection point. Subsystems consult Check with their site;
// rules match by site (empty rule site matches every site).
type Site string

// The wired injection sites.
const (
	// SiteAgent fires inside the agent runtime, immediately before the
	// processor call — an injected error surfaces exactly like a failing
	// agent (AGENT_ERROR report, retry/breaker/replan machinery engages).
	SiteAgent Site = "agent.process"
	// SiteRelational fires at the top of DB.QueryContext.
	SiteRelational Site = "relational.exec"
	// SiteDurability fires in the WAL append path.
	SiteDurability Site = "durability.append"
)

// Kind is the fault class a rule injects.
type Kind int

// Fault kinds.
const (
	// KindError returns ErrInjected from the site.
	KindError Kind = iota
	// KindLatency sleeps the rule's Latency before continuing healthy.
	KindLatency
	// KindHang blocks until the caller's context is cancelled, bounded by
	// the rule's Latency (default DefaultHangBound) so a hang against an
	// uncancellable context cannot wedge the process forever.
	KindHang
	// KindCrash invokes the injector's crash hook (System.SimulateCrash in
	// the full stack) and then returns ErrInjected to the caller.
	KindCrash
)

// DefaultHangBound caps KindHang faults whose rule sets no Latency.
const DefaultHangBound = 5 * time.Second

func (k Kind) String() string {
	switch k {
	case KindLatency:
		return "latency"
	case KindHang:
		return "hang"
	case KindCrash:
		return "crash"
	default:
		return "error"
	}
}

// Rule arms one fault at one site.
type Rule struct {
	// Site selects the injection point ("" matches all sites).
	Site Site
	// Kind is the fault class.
	Kind Kind
	// Probability in [0,1] that a consultation fires the fault.
	Probability float64
	// Latency is the injected delay for KindLatency and the hang bound for
	// KindHang (DefaultHangBound when zero).
	Latency time.Duration
	// After skips the first After consultations of the site before the rule
	// becomes eligible (deterministic "brownout starts later" scheduling).
	After int
	// Limit bounds how many times the rule fires (0 = unlimited).
	Limit int
}

// InjectStats counts what an injector did.
type InjectStats struct {
	Checked   int
	Errors    int
	Latencies int
	Hangs     int
	Crashes   int
}

// Injector is a deterministic, seedable fault source. All decisions come
// from one seeded PRNG consulted under a lock in consultation order, so a
// single-goroutine workload replays bit-for-bit; concurrent workloads stay
// deterministic in aggregate (same fault counts for the same consultation
// counts).
type Injector struct {
	mu      sync.Mutex
	rng     *rand.Rand
	rules   []Rule
	seen    map[Site]int // consultations per site
	fired   []int        // fires per rule
	stats   InjectStats
	crashFn func()
}

// NewInjector creates an injector from a seed and rule set.
func NewInjector(seed int64, rules ...Rule) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		rules: append([]Rule(nil), rules...),
		seen:  make(map[Site]int),
		fired: make([]int, len(rules)),
	}
}

// OnCrash installs the crash hook KindCrash rules invoke (the full stack
// wires System.SimulateCrash). Safe to leave unset: a crash fault then
// degrades to KindError.
func (in *Injector) OnCrash(fn func()) {
	in.mu.Lock()
	in.crashFn = fn
	in.mu.Unlock()
}

// Stats snapshots the fire counters.
func (in *Injector) Stats() InjectStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// decision is one resolved consultation.
type decision struct {
	kind    Kind
	latency time.Duration
	crash   func()
	fire    bool
}

// eval resolves one consultation of site. First matching eligible rule wins.
func (in *Injector) eval(site Site) decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Checked++
	n := in.seen[site]
	in.seen[site] = n + 1
	for i, r := range in.rules {
		if r.Site != "" && r.Site != site {
			continue
		}
		if n < r.After {
			continue
		}
		if r.Limit > 0 && in.fired[i] >= r.Limit {
			continue
		}
		if r.Probability < 1 && in.rng.Float64() >= r.Probability {
			continue
		}
		in.fired[i]++
		d := decision{kind: r.Kind, latency: r.Latency, fire: true}
		switch r.Kind {
		case KindError:
			in.stats.Errors++
		case KindLatency:
			in.stats.Latencies++
		case KindHang:
			in.stats.Hangs++
			if d.latency <= 0 {
				d.latency = DefaultHangBound
			}
		case KindCrash:
			in.stats.Crashes++
			d.crash = in.crashFn
		}
		return d
	}
	return decision{}
}

// active is the process-global injector hook. Nil (the production state)
// costs one atomic load per site consultation; tests and the chaos suite
// arm it with Activate.
var active atomic.Pointer[Injector]

// Activate arms the injector process-wide. Passing nil disarms (same as
// Deactivate).
func Activate(in *Injector) { active.Store(in) }

// Deactivate disarms fault injection.
func Deactivate() { active.Store(nil) }

// Check is the runtime hook subsystems call at their injection site, on the
// clock they run on. With no active injector it is a single atomic load.
// Otherwise it resolves one consultation: KindError returns ErrInjected;
// KindLatency sleeps on clk (cut short by ctx); KindHang blocks until ctx is
// cancelled or the hang bound elapses on clk, then returns ErrInjected;
// KindCrash invokes the crash hook and returns ErrInjected.
func Check(ctx context.Context, clk *clock.Clock, site Site) error {
	in := active.Load()
	if in == nil {
		return nil
	}
	mInjectionChecked.Inc()
	d := in.eval(site)
	if !d.fire {
		return nil
	}
	switch d.kind {
	case KindLatency:
		mInjectedLatency.Inc()
		clk.Sleep(ctx, d.latency)
		return nil
	case KindHang:
		mInjectedHangs.Inc()
		clk.Sleep(ctx, d.latency)
		return fmt.Errorf("%w: hang at %s", ErrInjected, site)
	case KindCrash:
		mInjectedCrashes.Inc()
		if d.crash != nil {
			d.crash()
		}
		return fmt.Errorf("%w: crash at %s", ErrInjected, site)
	default:
		mInjectedErrors.Inc()
		return fmt.Errorf("%w: error at %s", ErrInjected, site)
	}
}
