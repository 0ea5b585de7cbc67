// Package budget implements the blueprint's QoS budget (§IV, §V-H):
// "records of the current and projected QoS stats to guide execution and
// planning". The task coordinator charges every agent invocation against the
// session budget and checks projections before dispatching further steps;
// violations trigger aborts, replanning or user confirmation.
package budget

import (
	"fmt"
	"sync"
	"time"

	"blueprint/internal/obs"
)

// Process-wide admission-outcome instruments: how often steps reserve
// headroom, get rejected at admission, commit actuals, release unused
// reservations, or ride free on a memo hit.
var (
	mReserves          = obs.Default.Counter("blueprint_budget_reserves_total", "successful budget reservations (step admissions)")
	mReserveRejections = obs.Default.Counter("blueprint_budget_reserve_rejections_total", "budget reservations rejected at admission")
	mCommits           = obs.Default.Counter("blueprint_budget_commits_total", "reservations committed with step actuals")
	mReleases          = obs.Default.Counter("blueprint_budget_releases_total", "reservations released without charging (failed or cancelled steps)")
	mMemoCharges       = obs.Default.Counter("blueprint_budget_memo_charges_total", "steps charged as memo hits (zero cost and latency)")
	mRetryCharges      = obs.Default.Counter("blueprint_budget_retry_backoff_charges_total", "retry backoff sleeps charged against latency budgets")
)

// Limits are the QoS constraints of one task execution.
type Limits struct {
	// MaxCost in dollars (0 = unlimited).
	MaxCost float64
	// MaxLatency caps the execution latency charged to the budget
	// (0 = unlimited). Under the coordinator's concurrent scheduler each
	// step charges its marginal growth of the plan's critical path over
	// actual step latencies, so the dimension tracks end-to-end plan
	// latency: overlapping parallel steps do not double-count, and the
	// optimizer's critical-path projection and the actual enforcement
	// agree in units.
	MaxLatency time.Duration
	// MinAccuracy is the lowest acceptable running accuracy estimate
	// (0 = don't care).
	MinAccuracy float64
}

// Dimension names a QoS axis.
type Dimension string

// QoS dimensions.
const (
	DimCost     Dimension = "cost"
	DimLatency  Dimension = "latency"
	DimAccuracy Dimension = "accuracy"
)

// Violation records one exceeded constraint.
type Violation struct {
	Dimension Dimension
	// Actual and Limit are rendered per-dimension (dollars, duration,
	// probability).
	Actual string
	Limit  string
	// Step names the plan step that tripped the limit.
	Step string
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("budget violation on %s at step %q: %s exceeds limit %s", v.Dimension, v.Step, v.Actual, v.Limit)
}

// Budget tracks actuals against limits. All methods are safe for concurrent
// use. With the concurrent scheduler, several steps charge one budget in
// parallel; the Reserve/Commit path makes the admission check atomic, so two
// in-flight steps cannot each pass a WouldExceed-style check and then
// jointly overshoot the limit.
type Budget struct {
	mu              sync.Mutex
	limits          Limits
	cost            float64
	latency         time.Duration
	reservedCost    float64
	reservedLatency time.Duration
	accSum          float64
	accWeight       float64
	charges         int
	memoHits        int
	retries         int
	violations      []Violation
}

// New creates a budget with the given limits.
func New(limits Limits) *Budget {
	return &Budget{limits: limits}
}

// Limits returns the configured limits.
func (b *Budget) Limits() Limits {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.limits
}

// Charge records the actuals of one step and returns the violations it
// caused (nil when within budget). Accuracy contributes to a cost-weighted
// running estimate: expensive steps influence the estimate more.
func (b *Budget) Charge(step string, cost float64, latency time.Duration, accuracy float64) []Violation {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.chargeLocked(step, cost, latency, accuracy)
}

func (b *Budget) chargeLocked(step string, cost float64, latency time.Duration, accuracy float64) []Violation {
	b.cost += cost
	b.latency += latency
	b.charges++
	if accuracy > 0 {
		w := cost
		if w <= 0 {
			w = 1e-6
		}
		b.accSum += accuracy * w
		b.accWeight += w
	}
	var out []Violation
	if b.limits.MaxCost > 0 && b.cost > b.limits.MaxCost {
		out = append(out, Violation{
			Dimension: DimCost, Step: step,
			Actual: fmt.Sprintf("$%.4f", b.cost),
			Limit:  fmt.Sprintf("$%.4f", b.limits.MaxCost),
		})
	}
	if b.limits.MaxLatency > 0 && b.latency > b.limits.MaxLatency {
		out = append(out, Violation{
			Dimension: DimLatency, Step: step,
			Actual: b.latency.String(),
			Limit:  b.limits.MaxLatency.String(),
		})
	}
	if acc, ok := b.accuracyLocked(); ok && b.limits.MinAccuracy > 0 && acc < b.limits.MinAccuracy {
		out = append(out, Violation{
			Dimension: DimAccuracy, Step: step,
			Actual: fmt.Sprintf("%.3f", acc),
			Limit:  fmt.Sprintf("%.3f", b.limits.MinAccuracy),
		})
	}
	b.violations = append(b.violations, out...)
	return out
}

// ChargeMemoHit records a step satisfied from the memoization cache: zero
// cost and zero marginal critical-path latency are charged — a hit consumes
// no headroom, so admission (Reserve/WouldExceed) is bypassed entirely —
// while the accuracy estimate still absorbs the executing agent's profile
// and the charge is counted (Report.MemoHits). Violations can still result
// when a low-accuracy cached result drags the running estimate under
// MinAccuracy.
func (b *Budget) ChargeMemoHit(step string, accuracy float64) []Violation {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.memoHits++
	mMemoCharges.Inc()
	return b.chargeLocked(step, 0, 0, accuracy)
}

// ChargeRetryBackoff charges a retry's backoff sleep against the latency
// budget: a plan that retries pays for its own waiting, so retries can never
// push an execution past its declared latency SLO unnoticed. No cost is
// charged (a sleep invokes no agent) and the charge does not count toward
// Charges; it surfaces as Report.Retries. Returns the violations the charge
// caused — a plan out of latency headroom learns here to stop retrying.
func (b *Budget) ChargeRetryBackoff(step string, backoff time.Duration) []Violation {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.retries++
	mRetryCharges.Inc()
	b.latency += backoff
	var out []Violation
	if b.limits.MaxLatency > 0 && b.latency > b.limits.MaxLatency {
		out = append(out, Violation{
			Dimension: DimLatency, Step: step,
			Actual: b.latency.String(),
			Limit:  b.limits.MaxLatency.String(),
		})
	}
	b.violations = append(b.violations, out...)
	return out
}

// Reservation holds pre-authorized cost/latency headroom for one in-flight
// step. Commit it with the step's actuals, or Release it when the step never
// ran. The reservation's projected amounts count against the limits for
// every other Reserve/WouldExceed call while it is outstanding.
type Reservation struct {
	b       *Budget
	step    string
	cost    float64
	latency time.Duration
	done    bool // guarded by b.mu
}

// Reserve atomically checks that the projected cost/latency of a step fits
// under the limits — counting actuals already charged plus all outstanding
// reservations — and claims the headroom. When it does not fit, Reserve
// claims nothing and returns the would-be violations so the coordinator can
// apply its policy. This is the admission path for concurrently dispatched
// steps: two goroutines racing Reserve can never jointly overshoot a limit.
func (b *Budget) Reserve(step string, cost float64, latency time.Duration) (*Reservation, []Violation) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []Violation
	if b.limits.MaxCost > 0 && b.cost+b.reservedCost+cost > b.limits.MaxCost {
		out = append(out, Violation{
			Dimension: DimCost, Step: step,
			Actual: fmt.Sprintf("$%.4f projected", b.cost+b.reservedCost+cost),
			Limit:  fmt.Sprintf("$%.4f", b.limits.MaxCost),
		})
	}
	if b.limits.MaxLatency > 0 && b.latency+b.reservedLatency+latency > b.limits.MaxLatency {
		out = append(out, Violation{
			Dimension: DimLatency, Step: step,
			Actual: (b.latency + b.reservedLatency + latency).String() + " projected",
			Limit:  b.limits.MaxLatency.String(),
		})
	}
	if len(out) > 0 {
		mReserveRejections.Inc()
		return nil, out
	}
	mReserves.Inc()
	b.reservedCost += cost
	b.reservedLatency += latency
	return &Reservation{b: b, step: step, cost: cost, latency: latency}, nil
}

// Commit releases the reservation and charges the step's actuals in one
// atomic transition, returning any violations the actuals caused (actuals
// may legitimately exceed the reserved projection). Committing twice, or
// after Release, charges nothing. A nil reservation is a no-op.
func (r *Reservation) Commit(cost float64, latency time.Duration, accuracy float64) []Violation {
	if r == nil {
		return nil
	}
	r.b.mu.Lock()
	defer r.b.mu.Unlock()
	if r.done {
		return nil
	}
	mCommits.Inc()
	r.releaseLocked()
	return r.b.chargeLocked(r.step, cost, latency, accuracy)
}

// Release returns the reserved headroom without charging anything (the step
// failed or was cancelled before completing). Safe to call twice or on nil.
func (r *Reservation) Release() {
	if r == nil {
		return
	}
	r.b.mu.Lock()
	defer r.b.mu.Unlock()
	if !r.done {
		mReleases.Inc()
	}
	r.releaseLocked()
}

func (r *Reservation) releaseLocked() {
	if r.done {
		return
	}
	r.done = true
	r.b.reservedCost -= r.cost
	r.b.reservedLatency -= r.latency
}

// WouldExceed reports whether adding the projected cost/latency would break
// the limits — the coordinator's pre-dispatch projection check. Outstanding
// reservations count as spent.
func (b *Budget) WouldExceed(projCost float64, projLatency time.Duration) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.limits.MaxCost > 0 && b.cost+b.reservedCost+projCost > b.limits.MaxCost {
		return true
	}
	if b.limits.MaxLatency > 0 && b.latency+b.reservedLatency+projLatency > b.limits.MaxLatency {
		return true
	}
	return false
}

// Remaining reports how much cost and latency headroom is left (zero values
// when the dimension is unlimited). Outstanding reservations are not
// available headroom, so they count as spent.
func (b *Budget) Remaining() (cost float64, latency time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.limits.MaxCost > 0 {
		cost = b.limits.MaxCost - b.cost - b.reservedCost
		if cost < 0 {
			cost = 0
		}
	}
	if b.limits.MaxLatency > 0 {
		latency = b.limits.MaxLatency - b.latency - b.reservedLatency
		if latency < 0 {
			latency = 0
		}
	}
	return cost, latency
}

func (b *Budget) accuracyLocked() (float64, bool) {
	if b.accWeight == 0 {
		return 0, false
	}
	return b.accSum / b.accWeight, true
}

// Report is a budget snapshot.
type Report struct {
	CostSpent float64
	Latency   time.Duration
	Accuracy  float64 // running estimate; 0 when unknown
	Charges   int
	// MemoHits counts charges that were memoization hits (zero cost/latency).
	MemoHits int
	// Retries counts retry backoff sleeps charged to the latency budget.
	Retries      int
	Violations   []Violation
	CostLimit    float64
	LatencyLimit time.Duration
	// CostReserved/LatencyReserved are the outstanding (uncommitted)
	// reservations of in-flight steps at snapshot time.
	CostReserved    float64
	LatencyReserved time.Duration
}

// Snapshot returns the current report.
func (b *Budget) Snapshot() Report {
	b.mu.Lock()
	defer b.mu.Unlock()
	acc, _ := b.accuracyLocked()
	return Report{
		CostSpent:       b.cost,
		Latency:         b.latency,
		Accuracy:        acc,
		Charges:         b.charges,
		MemoHits:        b.memoHits,
		Retries:         b.retries,
		Violations:      append([]Violation(nil), b.violations...),
		CostLimit:       b.limits.MaxCost,
		LatencyLimit:    b.limits.MaxLatency,
		CostReserved:    b.reservedCost,
		LatencyReserved: b.reservedLatency,
	}
}
