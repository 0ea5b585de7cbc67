package resilience

import (
	"errors"
	"strconv"
	"sync"
	"time"

	"blueprint/internal/clock"
	"blueprint/internal/obs"
)

// Process-wide breaker instruments (per-Set state gauges are func-backed and
// registered by the System wiring).
var (
	mBreakerTrips      = obs.Default.Counter("blueprint_breaker_trips_total", "circuit-breaker transitions to open")
	mBreakerRejections = obs.Default.Counter("blueprint_breaker_rejections_total", "dispatches rejected by an open breaker")
	mBreakerProbes     = obs.Default.Counter("blueprint_breaker_probes_total", "half-open probe dispatches")
	mBreakerCloses     = obs.Default.Counter("blueprint_breaker_closes_total", "circuit-breaker recoveries to closed")
)

// ErrBreakerOpen reports a dispatch rejected because the target agent's
// circuit breaker is open. Never retried against the same agent; the
// scheduler's replan fallback may still route to an alternative.
var ErrBreakerOpen = errors.New("resilience: circuit breaker open")

// State is a breaker's position in the closed/open/half-open machine.
type State int

// Breaker states.
const (
	// Closed passes traffic, recording outcomes in the failure window.
	Closed State = iota
	// Open rejects traffic until breakerOpenFor elapses.
	Open
	// HalfOpen admits up to breakerProbes trial dispatches; all-success
	// closes the breaker, any failure re-opens it.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// The breaker policy, one for every agent: a breaker trips when at least
// breakerMinSamples of its last breakerWindow dispatches are recorded and
// breakerThreshold of them failed — a single early failure must not trip it —
// then rejects for breakerOpenFor, then admits breakerProbes trial dispatches.
const (
	breakerWindow     = 20
	breakerMinSamples = 5
	breakerThreshold  = 0.5
	breakerOpenFor    = 2 * time.Second
	breakerProbes     = 1
)

// Breaker is one closed/open/half-open circuit over a sliding outcome
// window. Safe for concurrent use.
type Breaker struct {
	mu      sync.Mutex
	name    string       // owning agent, for state-transition events ("" standalone)
	clk     *clock.Clock // reads the open period
	state   State
	window  [breakerWindow]bool // ring of outcomes, true = failure
	next    int
	filled  int
	openAt  time.Time
	probes  int // in-flight + spent half-open probes since entering HalfOpen
	probeOK int
}

// NewBreaker creates a closed breaker on clk.
func NewBreaker(clk *clock.Clock) *Breaker {
	return &Breaker{clk: clk}
}

// stateEvent records one state transition in the event log. Transitions
// are rare by construction (trips gate on a windowed failure rate, closes
// on successful probes), so no sampling is needed.
func (b *Breaker) stateEvent(lv obs.Level, kind string, extra ...obs.Attr) {
	if !obs.Events.On(lv) {
		return
	}
	attrs := append([]obs.Attr{{Key: "agent", Value: b.name}}, extra...)
	obs.Events.Append(obs.Event{
		Level: lv, Component: "breaker", Kind: kind, Attrs: attrs,
	})
}

// Allow reports whether a dispatch may proceed, advancing open -> half-open
// when the open period elapsed and accounting half-open probe admissions.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.clk.Since(b.openAt) < breakerOpenFor {
			mBreakerRejections.Inc()
			return false
		}
		b.state = HalfOpen
		b.probes, b.probeOK = 0, 0
		b.stateEvent(obs.LevelInfo, "half-open")
		fallthrough
	default: // HalfOpen
		if b.probes >= breakerProbes {
			mBreakerRejections.Inc()
			return false
		}
		b.probes++
		mBreakerProbes.Inc()
		return true
	}
}

// Record folds one dispatch outcome into the window and runs the state
// machine: a half-open failure re-opens immediately, all probes succeeding
// closes, and a closed breaker trips when the windowed failure rate crosses
// the threshold.
func (b *Breaker) Record(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.window[b.next] = !success
	b.next = (b.next + 1) % breakerWindow
	if b.filled < len(b.window) {
		b.filled++
	}
	switch b.state {
	case HalfOpen:
		if !success {
			b.tripLocked()
			return
		}
		b.probeOK++
		if b.probeOK >= breakerProbes {
			b.state = Closed
			b.resetWindowLocked()
			mBreakerCloses.Inc()
			b.stateEvent(obs.LevelInfo, "close")
		}
	case Closed:
		if b.filled >= breakerMinSamples && b.failureRateLocked() >= breakerThreshold {
			b.tripLocked()
		}
	}
}

// Forgo gives back a dispatch Allow admitted that is not going to be made:
// a half-open probe taken and then not dispatched returns to the breaker, so
// the next dispatch probes instead of the breaker waiting for an outcome that
// never comes. A closed breaker gave nothing to return.
func (b *Breaker) Forgo() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen && b.probes > b.probeOK {
		b.probes--
	}
}

// State returns the current state (advancing open -> half-open is left to
// Allow; State is a pure read).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

func (b *Breaker) tripLocked() {
	b.state = Open
	b.openAt = b.clk.Now()
	mBreakerTrips.Inc()
	b.stateEvent(obs.LevelWarn, "open",
		obs.Attr{Key: "failure_rate", Value: strconv.FormatFloat(b.failureRateLocked(), 'f', 2, 64)})
}

func (b *Breaker) resetWindowLocked() {
	b.window = [breakerWindow]bool{}
	b.next, b.filled = 0, 0
}

func (b *Breaker) failureRateLocked() float64 {
	if b.filled == 0 {
		return 0
	}
	fails := 0
	n := b.filled
	for i := 0; i < n; i++ {
		if b.window[i] {
			fails++
		}
	}
	return float64(fails) / float64(n)
}

// Set holds one breaker per agent, created lazily on first use.
type Set struct {
	mu  sync.Mutex
	clk *clock.Clock
	m   map[string]*Breaker
}

// NewSet creates an empty breaker set whose breakers run on clk.
func NewSet(clk *clock.Clock) *Set {
	return &Set{clk: clk, m: make(map[string]*Breaker)}
}

// For returns the named agent's breaker, creating it closed. Safe on a nil
// set (returns nil; nil breakers always allow).
func (s *Set) For(name string) *Breaker {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[name]
	if !ok {
		b = NewBreaker(s.clk)
		b.name = name
		s.m[name] = b
	}
	return b
}

// Allow reports whether a dispatch to the named agent may proceed. A nil set
// always allows.
func (s *Set) Allow(name string) bool {
	if s == nil {
		return true
	}
	return s.For(name).Allow()
}

// Forgo gives back a dispatch to the named agent that Allow admitted and
// that is not going to be made (Breaker.Forgo). No-op on nil.
func (s *Set) Forgo(name string) {
	if s == nil {
		return
	}
	s.For(name).Forgo()
}

// Record folds one dispatch outcome for the named agent. No-op on nil.
func (s *Set) Record(name string, success bool) {
	if s == nil {
		return
	}
	s.For(name).Record(success)
}

// States snapshots every breaker's state by agent name.
func (s *Set) States() map[string]State {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]State, len(s.m))
	for name, b := range s.m {
		out[name] = b.State()
	}
	return out
}

// OpenCount counts breakers currently not closed (open or half-open) — the
// value the blueprint_breaker_open gauge exports.
func (s *Set) OpenCount() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, st := range s.States() {
		if st != Closed {
			n++
		}
	}
	return n
}
