package obs

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"blueprint/internal/clock"
)

// SLO accounting. The production question is never "what is p95" but "is
// tenant X burning its error budget, and how fast" (the Salesforce
// deployment study's framing). An SLOTracker keeps, per tenant and per
// agent, cumulative good/bad counts plus a coalesced checkpoint ring, and
// derives multi-window burn rates from the deltas: burn = (bad fraction
// over the window) / (1 - objective), so 1.0 means the error budget is
// being consumed exactly at the sustainable rate, and a fast-window burn
// far above the slow-window burn means the problem started just now.
// Served at GET /slo, exported as labeled gauges in /metrics, and rendered
// as burn lines by bpctl top.

// SLO series kinds.
const (
	SLOTenant = "tenant"
	SLOAgent  = "agent"
)

// Once a tracker holds maxSLOSeries series, a tenant it has not seen is
// counted in the one tenant series named sloOverflow: tenant names are
// whatever X-Tenant values clients send, and each series costs its
// checkpoint ring (about 4 KB at the default windows) and two /metrics
// samples for as long as the process runs. Agents, the registry's, are few.
const maxSLOSeries = 128
const sloOverflow = "(other)"

// The two burn-rate windows: fast answers "is it on fire now", slow "has it
// been smoldering".
const (
	SLOFastWindow = time.Minute
	SLOSlowWindow = 10 * time.Minute
)

// sloGranularity spaces a series' checkpoints: the fast window sees ten.
const sloGranularity = SLOFastWindow / 10

// sloDepth is how many checkpoints a series keeps to cover the slow window.
const sloDepth = int(SLOSlowWindow/sloGranularity) + 2

// SLOConfig sets the objectives.
type SLOConfig struct {
	// LatencyTarget classifies an observation slower than it as bad
	// (default 1s).
	LatencyTarget time.Duration
	// Objective is the target good fraction, e.g. 0.99 (default 0.99).
	Objective float64
}

// WithDefaults fills unset fields.
func (c SLOConfig) WithDefaults() SLOConfig {
	if c.LatencyTarget <= 0 {
		c.LatencyTarget = time.Second
	}
	if c.Objective <= 0 || c.Objective >= 1 {
		c.Objective = 0.99
	}
	return c
}

// sloCheckpoint is one coalesced (time, cumulative counters) sample.
type sloCheckpoint struct {
	t          time.Time
	total, bad uint64
}

// sloSeries is one tenant's or agent's ledger.
type sloSeries struct {
	kind, name string
	total, bad uint64
	errs, slow uint64
	// cp holds checkpoints spaced >= sloGranularity apart, deep enough to
	// cover SLOSlowWindow.
	cp ring[sloCheckpoint]
}

// SLOStatus is one series' derived view (GET /slo).
type SLOStatus struct {
	Kind      string  `json:"kind"`
	Name      string  `json:"name"`
	Total     uint64  `json:"total"`
	Bad       uint64  `json:"bad"`
	Errors    uint64  `json:"errors"`
	Slow      uint64  `json:"slow"`
	Objective float64 `json:"objective"`
	// GoodFraction is lifetime; the burns are windowed.
	GoodFraction float64       `json:"good_fraction"`
	FastBurn     float64       `json:"fast_burn"`
	SlowBurn     float64       `json:"slow_burn"`
	FastWindow   time.Duration `json:"fast_window_ns"`
	SlowWindow   time.Duration `json:"slow_window_ns"`
	LatencyMS    float64       `json:"latency_target_ms"`
}

// SLOTracker derives burn rates for a set of tenant/agent series. Record
// is mutex-protected but cold relative to the data plane (one call per
// ask / per step), and Status is read-only over a snapshot.
type SLOTracker struct {
	cfg SLOConfig
	clk *clock.Clock // stamps checkpoints and ends the windows

	mu     sync.Mutex
	series map[string]*sloSeries
}

// NewSLOTracker creates a tracker on clk.
func NewSLOTracker(cfg SLOConfig, clk *clock.Clock) *SLOTracker {
	return &SLOTracker{cfg: cfg.WithDefaults(), clk: clk, series: map[string]*sloSeries{}}
}

// Config returns the tracker's resolved configuration.
func (t *SLOTracker) Config() SLOConfig {
	if t == nil {
		return SLOConfig{}.WithDefaults()
	}
	return t.cfg
}

// Record folds one observation into the (kind, name) series — the tenant
// overflow series for a new tenant once the tracker holds maxSLOSeries: an
// error is always bad, and a success slower than LatencyTarget is bad too.
// Safe on nil (disabled tracker).
func (t *SLOTracker) Record(kind, name string, dur time.Duration, isErr bool) {
	if t == nil || name == "" {
		return
	}
	slow := dur > t.cfg.LatencyTarget
	bad := isErr || slow
	now := t.clk.Now()
	t.mu.Lock()
	key := kind + "\x00" + name
	s := t.series[key]
	if s == nil && kind == SLOTenant && len(t.series) >= maxSLOSeries {
		name, key = sloOverflow, kind+"\x00"+sloOverflow
		s = t.series[key]
	}
	if s == nil {
		s = &sloSeries{kind: kind, name: name, cp: newRing[sloCheckpoint](sloDepth, sloDepth)}
		t.series[key] = s
	}
	s.total++
	if bad {
		s.bad++
	}
	if isErr {
		s.errs++
	}
	if slow {
		s.slow++
	}
	// Coalesce checkpoints to one per granularity interval.
	var last time.Time
	if n := s.cp.len(); n > 0 {
		last = s.cp.at(n - 1).t
	}
	if now.Sub(last) >= sloGranularity {
		s.cp.push(sloCheckpoint{t: now, total: s.total, bad: s.bad})
	}
	t.mu.Unlock()
}

// burn computes the burn rate over the window ending at now: the bad
// fraction of observations recorded within the window, divided by the
// error budget (1 - objective). A window with no observations burns 0.
func (t *SLOTracker) burn(s *sloSeries, now time.Time, window time.Duration) float64 {
	cutoff := now.Add(-window)
	// Baseline = the newest checkpoint at or before the window start; if
	// the series is younger than the window, burn is over its whole life.
	var base sloCheckpoint
	for i := 0; i < s.cp.len(); i++ {
		cp := s.cp.at(i)
		if cp.t.After(cutoff) {
			break
		}
		base = cp
	}
	dTotal := s.total - base.total
	dBad := s.bad - base.bad
	if dTotal == 0 {
		return 0
	}
	return (float64(dBad) / float64(dTotal)) / (1 - t.cfg.Objective)
}

// Status derives every series' burn view, sorted by kind then name. Safe
// on nil (empty).
func (t *SLOTracker) Status() []SLOStatus {
	if t == nil {
		return nil
	}
	now := t.clk.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SLOStatus, 0, len(t.series))
	for _, s := range t.series {
		st := SLOStatus{
			Kind: s.kind, Name: s.name,
			Total: s.total, Bad: s.bad, Errors: s.errs, Slow: s.slow,
			Objective:  t.cfg.Objective,
			FastBurn:   t.burn(s, now, SLOFastWindow),
			SlowBurn:   t.burn(s, now, SLOSlowWindow),
			FastWindow: SLOFastWindow, SlowWindow: SLOSlowWindow,
			LatencyMS: float64(t.cfg.LatencyTarget) / float64(time.Millisecond),
		}
		if s.total > 0 {
			st.GoodFraction = float64(s.total-s.bad) / float64(s.total)
		}
		out = append(out, st)
	}
	slices.SortFunc(out, func(a, b SLOStatus) int {
		return cmp.Or(cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Name, b.Name))
	})
	return out
}

// ---- registry exposition ----

// sloMetric exports a tracker's burn rates as labeled gauge samples:
// blueprint_slo_burn_rate{kind="tenant",name="free",window="fast"}. It is
// the registry's first labeled instrument, which is why EscapeLabel exists.
type sloMetric struct {
	name string
	help string
	mu   sync.Mutex
	t    *SLOTracker
}

func (m *sloMetric) metricName() string { return m.name }
func (m *sloMetric) metricHelp() string { return m.help }
func (m *sloMetric) metricType() string { return "gauge" }
func (m *sloMetric) sample(emit func(string, float64)) {
	m.mu.Lock()
	t := m.t
	m.mu.Unlock()
	if t == nil {
		return
	}
	for _, st := range t.Status() {
		base := `{kind="` + EscapeLabel(st.Kind) + `",name="` + EscapeLabel(st.Name) + `",window="`
		emit(base+`fast"}`, st.FastBurn)
		emit(base+`slow"}`, st.SlowBurn)
	}
}

// SLOFunc registers (or re-points, like the func-backed bridges) the
// tracker behind a labeled burn-rate gauge.
func (r *Registry) SLOFunc(name, help string, t *SLOTracker) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.items[name]; ok {
		if sm, ok := m.(*sloMetric); ok {
			sm.mu.Lock()
			sm.t = t
			sm.mu.Unlock()
		}
		return
	}
	r.items[name] = &sloMetric{name: name, help: help, t: t}
	r.order = append(r.order, name)
}
