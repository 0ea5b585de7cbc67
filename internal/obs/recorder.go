package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Slow-ask flight recorder. Tail latency is only explainable while the
// evidence is still resident: by the time an operator queries /trace the
// span ring may have wrapped and the events scrolled away. The recorder
// fixes that by capturing, at ask completion, a self-contained exemplar —
// the ask's full span tree, the event slice that overlapped it, and the
// plan's cost breakdown — for every ask that exceeded the latency
// threshold, errored, or finished degraded/shed. Exemplars live in a
// bounded ring served by GET /slow and GET /slow/{n} (bpctl slow renders
// them), so "why was ask X slow" is one artifact instead of a join across
// three endpoints.

// Ask outcomes as classified by the capture site.
const (
	OutcomeSlow     = "slow"
	OutcomeError    = "error"
	OutcomeDegraded = "degraded"
	OutcomeShed     = "shed"
)

// CostBreakdown summarizes where an ask's budget went — filled from the
// coordinator result by the capture site (obs cannot import the budget
// package; it is the dependency floor of the telemetry plane).
type CostBreakdown struct {
	PlanID        string        `json:"plan_id,omitempty"`
	Cost          float64       `json:"cost"`
	Steps         int           `json:"steps"`
	CachedSteps   int           `json:"cached_steps"`
	DegradedSteps int           `json:"degraded_steps"`
	Retries       int           `json:"retries"`
	Replans       int           `json:"replans"`
	Elapsed       time.Duration `json:"elapsed_ns"`
}

// Exemplar is one captured ask: identity, outcome, and the full evidence.
type Exemplar struct {
	// ID is the capture sequence number (GET /slow/{n} addresses it).
	ID      uint64    `json:"id"`
	Trace   string    `json:"trace,omitempty"`
	Session string    `json:"session"`
	Tenant  string    `json:"tenant,omitempty"`
	Text    string    `json:"text"`
	Start   time.Time `json:"start"`
	// Dur is wall time from admission attempt to answer (queue wait
	// included for governed asks).
	Dur     time.Duration `json:"duration_ns"`
	Outcome string        `json:"outcome"`
	Err     string        `json:"error,omitempty"`
	// SpanCount/EventCount are pre-truncation totals; Spans/Events are
	// capped copies (MaxSpans/MaxEvents) so one pathological ask cannot
	// blow the recorder's memory bound.
	SpanCount  int            `json:"span_count"`
	EventCount int            `json:"event_count"`
	Spans      []SpanData     `json:"spans,omitempty"`
	Events     []Event        `json:"events,omitempty"`
	Breakdown  *CostBreakdown `json:"breakdown,omitempty"`
}

// ExemplarSummary is the list view (GET /slow, bpctl slow).
type ExemplarSummary struct {
	ID      uint64        `json:"id"`
	Trace   string        `json:"trace,omitempty"`
	Session string        `json:"session"`
	Tenant  string        `json:"tenant,omitempty"`
	Text    string        `json:"text"`
	Start   time.Time     `json:"start"`
	Dur     time.Duration `json:"duration_ns"`
	Outcome string        `json:"outcome"`
	Spans   int           `json:"spans"`
	Events  int           `json:"events"`
}

// Recorder bounds.
const (
	DefaultRecorderCapacity = 64
	// DefaultSlowThreshold is the capture threshold when the embedder set
	// none; blueprintd and Config override it.
	DefaultSlowThreshold = 800 * time.Millisecond
	// MaxExemplarSpans / MaxExemplarEvents cap one exemplar's evidence.
	MaxExemplarSpans  = 256
	MaxExemplarEvents = 128
)

// SlowAsks is the process-global flight recorder.
var SlowAsks = NewRecorder(DefaultRecorderCapacity)

// Recorder is a bounded ring of ask exemplars. Capture is cold by
// construction (only slow/failed/degraded asks reach it); the threshold
// read on every ask is one atomic load.
type Recorder struct {
	threshold atomic.Int64 // ns; < 0 disables capture entirely
	seq       atomic.Uint64
	captures  atomic.Uint64

	mu   sync.Mutex
	ring ring[*Exemplar]
}

// NewRecorder creates a recorder with the default threshold.
func NewRecorder(capacity int) *Recorder {
	r := &Recorder{ring: newRing[*Exemplar](capacity, capacity)}
	r.threshold.Store(int64(DefaultSlowThreshold))
	return r
}

// SetThreshold sets the slow-ask latency threshold; a negative duration
// disables capture (the A12 overhead baseline uses it).
func (r *Recorder) SetThreshold(d time.Duration) { r.threshold.Store(int64(d)) }

// Threshold returns the capture threshold (< 0 when disabled).
func (r *Recorder) Threshold() time.Duration { return time.Duration(r.threshold.Load()) }

// ShouldCapture reports whether an ask with the given duration and outcome
// ("" for a plain success) belongs in the recorder.
func (r *Recorder) ShouldCapture(dur time.Duration, outcome string) bool {
	th := r.threshold.Load()
	if th < 0 {
		return false
	}
	return outcome != "" || dur >= time.Duration(th)
}

// Capture stores an exemplar, clamping its evidence to the per-exemplar
// caps, and returns its assigned ID.
func (r *Recorder) Capture(ex Exemplar) uint64 {
	ex.ID = r.seq.Add(1)
	ex.SpanCount = len(ex.Spans)
	ex.EventCount = len(ex.Events)
	if len(ex.Spans) > MaxExemplarSpans {
		ex.Spans = append([]SpanData(nil), ex.Spans[:MaxExemplarSpans]...)
	}
	if len(ex.Events) > MaxExemplarEvents {
		// Keep the tail: the events nearest the slow finish are the ones
		// that explain it.
		ex.Events = append([]Event(nil), ex.Events[len(ex.Events)-MaxExemplarEvents:]...)
	}
	r.captures.Add(1)
	r.mu.Lock()
	r.ring.push(&ex)
	r.mu.Unlock()
	return ex.ID
}

// Captures returns the total number of captures since process start
// (monotonic even as the ring evicts).
func (r *Recorder) Captures() uint64 { return r.captures.Load() }

// Summaries lists the retained exemplars, most recent first.
func (r *Recorder) Summaries() []ExemplarSummary {
	r.mu.Lock()
	exs := r.ring.newestFirst()
	r.mu.Unlock()
	out := make([]ExemplarSummary, len(exs))
	for i, ex := range exs {
		out[i] = ExemplarSummary{
			ID: ex.ID, Trace: ex.Trace, Session: ex.Session, Tenant: ex.Tenant,
			Text: ex.Text, Start: ex.Start, Dur: ex.Dur, Outcome: ex.Outcome,
			Spans: ex.SpanCount, Events: ex.EventCount,
		}
	}
	return out
}

// Get returns the exemplar with the given ID, if still retained.
func (r *Recorder) Get(id uint64) (*Exemplar, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < r.ring.len(); i++ {
		if ex := r.ring.at(i); ex.ID == id {
			return ex, true
		}
	}
	return nil, false
}

// Latest returns the most recent exemplar, if any.
func (r *Recorder) Latest() (*Exemplar, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := r.ring.len(); n > 0 {
		return r.ring.at(n - 1), true
	}
	return nil, false
}

// Len returns the number of retained exemplars.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.len()
}

// Cap returns the ring capacity.
func (r *Recorder) Cap() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.bound
}

// Reset drops retained exemplars, keeping capacity and threshold.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.ring.reset()
	r.mu.Unlock()
}
