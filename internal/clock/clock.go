// Package clock is the program's one source of time. Every rule that decides
// by time — a step's deadline, a retry's backoff, a breaker's open period, a
// memo entry's age, an SLO window, a queued ask's wait, an idle worker's exit —
// reads a *Clock that the System owns and hands down at construction.
//
// The nil *Clock is the real clock: each read is a nil check and then
// time.Now, time.NewTimer or context.WithDeadline, with nothing allocated
// beyond what those allocate. NewFake makes a clock that moves only when a test
// advances it, so a test of a time-based rule waits on no wall time.
package clock

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Clock tells the time and makes timers. The nil *Clock is the real clock;
// one made by NewFake is a fake.
type Clock struct {
	mu      sync.Mutex
	added   sync.Cond // broadcast when a timer is filed
	now     time.Time
	pending []*fake // timers not yet fired or stopped
}

// Now returns the current time.
func (c *Clock) Now() time.Time {
	if c == nil {
		return time.Now()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Since returns the time elapsed since t.
func (c *Clock) Since(t time.Time) time.Duration {
	if c == nil {
		return time.Since(t)
	}
	return c.Now().Sub(t)
}

// Until returns the duration until t.
func (c *Clock) Until(t time.Time) time.Duration {
	if c == nil {
		return time.Until(t)
	}
	return t.Sub(c.Now())
}

// Timer is a single event after a duration, as time.Timer is: a value
// whose C receives the time when it fires.
type Timer struct {
	C <-chan time.Time
	t *time.Timer // the real clock's
	f *fake       // a fake clock's
}

// NewTimer starts a timer that fires after d.
func (c *Clock) NewTimer(d time.Duration) Timer { return c.timer(d, false) }

// timer is NewTimer, and for a fake clock marks the timer of a Sleep.
func (c *Clock) timer(d time.Duration, sleep bool) Timer {
	if c == nil {
		t := time.NewTimer(d)
		return Timer{C: t.C, t: t}
	}
	f := c.add(func(now time.Time) time.Time { return now.Add(d) }, sleep, nil)
	return Timer{C: f.ch, f: f}
}

// Stop prevents the timer from firing; it reports whether it was pending.
func (t Timer) Stop() bool {
	if t.t != nil {
		return t.t.Stop()
	}
	return t.f.c.stop(t.f)
}

// Reset restarts the timer to fire after d, with no earlier firing left to
// receive; it reports whether the timer was pending.
func (t Timer) Reset(d time.Duration) bool {
	if t.t != nil {
		return t.t.Reset(d)
	}
	c := t.f.c
	was := c.stop(t.f)
	select {
	case <-t.f.ch:
	default:
	}
	c.mu.Lock()
	due := c.schedule(t.f, c.now.Add(d))
	now := c.now
	c.mu.Unlock()
	if due {
		t.f.fire(now)
	}
	return was
}

// Sleep waits d unless ctx ends first, and reports whether the whole wait
// passed.
func (c *Clock) Sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := c.timer(d, true)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// WithDeadline is context.WithDeadline on this clock.
func (c *Clock) WithDeadline(ctx context.Context, deadline time.Time) (context.Context, context.CancelFunc) {
	if c == nil {
		return context.WithDeadline(ctx, deadline)
	}
	return c.withDeadline(ctx, func(time.Time) time.Time { return deadline })
}

// WithTimeout is context.WithTimeout on this clock.
func (c *Clock) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if c == nil {
		return context.WithTimeout(ctx, d)
	}
	return c.withDeadline(ctx, func(now time.Time) time.Time { return now.Add(d) })
}

// withDeadline derives a fake clock's context that ends at when(now).
func (c *Clock) withDeadline(ctx context.Context, when func(now time.Time) time.Time) (context.Context, context.CancelFunc) {
	inner, cancel := context.WithCancel(ctx)
	dc := &deadlineCtx{Context: inner}
	f := c.add(when, false, func() {
		if inner.Err() == nil {
			dc.expired.Store(true)
			cancel()
		}
	})
	dc.deadline = f.when
	return dc, func() {
		c.stop(f)
		cancel()
	}
}

// NewFake returns a clock that reads start until Advance moves it.
func NewFake(start time.Time) *Clock {
	c := &Clock{now: start}
	c.added.L = &c.mu
	return c
}

// Advance moves a fake clock forward by d and fires every timer that falls
// due, soonest first.
func (c *Clock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	var due []*fake
	c.pending = slices.DeleteFunc(c.pending, func(f *fake) bool {
		if f.when.After(c.now) {
			return false
		}
		due = append(due, f)
		return true
	})
	now := c.now
	c.mu.Unlock()
	slices.SortStableFunc(due, func(a, b *fake) int { return a.when.Compare(b.when) })
	for _, f := range due {
		f.fire(now)
	}
}

// Sleeping blocks until some goroutine is in Sleep on a fake clock and
// returns the duration it asked for — the soonest such sleep's. Advancing the
// clock by it ends that sleep.
func (c *Clock) Sleeping() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		var next *fake
		for _, f := range c.pending {
			if f.sleep && (next == nil || f.when.Before(next.when)) {
				next = f
			}
		}
		if next != nil {
			return next.asked
		}
		c.added.Wait()
	}
}

// fake is one pending timer of a fake clock: it sends on ch when it fires,
// or runs fn instead when fn is set.
type fake struct {
	c     *Clock
	ch    chan time.Time
	fn    func()
	when  time.Time
	asked time.Duration
	sleep bool // made by Sleep: what Sleeping reports
}

func (f *fake) fire(now time.Time) {
	if f.fn != nil {
		f.fn()
		return
	}
	select {
	case f.ch <- now:
	default:
	}
}

// add starts a fake timer to fire at when(now), the time read under the lock
// so that no Advance falls between reading it and filing the timer; one
// already due fires at once.
func (c *Clock) add(when func(now time.Time) time.Time, sleep bool, fn func()) *fake {
	f := &fake{c: c, ch: make(chan time.Time, 1), fn: fn, sleep: sleep}
	c.mu.Lock()
	due := c.schedule(f, when(c.now))
	now := c.now
	c.mu.Unlock()
	if due {
		f.fire(now)
	}
	return f
}

// schedule files f to fire at when, or reports that it is due already; c.mu
// is held.
func (c *Clock) schedule(f *fake, when time.Time) (due bool) {
	f.when, f.asked = when, when.Sub(c.now)
	if !when.After(c.now) {
		return true
	}
	c.pending = append(c.pending, f)
	c.added.Broadcast()
	return false
}

// stop unfiles f and reports whether it was pending.
func (c *Clock) stop(f *fake) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := slices.Index(c.pending, f)
	if i < 0 {
		return false
	}
	c.pending = slices.Delete(c.pending, i, i+1)
	return true
}

// deadlineCtx is a fake clock's deadline context: cancelled when the clock
// reaches its deadline, and then reporting context.DeadlineExceeded.
type deadlineCtx struct {
	context.Context
	deadline time.Time
	expired  atomic.Bool
}

func (d *deadlineCtx) Deadline() (time.Time, bool) { return d.deadline, true }

func (d *deadlineCtx) Err() error {
	err := d.Context.Err()
	if err != nil && d.expired.Load() {
		return context.DeadlineExceeded
	}
	return err
}
