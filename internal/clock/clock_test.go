package clock

import (
	"context"
	"errors"
	"testing"
	"time"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestRealClock(t *testing.T) {
	var c *Clock
	if d := c.Since(c.Now()); d < 0 || d > time.Second {
		t.Fatalf("Since(Now()) = %s", d)
	}
	tm := c.NewTimer(time.Millisecond)
	<-tm.C
	if tm.Stop() {
		t.Fatal("a fired timer reported pending")
	}
	if !c.Sleep(context.Background(), time.Millisecond) {
		t.Fatal("real sleep cut short")
	}
	ctx, cancel := c.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done()
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Fatalf("real timeout err = %v", ctx.Err())
	}
}

func TestFakeTimersFireOnAdvance(t *testing.T) {
	c := NewFake(epoch)
	short, long := c.NewTimer(time.Second), c.NewTimer(time.Minute)
	c.Advance(999 * time.Millisecond)
	select {
	case <-short.C:
		t.Fatal("fired before its time")
	default:
	}
	c.Advance(time.Millisecond)
	if got := <-short.C; !got.Equal(epoch.Add(time.Second)) {
		t.Fatalf("fired at %s", got)
	}
	if !long.Stop() || long.Stop() {
		t.Fatal("Stop of a pending timer, then of a stopped one")
	}
	c.Advance(time.Hour)
	select {
	case <-long.C:
		t.Fatal("a stopped timer fired")
	default:
	}
	// Reset after a firing leaves nothing stale to receive.
	short.Reset(0)
	short.Reset(time.Second)
	select {
	case <-short.C:
		t.Fatal("a reset timer delivered its earlier firing")
	default:
	}
	c.Advance(time.Second)
	<-short.C
	if d := c.Since(epoch); d != time.Hour+2*time.Second {
		t.Fatalf("Since = %s", d)
	}
}

func TestFakeSleep(t *testing.T) {
	c := NewFake(epoch)
	done := make(chan bool)
	go func() { done <- c.Sleep(context.Background(), 250*time.Millisecond) }()
	if d := c.Sleeping(); d != 250*time.Millisecond {
		t.Fatalf("Sleeping = %s", d)
	}
	c.Advance(250 * time.Millisecond)
	if !<-done {
		t.Fatal("sleep reported cut short")
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { done <- c.Sleep(ctx, time.Hour) }()
	c.Sleeping()
	cancel()
	if <-done {
		t.Fatal("cancelled sleep reported whole")
	}
}

func TestFakeDeadline(t *testing.T) {
	c := NewFake(epoch)
	ctx, cancel := c.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if dl, ok := ctx.Deadline(); !ok || !dl.Equal(epoch.Add(time.Second)) {
		t.Fatalf("Deadline = %s, %v", dl, ok)
	}
	c.Advance(time.Second)
	<-ctx.Done()
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Fatalf("err = %v", ctx.Err())
	}
	// A deadline already passed ends the context at once; a cancel ends it
	// as cancelled.
	past, cancelPast := c.WithDeadline(context.Background(), epoch)
	defer cancelPast()
	<-past.Done()
	live, cancelLive := c.WithTimeout(context.Background(), time.Minute)
	cancelLive()
	if !errors.Is(live.Err(), context.Canceled) {
		t.Fatalf("cancelled err = %v", live.Err())
	}
}
