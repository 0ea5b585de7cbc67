package streams

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The directive selectors: Ops picks operations, Agent picks what is
// addressed to one agent or to all of them, and either keeps out a message
// that has no directive.
func TestFilterDirectiveSelectors(t *testing.T) {
	control := func(d *Directive) Message { return Message{Stream: "s", Kind: Control, Directive: d} }
	agentA := Filter{Kinds: []Kind{Control}, Ops: []string{OpExecuteAgent, OpAbort}, Agent: "A"}
	reports := Filter{Ops: []string{opDone}}
	toA := Filter{Agent: "A"}
	for _, c := range []struct {
		name string
		f    Filter
		msg  Message
		want bool
	}{
		{"addressed to it", agentA, control(&Directive{Op: OpExecuteAgent, Agent: "A"}), true},
		{"addressed to another", agentA, control(&Directive{Op: OpExecuteAgent, Agent: "B"}), false},
		{"addressee differs in case", agentA, control(&Directive{Op: OpExecuteAgent, Agent: "a"}), false},
		{"broadcast", agentA, control(&Directive{Op: OpAbort}), true},
		{"broadcast of an op it did not ask for", agentA, control(&Directive{Op: opDone}), false},
		{"its own entry signal", agentA, control(&Directive{Op: OpEnterSession, Agent: "A"}), false},
		{"no directive", agentA, control(nil), false},
		{"data message", agentA, Message{Stream: "s", Kind: Data, Payload: "x"}, false},
		{"ops only: the op, any addressee", reports, control(&Directive{Op: opDone, Agent: "B"}), true},
		{"ops only: another op", reports, control(&Directive{Op: OpAbort}), false},
		{"ops only: no directive", reports, Message{Stream: "s", Kind: Data}, false},
		{"agent only: any op to it", toA, control(&Directive{Op: "X", Agent: "A"}), true},
		{"agent only: any broadcast", toA, control(&Directive{Op: "X"}), true},
		{"agent only: to another", toA, control(&Directive{Op: "X", Agent: "B"}), false},
		{"agent only: no directive", toA, control(nil), false},
		{"no selector: no directive", Filter{Kinds: []Kind{Control}}, control(nil), true},
	} {
		if got := c.f.Matches(&c.msg); got != c.want {
			t.Errorf("%s: Matches = %v, want %v", c.name, got, c.want)
		}
	}
}

// settle waits until the process is back to at most base goroutines: a
// drain that has sent its last message is still a goroutine for a moment.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want at most %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// A burst far beyond the channel's capacity to a consumer that is not
// reading must not block the producer, and must arrive complete and in order
// once it reads; the goroutine that carried the overflow is gone afterwards.
func TestBurstToSlowConsumer(t *testing.T) {
	base := runtime.NumGoroutine()
	s := NewStore()
	defer s.Close()
	mustCreate(t, s, "a", StreamInfo{})
	sub := s.Subscribe(Filter{}, false)
	const burst = 500 * subBuffer
	for i := 0; i < burst; i++ {
		mustAppend(t, s, Message{Stream: "a", Payload: i}) // would hang here if a producer could block
	}
	for i := 0; i < burst; i++ {
		if i%100 == 0 {
			runtime.Gosched() // a consumer that lets the drain run dry now and then
		}
		if m := recvTimeout(t, sub.C()); m.Payload != i {
			t.Fatalf("message %d carries %v", i, m.Payload)
		}
		if i == burst/2 { // more behind a live drain: queued after what it holds
			for j := burst; j < burst+3*subBuffer; j++ {
				mustAppend(t, s, Message{Stream: "a", Payload: j})
			}
		}
	}
	for j := burst; j < burst+3*subBuffer; j++ {
		if m := recvTimeout(t, sub.C()); m.Payload != j {
			t.Fatalf("message %d carries %v", j, m.Payload)
		}
	}
	settle(t, base) // the drain counts a delivery after the send, so wait it out first
	if got := s.StatsSnapshot().Deliveries; got != burst+3*subBuffer {
		t.Fatalf("Deliveries = %d, want %d", got, burst+3*subBuffer)
	}

	// A replay longer than the channel takes the same road.
	replay := s.Subscribe(Filter{Streams: []string{"a"}}, true)
	for i := 0; i < burst+3*subBuffer; i++ {
		if m := recvTimeout(t, replay.C()); m.Payload != i {
			t.Fatalf("replayed message %d carries %v", i, m.Payload)
		}
	}
	settle(t, base)
}

// Subscriptions that are idle, or whose consumer keeps up, own no goroutine.
func TestIdleSubscriptionsOwnNoGoroutine(t *testing.T) {
	s := NewStore()
	defer s.Close()
	mustCreate(t, s, "a", StreamInfo{})
	base := runtime.NumGoroutine()
	subs := make([]*Subscription, 1000)
	for i := range subs {
		subs[i] = s.Subscribe(Filter{Streams: []string{"a"}}, i%2 == 0)
	}
	for round := 0; round < subBuffer; round++ {
		mustAppend(t, s, Message{Stream: "a", Payload: round})
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("1000 subscriptions holding %d messages each added %d goroutines", subBuffer, n-base)
	}
	for _, sub := range subs {
		for round := 0; round < subBuffer; round++ {
			if m := recvTimeout(t, sub.C()); m.Payload != round {
				t.Fatalf("message %d carries %v", round, m.Payload)
			}
		}
		sub.Cancel()
		if _, ok := <-sub.C(); ok {
			t.Fatal("channel open after Cancel")
		}
	}
}

// Cancel and Store.Close racing Append, with consumers that read, stall and
// never read (run under -race by `make race`): a send on a closed channel
// would panic, a drain left blocked on its channel would outlive the store,
// and every channel must end closed.
func TestCancelAndCloseRaceAppend(t *testing.T) {
	base := runtime.NumGoroutine()
	for round := 0; round < 30; round++ {
		s := NewStore()
		mustCreate(t, s, "a", StreamInfo{})
		subs := make([]*Subscription, 12)
		var consumers sync.WaitGroup
		for i := range subs {
			subs[i] = s.Subscribe(Filter{}, false)
			if i%3 == 0 {
				continue // never read: overflows, its drain blocks on the channel
			}
			consumers.Add(1)
			go func(sub *Subscription, stall bool) {
				defer consumers.Done()
				for range sub.C() {
					if stall {
						runtime.Gosched()
					}
				}
			}(subs[i], i%3 == 1)
		}
		var producers sync.WaitGroup
		for p := 0; p < 3; p++ {
			producers.Add(1)
			go func() {
				defer producers.Done()
				for n := 0; ; n++ {
					if _, err := s.Append(Message{Stream: "a", Payload: n}); err != nil {
						if !errors.Is(err, ErrStoreClosed) {
							t.Errorf("append: %v", err)
						}
						return
					}
				}
			}()
		}
		var cancels sync.WaitGroup
		for i, sub := range subs[:8] {
			cancels.Add(1)
			go func(sub *Subscription, twice bool) {
				defer cancels.Done()
				sub.Cancel()
				if twice {
					sub.Cancel()
				}
			}(sub, i%2 == 0)
		}
		if round%2 == 0 {
			cancels.Wait()
		}
		if err := s.Close(); err != nil { // the other four end here, the cancelled ones perhaps too
			t.Fatal(err)
		}
		cancels.Wait()
		producers.Wait()
		consumers.Wait()
		for _, sub := range subs {
			for range sub.C() { // what an absent consumer left in the channel, then its close
			}
		}
	}
	settle(t, base)
}
