package streams

import (
	"cmp"
	"slices"
	"sync"
)

// subBuffer is the capacity of a subscription's channel. The channel is not
// the queue — pending is, without bound — it only lets the pump hand over a
// short burst without a goroutine switch per message. It is allocated for
// every subscription, the many idle ones and the transient ones of each ask
// alike, so it is kept to a few messages (152 bytes each).
const subBuffer = 4

// Subscription delivers matching messages to a consumer. Messages are queued
// without bound internally (pending) and drained into C by a dedicated
// goroutine, so producers never block on slow consumers (the store remains
// responsive, at the cost of memory for laggards — the trade the paper's
// streaming database makes by design). C's own buffer holds no backlog: it is
// subBuffer messages of slack between the pump and the consumer.
type Subscription struct {
	store  *Store
	filter Filter
	filed  bool // in the store's routing index; guarded by store.mu

	mu      sync.Mutex
	pending []Message
	cond    *sync.Cond
	stopped bool

	quit chan struct{} // closed by stop: releases a pump blocked on ch
	ch   chan Message
	done chan struct{}
}

// Subscribe registers a subscription matching filter. If replay is true, all
// existing matching messages are delivered first (in global timestamp order)
// before live ones; otherwise only messages appended after the call are
// delivered.
func (s *Store) Subscribe(filter Filter, replay bool) *Subscription {
	if replay {
		return s.subscribe(filter, 0)
	}
	return s.subscribe(filter, -1)
}

// SubscribeFrom is Subscribe with a replay that starts at offset from of
// each stream: existing matching messages with Seq >= from are delivered
// first, then live ones. A consumer that knows how far it has read resumes
// there and pays for the suffix, not the history; from <= 0 replays
// everything, from at or beyond a stream's end replays nothing of it.
func (s *Store) SubscribeFrom(filter Filter, from int64) *Subscription {
	return s.subscribe(filter, max(from, 0))
}

// subscribe registers a subscription; from < 0 means no replay.
func (s *Store) subscribe(filter Filter, from int64) *Subscription {
	sub := &Subscription{
		store:  s,
		filter: filter,
		ch:     make(chan Message, subBuffer),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	sub.cond = sync.NewCond(&sub.mu)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		sub.stopped = true
		close(sub.ch)
		close(sub.done)
		close(sub.quit)
		return sub
	}
	if from >= 0 {
		// Seed the backlog before the subscription becomes visible to
		// appenders: once the index holds it, a concurrent Append may enqueue
		// a live message, and replayed history must still sort first.
		sub.pending = s.backlogLocked(&filter, from)
	}
	s.fileLocked(sub)
	s.mu.Unlock()

	go sub.pump()
	return sub
}

// backlogLocked returns copies of the existing messages at offset >= from of
// their stream that match filter, in global timestamp order; caller holds
// s.mu. A stream-scoped filter reads only the suffixes of the streams it
// names; only a filter that names none sweeps the store.
func (s *Store) backlogLocked(filter *Filter, from int64) []Message {
	scan, named := filter.Streams, true
	if len(scan) == 0 {
		scan, named = s.order, false
	}
	var backlog []Message
	scanned := 0
	for i, id := range scan {
		st, ok := s.streams[id]
		if !ok || from >= int64(len(st.msgs)) || (named && containsString(scan[:i], id)) {
			continue // absent, nothing at or past from, or a repeated name
		}
		scanned++
		for j := from; j < int64(len(st.msgs)); j++ {
			if filter.Matches(&st.msgs[j]) {
				backlog = append(backlog, st.msgs[j].Clone())
			}
		}
	}
	if scanned > 1 { // one stream's messages are already in timestamp order
		slices.SortStableFunc(backlog, func(a, b Message) int { return cmp.Compare(a.TS, b.TS) })
	}
	return backlog
}

// C is the channel on which matching messages arrive. It is closed when the
// subscription is cancelled or the store shuts down.
func (sub *Subscription) C() <-chan Message { return sub.ch }

// Cancel detaches the subscription from the store and closes C. Messages
// still queued are discarded.
func (sub *Subscription) Cancel() {
	sub.store.mu.Lock()
	sub.store.unfileLocked(sub)
	sub.store.mu.Unlock()
	sub.stop()
}

func (sub *Subscription) enqueue(msg Message) {
	sub.mu.Lock()
	if sub.stopped {
		sub.mu.Unlock()
		return
	}
	sub.pending = append(sub.pending, msg)
	sub.cond.Signal()
	sub.mu.Unlock()
}

func (sub *Subscription) stop() {
	sub.mu.Lock()
	if !sub.stopped {
		sub.stopped = true
		sub.cond.Signal()
		close(sub.quit)
	}
	sub.mu.Unlock()
	<-sub.done
}

// pump moves messages from the pending queue to the channel until stopped.
func (sub *Subscription) pump() {
	defer close(sub.done)
	defer close(sub.ch)
	for {
		sub.mu.Lock()
		for len(sub.pending) == 0 && !sub.stopped {
			sub.cond.Wait()
		}
		if sub.stopped {
			sub.mu.Unlock()
			return
		}
		batch := sub.pending
		sub.pending = nil
		sub.mu.Unlock()

		for i := range batch {
			select {
			case sub.ch <- batch[i]:
				sub.store.stats.deliveries.Add(1)
			case <-sub.quit:
				return
			}
		}
	}
}
