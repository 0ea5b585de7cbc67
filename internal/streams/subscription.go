package streams

import (
	"cmp"
	"slices"
	"sync"
)

// subBuffer is the capacity of a subscription's channel. The channel is not
// the queue — pending is, without bound — it is the slack that lets Append
// hand a message straight to the consumer without a goroutine in between. It
// is allocated for every subscription, the many idle ones and the transient
// ones of each ask alike, so it is kept to a few messages (160 bytes each).
const subBuffer = 4

// Subscription delivers matching messages to a consumer. Append sends a
// message straight into C while the consumer keeps up; a message that finds C
// full is queued without bound (pending) and a drain, a task on the store's
// pool (Store.Go), moves the queue into C, in order, and returns when it is
// empty. So producers never
// block on slow consumers (the store remains responsive, at the cost of
// memory for laggards — the trade the paper's streaming database makes by
// design), and a subscription that is idle or keeping up owns no goroutine.
type Subscription struct {
	store  *Store
	filter Filter
	filed  bool // in the store's routing index; guarded by store.mu
	// scopes holds the session scopes a SubscribeScoped subscription has
	// joined, and is nil for every other; guarded by store.mu.
	scopes map[string]struct{}

	mu      sync.Mutex
	pending []Message // what overflowed ch, in order; only a live drain empties it
	stopped bool
	// quit and done belong to the live drain and are nil when there is none:
	// stop closes quit to release a drain blocked on ch, the drain closes done
	// as it returns.
	quit chan struct{}
	done chan struct{}

	ch chan Message
}

// Subscribe registers a subscription matching filter. If replay is true, all
// existing matching messages are delivered first (in global timestamp order)
// before live ones; otherwise only messages appended after the call are
// delivered.
func (s *Store) Subscribe(filter Filter, replay bool) *Subscription {
	if replay {
		return s.subscribe(filter, 0, nil)
	}
	return s.subscribe(filter, -1, nil)
}

// SubscribeFrom is Subscribe with a replay that starts at offset from of
// each stream: existing matching messages with Seq >= from are delivered
// first (from the first kept one, when the stream has released from), then
// live ones. A consumer that knows how far it has read resumes
// there and pays for the suffix, not the history; from <= 0 replays
// everything, from at or beyond a stream's end replays nothing of it.
func (s *Store) SubscribeFrom(filter Filter, from int64) *Subscription {
	return s.subscribe(filter, max(from, 0), nil)
}

// SubscribeScoped registers a subscription that serves whichever session
// scopes it joins: it receives the messages appended after a Join whose
// session lies within a joined scope and that match filter, each once, and
// none from a scope it has not joined or has left — nothing at all until the
// first Join. It is one subscription (one channel, one consumer) however many
// scopes it serves, and an Append into a scope it has not joined never
// evaluates its filter. The filter names the other rules; its Session stays
// empty, the joined scopes being the scope.
func (s *Store) SubscribeScoped(filter Filter) *Subscription {
	return s.subscribe(filter, -1, make(map[string]struct{}))
}

// Join adds a session scope to those a SubscribeScoped subscription serves.
func (sub *Subscription) Join(scope string) {
	sub.store.mu.Lock()
	sub.store.joinLocked(sub, scope)
	sub.store.mu.Unlock()
}

// Leave takes a joined scope away again. Messages of it already handed to
// the subscription stay in its queue.
func (sub *Subscription) Leave(scope string) {
	sub.store.mu.Lock()
	sub.store.leaveLocked(sub, scope)
	sub.store.mu.Unlock()
}

// subscribe registers a subscription; from < 0 means no replay, and a
// non-nil scopes makes it a scoped one.
func (s *Store) subscribe(filter Filter, from int64, scopes map[string]struct{}) *Subscription {
	sub := &Subscription{
		store:  s,
		filter: filter,
		scopes: scopes,
		ch:     make(chan Message, subBuffer),
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		sub.stopped = true
		close(sub.ch)
		return sub
	}
	if from >= 0 {
		// Seed the backlog before the subscription becomes visible to
		// appenders: once the index holds it, a concurrent Append may enqueue
		// a live message, and replayed history must still sort first.
		backlog := s.backlogLocked(&filter, from)
		head := min(len(backlog), subBuffer)
		for _, msg := range backlog[:head] {
			sub.ch <- msg // C is empty and holds subBuffer messages
		}
		s.stats.deliveries.Add(int64(head))
		if len(backlog) > head {
			sub.pending = backlog[head:]
			sub.startDrain()
		}
	}
	s.fileLocked(sub)
	return sub
}

// backlogLocked returns copies of the existing messages at offset >= from of
// their stream that match filter, in global timestamp order; caller holds
// s.mu. A stream-scoped filter reads only the suffixes of the streams it
// names; only a filter that names none sweeps the store.
func (s *Store) backlogLocked(filter *Filter, from int64) []Message {
	scan := s.order
	if names := filter.Streams; len(names) > 0 {
		var room [4]*stream
		scan = room[:0]
		for i, id := range names {
			if st, ok := s.streams[id]; ok && !slices.Contains(names[:i], id) { // present, and named first here
				scan = append(scan, st)
			}
		}
	}
	var backlog []Message
	scanned := 0
	for _, st := range scan {
		lo := max(from, int64(st.msgs.Start())) // a released offset starts at the first kept
		if lo >= int64(st.msgs.Len()) {
			continue // nothing at or past from
		}
		scanned++
		for c := range st.msgs.Chunks(int(lo), st.msgs.Len()) {
			for j := range c {
				if filter.Matches(&c[j]) {
					backlog = append(backlog, c[j].Clone())
				}
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

// enqueue delivers msg: straight into C when nothing is queued ahead of it
// and C has room, else behind the queue, starting the drain if none is live.
// The send is non-blocking and made under sub.mu, which is what lets stop
// close C without a sender on it.
func (sub *Subscription) enqueue(msg Message) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.stopped {
		return
	}
	if sub.done == nil {
		select {
		case sub.ch <- msg:
			sub.store.stats.deliveries.Add(1)
			return
		default:
		}
		sub.startDrain()
	}
	sub.pending = append(sub.pending, msg)
}

// startDrain hands a drain to the store's pool; caller holds sub.mu (or is the
// only one that can reach sub) and has seen that none is live.
func (sub *Subscription) startDrain() {
	quit, done := make(chan struct{}), make(chan struct{})
	sub.quit, sub.done = quit, done
	sub.store.Go(func() { sub.drain(quit, done) })
}

// stop ends delivery and closes C, once, and returns when no drain of the
// subscription is left. With no drain live every send happens under sub.mu,
// so C is closed here; a live drain is the only sender left once stopped is
// set, and closes C itself on its way out.
func (sub *Subscription) stop() {
	sub.mu.Lock()
	if !sub.stopped {
		sub.stopped = true
		sub.pending = nil
		if sub.done == nil {
			close(sub.ch)
		} else {
			close(sub.quit)
		}
	}
	done := sub.done
	sub.mu.Unlock()
	if done != nil {
		<-done
	}
}

// drain moves what overflowed C into it, in order, and returns once pending is
// empty (the next overflow starts another) or the subscription is stopped.
func (sub *Subscription) drain(quit <-chan struct{}, done chan<- struct{}) {
	defer close(done)
loop:
	for {
		sub.mu.Lock()
		if sub.stopped {
			sub.mu.Unlock()
			break
		}
		batch := sub.pending
		sub.pending = nil
		if len(batch) == 0 {
			sub.quit, sub.done = nil, nil
			sub.mu.Unlock()
			return
		}
		sub.mu.Unlock()

		for i := range batch {
			select {
			case sub.ch <- batch[i]:
				sub.store.stats.deliveries.Add(1)
			case <-quit:
				break loop
			}
		}
	}
	close(sub.ch) // stopped: stop left the close to the one sender still live
}
