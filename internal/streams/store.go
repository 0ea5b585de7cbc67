package streams

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"blueprint/internal/chunk"
	"blueprint/internal/clock"
	"blueprint/internal/durability"
	"blueprint/internal/obs"
)

// Common store errors.
var (
	ErrStreamExists   = errors.New("streams: stream already exists")
	ErrStreamNotFound = errors.New("streams: stream not found")
	ErrStreamClosed   = errors.New("streams: stream closed")
	ErrStoreClosed    = errors.New("streams: store closed")
)

// StreamInfo describes a stream as a first-class data resource.
type StreamInfo struct {
	// ID is the unique stream identifier.
	ID string `json:"id"`
	// Session is the owning session scope, if any.
	Session string `json:"session,omitempty"`
	// Tags label the stream itself (distinct from per-message tags).
	Tags []string `json:"tags,omitempty"`
	// Creator names the component that created the stream.
	Creator string `json:"creator,omitempty"`
	// Closed reports whether the stream received its EOS sentinel.
	Closed bool `json:"closed"`
	// Len is the number of messages appended so far.
	Len int64 `json:"len"`
	// Released is the number of leading messages the stream has let go of
	// (TagAsks): the Seq of the first message it keeps. Reads, replay,
	// History and Snapshot serve the messages from there on.
	Released int64 `json:"released,omitempty"`
	// CreatedTS is the logical timestamp of creation.
	CreatedTS int64 `json:"created_ts"`
}

// Stream tags the store acts on (StreamInfo.Tags).
const (
	// TagAsks marks an ask stream of its session scope, one message an ask:
	// a session's user stream (an utterance an ask) and its event stream (a
	// click an ask). The scope's horizon is the latest of the TSs of the
	// messages obs.KeptAsks back on its ask streams, counting those that
	// hold that many, so at least the scope's last KeptAsks asks lie at or
	// past it; every stream of the scope, its ask streams included, lets go
	// of its chunks that lie wholly before the horizon.
	TagAsks = "asks"
	// TagKeepAll marks a stream that lets go of nothing, in a scope with an
	// ask stream (a session's membership records).
	TagKeepAll = "keep-all"
)

type stream struct {
	info StreamInfo
	msgs chunk.Log[Message] // grows by chunks: an Append never copies history
}

// Store is an embedded streams database: it owns every stream, delivers
// messages to subscribers, tracks statistics and optionally persists through
// a durability sink (SetDurable). It also owns the pool of long-lived workers
// that runs the hand-offs of the components built over it (Go). All methods
// are safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	streams map[string]*stream
	order   []*stream            // creation order, for deterministic listing
	anchors map[string][]*stream // session scope -> its ask streams (TagAsks)
	lastTS  int64                // logical timestamp of the last mutation; guarded by mu
	closed  bool

	// The routing index (route.go): every live subscription is filed under
	// exactly one class — a scoped one also under each session scope it has
	// joined — so Append consults only the buckets its message can reach.
	byStream  map[string][]*Subscription // filed under each Filter.Streams id
	bySession map[string][]*Subscription // else under the Filter.Session scope, or each scope joined
	unscoped  []*Subscription            // else here
	scoped    []*Subscription            // every SubscribeScoped one, joined anywhere or not

	// sink is the shared durability engine's append (SetDurable); nil when
	// the store is not persisted. It is stored under mu and loaded without
	// it, so a producer can encode its part of a record before the lock.
	sink atomic.Pointer[func(payload []byte) error]

	stats counters
	pool  pool         // the workers behind Go (pool.go)
	clk   *clock.Clock // the clock of everything built over the store (SetClock)
}

// NewStore creates an empty streams database.
func NewStore() *Store {
	return &Store{
		streams:   make(map[string]*stream),
		anchors:   make(map[string][]*stream),
		byStream:  make(map[string][]*Subscription),
		bySession: make(map[string][]*Subscription),
		pool:      pool{tasks: make(chan func()), quit: make(chan struct{})},
	}
}

// SetClock puts the store on clk: its pool's idle workers, and the agents,
// sessions and coordinator built over it, read it. Call it before the first
// use, as SetDurable.
func (s *Store) SetClock(clk *clock.Clock) { s.clk = clk }

// Clock is the clock the store runs on (nil, the real clock, unless SetClock
// was called).
func (s *Store) Clock() *clock.Clock { return s.clk }

// Close shuts the store down: all subscriptions are cancelled, then the pool's
// parked workers exit. Appends after Close fail with ErrStoreClosed; a Go
// after Close still runs its task. The durability sink belongs to its engine,
// which is flushed and closed by its owner.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	subs := s.unfileAllLocked()
	s.mu.Unlock()

	for _, sub := range subs {
		sub.stop()
	}
	close(s.pool.quit)
	return nil
}

// CreateStream registers a new stream. Creating an existing id fails with
// ErrStreamExists. The creation is logged before it is registered: when the
// durability sink fails, the store is unchanged and a retry can succeed.
func (s *Store) CreateStream(id string, info StreamInfo) (StreamInfo, error) {
	info.ID = id
	var sc *scratch
	if s.sink.Load() != nil {
		sc = getScratch()
		defer sc.release()
		sc.body = appendCreateHead(sc.body[:0], &info)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return StreamInfo{}, ErrStoreClosed
	}
	if _, ok := s.streams[id]; ok {
		return StreamInfo{}, fmt.Errorf("%w: %s", ErrStreamExists, id)
	}
	info.Closed = false
	info.Len = 0
	info.CreatedTS = s.lastTS + 1
	if log := s.sink.Load(); log != nil {
		if sc == nil { // attached since the first look
			sc = getScratch()
			defer sc.release()
			sc.body = appendCreateHead(sc.body[:0], &info)
		}
		sc.body = durability.AppendUvarint(sc.body, uint64(info.CreatedTS))
		if err := (*log)(sc.body); err != nil {
			return StreamInfo{}, err
		}
	}
	s.lastTS = info.CreatedTS
	s.addLocked(info)
	return info, nil
}

// addLocked registers a new stream, an ask stream among its scope's too.
// Caller holds s.mu.
func (s *Store) addLocked(info StreamInfo) {
	st := &stream{info: info}
	if info.Session != "" && slices.Contains(info.Tags, TagAsks) {
		s.anchors[info.Session] = append(s.anchors[info.Session], st)
	}
	s.streams[info.ID] = st
	s.order = append(s.order, st)
	s.stats.streamsCreated.Add(1)
}

// releaseLocked lets st go of its leading chunks that lie wholly before
// its scope's horizon (TagAsks), unless st keeps all. It runs on every
// Append and costs a map lookup, a position lookup on each ask stream and
// on st, and a compare, so the chunks kept before the horizon are never
// more than one. Caller holds s.mu.
func (s *Store) releaseLocked(st *stream) {
	asks := s.anchors[st.info.Session]
	if len(asks) == 0 || slices.Contains(st.info.Tags, TagKeepAll) {
		return
	}
	var horizon int64 // 0 while no ask stream holds obs.KeptAsks messages
	for _, a := range asks {
		if i := a.msgs.Len() - obs.KeptAsks; i >= a.msgs.Start() {
			horizon = max(horizon, a.msgs.At(i).TS)
		}
	}
	for horizon > 0 {
		head, at := st.msgs.Head(), st.msgs.Start()
		if len(head) == 0 || head[len(head)-1].TS >= horizon {
			return
		}
		if st.msgs.Release(at + len(head)); st.msgs.Start() == at {
			return // the head is the last chunk, still filling
		}
		st.info.Released = int64(st.msgs.Start())
	}
}

// EnsureStream creates the stream if absent and returns its info. The usual
// call finds the stream there (every Publish ensures its stream), so it is
// looked up under the read lock first.
func (s *Store) EnsureStream(id string, info StreamInfo) (StreamInfo, error) {
	s.mu.RLock()
	st, ok := s.streams[id]
	if s.closed {
		s.mu.RUnlock()
		return StreamInfo{}, ErrStoreClosed
	}
	if ok {
		got := st.info
		s.mu.RUnlock()
		return got, nil
	}
	s.mu.RUnlock()
	got, err := s.CreateStream(id, info)
	if errors.Is(err, ErrStreamExists) {
		return s.Info(id)
	}
	return got, err
}

// Info returns the metadata of a stream.
func (s *Store) Info(id string) (StreamInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.streams[id]
	if !ok {
		return StreamInfo{}, fmt.Errorf("%w: %s", ErrStreamNotFound, id)
	}
	return st.info, nil
}

// List returns info for every stream, in creation order, optionally
// restricted to a session scope (empty session = all).
func (s *Store) List(session string) []StreamInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]StreamInfo, 0, len(s.order))
	for _, st := range s.order {
		if session != "" && !scopeContains(session, st.info.Session) {
			continue
		}
		out = append(out, st.info)
	}
	return out
}

// Append writes msg to the stream named by msg.Stream, assigning Seq and TS
// and stamping the stream's session, and delivers it to matching
// subscribers. The stream must exist and be open. The stored message (with
// assigned fields) is returned. The message is logged before it is stored:
// when the durability sink fails, nothing is stored, counted or delivered,
// and the next Append takes the same Seq.
func (s *Store) Append(msg Message) (Message, error) {
	// What the producer handed in is encoded before the lock; only the
	// header the store assigns is written under it.
	var sc *scratch
	if s.sink.Load() != nil {
		sc = getScratch()
		defer sc.release()
		if err := sc.encodeBody(&msg); err != nil {
			return Message{}, err
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Message{}, ErrStoreClosed
	}
	st, ok := s.streams[msg.Stream]
	if !ok {
		s.mu.Unlock()
		return Message{}, fmt.Errorf("%w: %s", ErrStreamNotFound, msg.Stream)
	}
	if st.info.Closed {
		s.mu.Unlock()
		return Message{}, fmt.Errorf("%w: %s", ErrStreamClosed, msg.Stream)
	}
	// The stored message belongs to its stream's scope, and names its stream
	// and session with the stream's own strings, not the producer's.
	msg.Stream, msg.Session = st.info.ID, st.info.Session
	// Seq and TS are claimed only once the record is logged.
	msg.Seq = st.info.Len
	msg.TS = s.lastTS + 1
	if log := s.sink.Load(); log != nil {
		if sc == nil { // attached since the first look
			sc = getScratch()
			defer sc.release()
			if err := sc.encodeBody(&msg); err != nil {
				s.mu.Unlock()
				return Message{}, err
			}
		}
		sc.rec = append(appendHeader(sc.rec[:0], msg.Seq, msg.TS), sc.body...)
		if err := (*log)(sc.rec); err != nil {
			s.mu.Unlock()
			return Message{}, err
		}
	}
	s.lastTS = msg.TS
	st.msgs.Append(msg)
	st.info.Len++
	if msg.IsEOS() {
		st.info.Closed = true
	}
	s.releaseLocked(st)
	s.stats.countMessage(msg.Kind)
	var targetBuf [8]*Subscription // the usual fan-out fits; more spills to the heap
	targets := s.routeLocked(&msg, targetBuf[:0])
	s.mu.Unlock()

	for _, sub := range targets {
		sub.enqueue(msg)
	}
	return msg, nil
}

// Publish is a convenience wrapper creating the stream on demand and
// appending the message. msg.Session is the scope of a stream it creates;
// the stored message, as any Append's, carries its stream's.
func (s *Store) Publish(msg Message) (Message, error) {
	if _, err := s.EnsureStream(msg.Stream, StreamInfo{Session: msg.Session, Creator: msg.Sender}); err != nil {
		return Message{}, err
	}
	return s.Append(msg)
}

// CloseStream appends the EOS sentinel, after which appends fail.
func (s *Store) CloseStream(id, sender string) error {
	_, err := s.Append(Message{
		Stream:    id,
		Kind:      Control,
		Sender:    sender,
		Directive: &Directive{Op: OpEOS},
	})
	return err
}

// Drop forgets every stream whose session lies within scope, sub-scopes
// included: its messages leave memory, every later Snapshot and what
// recovery rebuilds. The drop is one log record, written before it is
// applied: when the durability sink fails, the store is unchanged. The
// logical clock keeps its high-water mark, so the process hands no dropped
// message's TS out again. A subscription every stream of whose
// Filter.Streams is dropped ends, as Cancel ends one, for nothing can come
// to it any more: a wait on a dropped stream returns at once. Any other
// subscription is left as it is; a stream of the scope created again starts
// empty.
func (s *Store) Drop(scope string) error {
	ended, err := s.drop(scope)
	for _, sub := range ended {
		sub.stop()
	}
	return err
}

// drop logs and applies a Drop, and unfiles the subscriptions it ends, which
// the caller stops once s.mu is released.
func (s *Store) drop(scope string) ([]*Subscription, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrStoreClosed
	}
	if log := s.sink.Load(); log != nil {
		sc := getScratch()
		defer sc.release()
		sc.rec = appendDrop(sc.rec[:0], scope)
		if err := (*log)(sc.rec); err != nil {
			return nil, err
		}
	}
	gone := s.dropLocked(scope)
	var ended []*Subscription
	for _, id := range gone {
		for _, sub := range slices.Clone(s.byStream[id]) { // unfiling edits the bucket
			if sub.filed && !slices.ContainsFunc(sub.filter.Streams, func(id string) bool { return !slices.Contains(gone, id) }) {
				s.unfileLocked(sub)
				ended = append(ended, sub)
			}
		}
	}
	return ended, nil
}

// dropLocked forgets the streams of scope and returns their ids; caller
// holds s.mu. Drop and the replay of its record share it.
func (s *Store) dropLocked(scope string) (gone []string) {
	s.order = slices.DeleteFunc(s.order, func(st *stream) bool {
		if !scopeContains(scope, st.info.Session) {
			return false
		}
		delete(s.streams, st.info.ID)
		delete(s.anchors, st.info.Session)
		gone = append(gone, st.info.ID)
		return true
	})
	return gone
}

// Read returns up to max messages of the stream starting at offset from
// (max <= 0 means no limit); a from the stream has released starts at the
// first message it keeps. Messages are copies; mutating them does not
// affect the store.
func (s *Store) Read(id string, from int64, max int) ([]Message, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.streams[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrStreamNotFound, id)
	}
	if start := int64(st.msgs.Start()); from < start {
		from = start
	}
	n := int64(st.msgs.Len())
	if from >= n {
		return nil, nil
	}
	to := n
	if max > 0 && int64(max) < n-from {
		to = from + int64(max)
	}
	out := make([]Message, 0, to-from)
	for c := range st.msgs.Chunks(int(from), int(to)) {
		for i := range c {
			out = append(out, c[i].Clone())
		}
	}
	return out, nil
}

// ReadAll returns every message of the stream.
func (s *Store) ReadAll(id string) ([]Message, error) {
	return s.Read(id, 0, 0)
}

// History returns every kept message of the streams whose session is within
// the given scope (empty scope = everything), ordered by global timestamp:
// the backlog a replaying subscription to the scope starts with. It is the
// basis for flow reconstruction (Figs. 9/10) and observability;
// StreamInfo.Released counts what each stream no longer holds.
func (s *Store) History(session string) []Message {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.backlogLocked(&Filter{Session: session}, 0)
}

// Stats is a snapshot of store counters for observability.
type Stats struct {
	StreamsCreated   int64
	MessagesAppended int64
	DataMessages     int64
	ControlMessages  int64
	EventMessages    int64
	// Subscriptions is the number of live subscriptions.
	Subscriptions int64
	// Deliveries counts messages handed to a subscriber's channel.
	Deliveries int64
}

// counters are the live values behind Stats. They are atomics so that the
// per-delivery count and StatsSnapshot never take the store lock.
type counters struct {
	streamsCreated   atomic.Int64
	messagesAppended atomic.Int64
	dataMessages     atomic.Int64
	controlMessages  atomic.Int64
	eventMessages    atomic.Int64
	subscriptions    atomic.Int64
	deliveries       atomic.Int64
}

func (c *counters) countMessage(k Kind) {
	c.messagesAppended.Add(1)
	switch k {
	case Control:
		c.controlMessages.Add(1)
	case Event:
		c.eventMessages.Add(1)
	default:
		c.dataMessages.Add(1)
	}
}

// StatsSnapshot returns current counters.
func (s *Store) StatsSnapshot() Stats {
	return Stats{
		StreamsCreated:   s.stats.streamsCreated.Load(),
		MessagesAppended: s.stats.messagesAppended.Load(),
		DataMessages:     s.stats.dataMessages.Load(),
		ControlMessages:  s.stats.controlMessages.Load(),
		EventMessages:    s.stats.eventMessages.Load(),
		Subscriptions:    s.stats.subscriptions.Load(),
		Deliveries:       s.stats.deliveries.Load(),
	}
}
