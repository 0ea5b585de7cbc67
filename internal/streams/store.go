package streams

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"blueprint/internal/durability"
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
	// CreatedTS is the logical timestamp of creation.
	CreatedTS int64 `json:"created_ts"`
}

type stream struct {
	info StreamInfo
	msgs []Message
}

// Store is an embedded streams database: it owns every stream, delivers
// messages to subscribers, tracks statistics and optionally persists through
// a durability sink (SetDurable). It also owns the pool of long-lived workers
// that runs the hand-offs of the components built over it (Go). All methods
// are safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	streams map[string]*stream
	order   []string // creation order, for deterministic listing
	clock   int64    // logical timestamp of the last mutation; guarded by mu
	nextMsg int64    // number of the last message id handed out; guarded by mu
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
	pool  pool // the workers behind Go (pool.go)
}

// NewStore creates an empty streams database.
func NewStore() *Store {
	return &Store{
		streams:   make(map[string]*stream),
		byStream:  make(map[string][]*Subscription),
		bySession: make(map[string][]*Subscription),
		pool:      pool{tasks: make(chan func()), quit: make(chan struct{})},
	}
}

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
	info.CreatedTS = s.clock + 1
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
	s.clock = info.CreatedTS
	s.streams[id] = &stream{info: info}
	s.order = append(s.order, id)
	s.stats.streamsCreated.Add(1)
	return info, nil
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
	for _, id := range s.order {
		st := s.streams[id]
		if session != "" && !scopeContains(session, st.info.Session) {
			continue
		}
		out = append(out, st.info)
	}
	return out
}

// Append writes msg to the stream named by msg.Stream, assigning ID, Seq and
// TS, and delivers it to matching subscribers. The stream must exist and be
// open. The stored message (with assigned fields) is returned. The message is
// logged before it is stored: when the durability sink fails, nothing is
// stored, counted or delivered, and the next Append takes the same Seq.
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
	if msg.Session == "" {
		msg.Session = st.info.Session
	}
	// Seq, TS and ID are claimed only once the record is logged.
	msg.Seq = st.info.Len
	msg.TS = s.clock + 1
	n := s.nextMsg + 1
	var idBuf [20]byte // 'm' + the 19 digits of the largest int64
	msg.ID = string(strconv.AppendInt(append(idBuf[:0], 'm'), n, 10))
	if log := s.sink.Load(); log != nil {
		if sc == nil { // attached since the first look
			sc = getScratch()
			defer sc.release()
			if err := sc.encodeBody(&msg); err != nil {
				s.mu.Unlock()
				return Message{}, err
			}
		}
		sc.rec = append(appendHeader(sc.rec[:0], msg.Seq, msg.TS, n, msg.Session), sc.body...)
		if err := (*log)(sc.rec); err != nil {
			s.mu.Unlock()
			return Message{}, err
		}
	}
	s.clock = msg.TS
	s.nextMsg = n
	st.msgs = append(st.msgs, msg)
	st.info.Len++
	if msg.IsEOS() {
		st.info.Closed = true
	}
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
// appending the message.
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

// Read returns up to max messages of the stream starting at offset from
// (max <= 0 means no limit). Messages are copies; mutating them does not
// affect the store.
func (s *Store) Read(id string, from int64, max int) ([]Message, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.streams[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrStreamNotFound, id)
	}
	if from < 0 {
		from = 0
	}
	if from >= int64(len(st.msgs)) {
		return nil, nil
	}
	msgs := st.msgs[from:]
	if max > 0 && max < len(msgs) {
		msgs = msgs[:max]
	}
	out := make([]Message, len(msgs))
	for i := range msgs {
		out[i] = msgs[i].Clone()
	}
	return out, nil
}

// ReadAll returns every message of the stream.
func (s *Store) ReadAll(id string) ([]Message, error) {
	return s.Read(id, 0, 0)
}

// History returns every message in the store whose session is within the
// given scope (empty scope = everything), ordered by global timestamp. It is
// the basis for flow reconstruction (Figs. 9/10) and observability.
func (s *Store) History(session string) []Message {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Message
	for _, id := range s.order {
		st := s.streams[id]
		for i := range st.msgs {
			m := &st.msgs[i]
			if session != "" && !scopeContains(session, m.Session) {
				continue
			}
			out = append(out, m.Clone())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
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
