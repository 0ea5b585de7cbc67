package streams

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"blueprint/internal/durability"
)

// Durability: the store persists one way, through the shared durability
// engine's segmented, CRC-framed log; framing, rotation, group commit,
// snapshots, torn-tail truncation and recovery are the engine's, and one
// DataDir holds every subsystem. The store implements durability.Loggable
// (Apply, Snapshot, Restore) and logs through the sink SetDurable attaches.
//
// A record is a binary envelope written with durability's Append* helpers
// and read with its Dec:
//
//	create: recCreate ID Session Tags Creator CreatedTS
//	append: recAppend Seq TS n Session | Stream Kind Tags Sender Param payload directive
//
// An append record's header (before the bar) is what the store assigns
// under its lock — the message id is "m"+n — and is written there; its
// body is what the producer handed in, and is encoded before the lock is
// taken. A payload is nil, a string — its bytes, so it recovers byte for
// byte — or anything else as the bytes json.Marshal writes for it, which
// recovery decodes into an any (map[string]any, []any, float64, ...). A
// directive is Op, Agent and its Args as JSON. A snapshot is the same
// records, each prefixed by its length; Apply and Restore share one
// decoder, which refuses a record it cannot read whole.
//
// Replay is idempotent: append records carry their assigned Seq, so a
// record whose message is already present (because the snapshot covered
// it) is skipped — which is what lets the store log with a plain
// asynchronous Append instead of the engine's snapshot-atomic Log path. It
// needs the log in each stream's Seq order, so the sink is called under
// the store lock.

// Record types: the first byte of every record.
const (
	recCreate byte = 1
	recAppend byte = 2
)

// Payload tags.
const (
	payloadNil byte = iota
	payloadString
	payloadJSON
)

// scratch is the pair of buffers one record is built in: the producer's
// part, encoded before the store lock, and the record assembled under it.
// The sink copies what it keeps, so the buffers go back to the pool.
type scratch struct{ body, rec []byte }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func (sc *scratch) release() { scratchPool.Put(sc) }

// encodeBody encodes what the producer of m handed in.
func (sc *scratch) encodeBody(m *Message) (err error) {
	sc.body, err = appendBody(sc.body[:0], m)
	return err
}

// SetDurable attaches the shared-engine sink. Attach before serving
// traffic; CreateStream and Append then log every mutation through it. The
// sink is handed each record only for the duration of the call.
func (s *Store) SetDurable(log func(payload []byte) error) {
	// Under the lock, so an Append either stored its message before the
	// sink was attached or finds the sink there and logs.
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sink.Store(&log)
}

// appendCreateHead encodes a create record up to its CreatedTS, which the
// store assigns under its lock and appends last.
func appendCreateHead(b []byte, info *StreamInfo) []byte {
	b = append(b, recCreate)
	b = durability.AppendString(b, info.ID)
	b = durability.AppendString(b, info.Session)
	b = appendStrings(b, info.Tags)
	return durability.AppendString(b, info.Creator)
}

// appendHeader encodes an append record's header.
func appendHeader(b []byte, seq, ts, n int64, session string) []byte {
	b = append(b, recAppend)
	b = durability.AppendUvarint(b, uint64(seq))
	b = durability.AppendUvarint(b, uint64(ts))
	b = durability.AppendUvarint(b, uint64(n))
	return durability.AppendString(b, session)
}

// appendBody encodes an append record's body. It fails only on a payload
// or directive Args that encoding/json refuses.
func appendBody(b []byte, m *Message) ([]byte, error) {
	b = durability.AppendString(b, m.Stream)
	b = durability.AppendVarint(b, int64(m.Kind))
	b = appendStrings(b, m.Tags)
	b = durability.AppendString(b, m.Sender)
	b = durability.AppendString(b, m.Param)
	var err error
	switch p := m.Payload.(type) {
	case nil:
		b = append(b, payloadNil)
	case string:
		b = durability.AppendString(append(b, payloadString), p)
	default:
		if b, err = appendJSON(append(b, payloadJSON), p); err != nil {
			return b, fmt.Errorf("streams: encode payload: %w", err)
		}
	}
	d := m.Directive
	if d == nil {
		return append(b, 0), nil
	}
	b = durability.AppendString(append(b, 1), d.Op)
	b = durability.AppendString(b, d.Agent)
	if len(d.Args) == 0 {
		return durability.AppendUvarint(b, 0), nil
	}
	if b, err = appendJSON(b, d.Args); err != nil {
		return b, fmt.Errorf("streams: encode directive args: %w", err)
	}
	return b, nil
}

// appendMessageRecord encodes a stored message's whole append record.
func appendMessageRecord(b []byte, m *Message) ([]byte, error) {
	digits, ok := strings.CutPrefix(m.ID, "m")
	n, err := strconv.ParseInt(digits, 10, 64)
	if !ok || err != nil {
		return b, fmt.Errorf("streams: message id %q is not m<n>", m.ID)
	}
	return appendBody(appendHeader(b, m.Seq, m.TS, n, m.Session), m)
}

func appendStrings(b []byte, ss []string) []byte {
	b = durability.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = durability.AppendString(b, s)
	}
	return b
}

func appendJSON(b []byte, v any) ([]byte, error) {
	js, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	return append(durability.AppendUvarint(b, uint64(len(js))), js...), nil
}

// record is one decoded log record: a stream creation (info) or a message
// (msg, whose id is "m"+n).
type record struct {
	typ  byte
	info StreamInfo
	msg  Message
	n    int64
}

// decodeRecord reads one record, which must be all of rec.
func decodeRecord(rec []byte) (record, error) {
	var r record
	d := durability.NewDec(rec)
	var err error
	switch r.typ = d.Byte(); r.typ {
	case recCreate:
		r.info.ID = d.String()
		r.info.Session = d.String()
		r.info.Tags = decodeStrings(d)
		r.info.Creator = d.String()
		r.info.CreatedTS = int64(d.Uvarint())
	case recAppend:
		m := &r.msg
		m.Seq = int64(d.Uvarint())
		m.TS = int64(d.Uvarint())
		r.n = int64(d.Uvarint())
		m.ID = "m" + strconv.FormatInt(r.n, 10)
		m.Session = d.String()
		m.Stream = d.String()
		m.Kind = Kind(d.Varint())
		m.Tags = decodeStrings(d)
		m.Sender = d.String()
		m.Param = d.String()
		if m.Payload, err = decodePayload(d); err == nil {
			m.Directive, err = decodeDirective(d)
		}
	default:
		if d.Err() == nil {
			return r, fmt.Errorf("streams: unknown record type %#x", r.typ)
		}
	}
	switch {
	case d.Err() != nil:
		return r, fmt.Errorf("streams: record: %w", d.Err())
	case err != nil:
		return r, err
	case d.Len() != 0:
		return r, fmt.Errorf("streams: %d bytes after the record", d.Len())
	}
	return r, nil
}

func decodeStrings(d *durability.Dec) []string {
	n := d.Count()
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.String()
	}
	return out
}

func decodePayload(d *durability.Dec) (any, error) {
	switch tag := d.Byte(); tag {
	case payloadNil:
		return nil, nil
	case payloadString:
		return d.String(), nil
	case payloadJSON:
		var v any
		if err := json.Unmarshal(d.Bytes(), &v); err != nil && d.Err() == nil {
			return nil, fmt.Errorf("streams: decode payload: %w", err)
		}
		return v, nil
	default:
		return nil, fmt.Errorf("streams: unknown payload tag %#x", tag)
	}
}

func decodeDirective(d *durability.Dec) (*Directive, error) {
	switch present := d.Byte(); present {
	case 0:
		return nil, nil
	case 1:
	default:
		return nil, fmt.Errorf("streams: unknown directive tag %#x", present)
	}
	dir := &Directive{Op: d.String(), Agent: d.String()}
	if args := d.Bytes(); len(args) > 0 {
		if err := json.Unmarshal(args, &dir.Args); err != nil {
			return nil, fmt.Errorf("streams: decode directive args: %w", err)
		}
	}
	return dir, nil
}

// applyLocked loads one decoded record into the store, idempotently; caller
// holds s.mu. Engine replay (Apply) and snapshot load (Restore) share it.
func (s *Store) applyLocked(r *record) {
	switch r.typ {
	case recCreate:
		info := r.info
		if _, ok := s.streams[info.ID]; ok {
			return // already present (snapshot covered it)
		}
		s.streams[info.ID] = &stream{info: info}
		s.order = append(s.order, info.ID)
		s.stats.streamsCreated.Add(1)
		if info.CreatedTS > s.lastTS {
			s.lastTS = info.CreatedTS
		}
	case recAppend:
		m := r.msg
		st, ok := s.streams[m.Stream]
		if !ok {
			return
		}
		if m.Seq < st.info.Len {
			return // already present (snapshot covered it)
		}
		m.Seq = st.info.Len
		st.msgs = append(st.msgs, m)
		st.info.Len++
		if m.IsEOS() {
			st.info.Closed = true
		}
		s.stats.countMessage(m.Kind)
		if m.TS > s.lastTS {
			s.lastTS = m.TS
		}
		if r.n > s.nextMsg {
			s.nextMsg = r.n
		}
	}
}

// Apply replays one engine log record. It implements durability.Loggable.
func (s *Store) Apply(rec []byte) error {
	r, err := decodeRecord(rec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applyLocked(&r)
	return nil
}

// Snapshot serializes every stream and message as a replayable record
// sequence, each record prefixed by its length. It implements
// durability.Loggable.
func (s *Store) Snapshot(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	bw := bufio.NewWriterSize(w, 1<<16)
	var rec, prefix []byte
	put := func() {
		prefix = durability.AppendUvarint(prefix[:0], uint64(len(rec)))
		bw.Write(prefix) // a write error sticks to bw and Flush returns it
		bw.Write(rec)
	}
	for _, id := range s.order {
		st := s.streams[id]
		rec = durability.AppendUvarint(appendCreateHead(rec[:0], &st.info), uint64(st.info.CreatedTS))
		put()
		for i := range st.msgs {
			var err error
			if rec, err = appendMessageRecord(rec[:0], &st.msgs[i]); err != nil {
				return err
			}
			put()
		}
	}
	return bw.Flush()
}

// Restore loads a Snapshot into the (fresh) store. It implements
// durability.Loggable.
func (s *Store) Restore(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for d := durability.NewDec(data); d.Len() > 0; {
		rec := d.Bytes()
		if d.Err() != nil {
			return fmt.Errorf("streams: snapshot: %w", d.Err())
		}
		r, err := decodeRecord(rec)
		if err != nil {
			return fmt.Errorf("streams: snapshot: %w", err)
		}
		s.applyLocked(&r)
	}
	return nil
}
