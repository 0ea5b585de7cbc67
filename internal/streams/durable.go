package streams

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"time"

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
//	create:  recCreate ID Session Tags Creator CreatedTS
//	message: recMessage Seq TS | Stream Kind Tags Sender Param payload directive
//	drop:    recDrop Scope
//	release: recRelease ID Released
//
// A message record's header (before the bar) is what the store assigns
// under its lock, and is written there; its body is what the producer
// handed in, and is encoded before the lock is taken. A message's session
// is not in it: replay takes the stream's, from its create record, as
// Append stamps it. The Param slot is written empty: a message names its
// parameter by its first tag, and an older record's Param is read and
// dropped. A log written before messages lost their ids holds append
// records instead,
//
//	append:  recAppend Seq TS n Session | body
//
// which replay as message records: the message number n and the session
// are read and dropped. A payload is written by durability's value codec
// (durability.AppendValue): nil, a string, an int, int64, float64 or bool,
// and a registered type (a *planner.Plan, a *hragents.QueryRows) recover
// as the Go value that was logged, a string byte for byte; anything else
// goes through encoding/json and recovers with JSON's types
// (map[string]any, []any, float64, ...). A directive is the byte 0 for
// none, or
//
//	dirTyped Op Agent Invocation Inputs ReplyStream Parent Deadline Outputs Cost Accuracy Latency Error Reason
//
// with strings and integers as themselves and floats as their bits, so each
// recovers exactly, and Inputs and Outputs as durability.AppendValues writes
// them, a nil map and an empty one apart. The ReplyStream and Reason slots
// are written empty: an older record's ReplyStream is read and dropped, and
// its Reason, an ABORT's, is read into Error. A directive under the tag 1
// (Op, Agent and a JSON args map) or 2 (the typed fields behind a mask of
// those not zero), as logs held them before, is refused by name. A
// snapshot is the same records, each prefixed by its length; Apply and
// Restore share one decoder, which refuses a record it cannot read whole.
//
// Replay is idempotent: message records carry their assigned Seq, so a
// record whose message is already present (because the snapshot covered
// it) is skipped — which is what lets the store log with a plain
// asynchronous Append instead of the engine's snapshot-atomic Log path. It
// needs the log in each stream's Seq order, so the sink is called under
// the store lock. A drop record is what keeps that rule sound when a scope
// is dropped and its stream ids are created again, Seq restarting at 0:
// replay forgets everything of the scope that came before the drop, the
// snapshot's copy of a later incarnation included, and rebuilds it from the
// records that follow.
//
// A stream's release of its chunks before its scope's horizon (TagAsks) is
// not logged. Log replay re-derives it: each replayed append runs the same
// rule against the ask stream as replayed so far, which holds what the live
// one held at that append, so a replayed stream lets go of what the live one
// did. A snapshot holds only what is kept: after a stream's create record, a
// release record says how many leading messages it had let go of, and
// loading a snapshot applies no rule of its own, so the store it rebuilds
// is the one the snapshot was taken of.

// Record types: the first byte of every record.
const (
	recCreate  byte = 1
	recAppend  byte = 2 // no longer written: a message record with its id and session
	recDrop    byte = 3
	recRelease byte = 4 // written only in a snapshot
	recMessage byte = 5
)

// dirTyped opens a directive: its typed fields follow, each written in the
// order Directive declares them.
const dirTyped byte = 3

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
	b = durability.AppendStrings(b, info.Tags)
	return durability.AppendString(b, info.Creator)
}

// appendDrop encodes a drop record.
func appendDrop(b []byte, scope string) []byte {
	return durability.AppendString(append(b, recDrop), scope)
}

// appendHeader encodes a message record's header.
func appendHeader(b []byte, seq, ts int64) []byte {
	b = durability.AppendUvarint(append(b, recMessage), uint64(seq))
	return durability.AppendUvarint(b, uint64(ts))
}

// appendBody encodes a message record's body. It fails only on a payload,
// input or output value the value codec refuses.
func appendBody(b []byte, m *Message) ([]byte, error) {
	b = durability.AppendString(b, m.Stream)
	b = durability.AppendVarint(b, int64(m.Kind))
	b = durability.AppendStrings(b, m.Tags)
	b = durability.AppendString(b, m.Sender)
	b = durability.AppendString(b, "") // Param
	b, err := durability.AppendValue(b, m.Payload)
	if err != nil {
		return b, fmt.Errorf("streams: encode payload: %w", err)
	}
	return appendDirective(b, m.Directive)
}

// appendDirective encodes a message's directive, or its absence.
func appendDirective(b []byte, d *Directive) ([]byte, error) {
	if d == nil {
		return append(b, 0), nil
	}
	b = durability.AppendString(append(b, dirTyped), d.Op)
	b = durability.AppendString(b, d.Agent)
	b = durability.AppendString(b, d.Invocation)
	b, err := durability.AppendValues(b, d.Inputs)
	if err != nil {
		return b, fmt.Errorf("streams: encode directive inputs: %w", err)
	}
	b = durability.AppendString(b, "") // ReplyStream
	b = durability.AppendUvarint(b, d.Parent)
	b = durability.AppendVarint(b, d.Deadline)
	if b, err = durability.AppendValues(b, d.Outputs); err != nil {
		return b, fmt.Errorf("streams: encode directive outputs: %w", err)
	}
	b = durability.AppendFloat(b, d.Cost)
	b = durability.AppendFloat(b, d.Accuracy)
	b = durability.AppendVarint(b, int64(d.Latency))
	b = durability.AppendString(b, d.Error)
	return durability.AppendString(b, ""), nil // Reason
}

// appendMessageRecord encodes a stored message's whole record.
func appendMessageRecord(b []byte, m *Message) ([]byte, error) {
	return appendBody(appendHeader(b, m.Seq, m.TS), m)
}

// record is one decoded log record: a stream creation (info), a message
// (msg, its session left to its stream's; an append record decodes as
// one), a drop (scope) or a release (info.ID, info.Released).
type record struct {
	typ   byte
	info  StreamInfo
	msg   Message
	scope string
}

// decodeRecord reads one record, which must be all of rec.
func decodeRecord(rec []byte) (record, error) {
	var r record
	d := durability.NewDec(rec)
	switch r.typ = d.Byte(); r.typ {
	case recCreate:
		r.info.ID = d.String()
		r.info.Session = d.String()
		r.info.Tags = d.Strings()
		r.info.Creator = d.String()
		r.info.CreatedTS = int64(d.Uvarint())
	case recMessage, recAppend:
		m := &r.msg
		m.Seq = int64(d.Uvarint())
		m.TS = int64(d.Uvarint())
		if r.typ == recAppend {
			d.Uvarint() // the message number
			d.Bytes()   // the session: the stream's is taken
			r.typ = recMessage
		}
		m.Stream = d.String()
		m.Kind = Kind(d.Varint())
		m.Tags = d.Strings()
		m.Sender = d.String()
		d.Bytes() // Param: the first tag names it
		m.Payload = d.Value()
		m.Directive = decodeDirective(d)
	case recDrop:
		r.scope = d.String()
	case recRelease:
		r.info.ID = d.String()
		r.info.Released = int64(d.Uvarint())
	default:
		if d.Err() == nil {
			return r, fmt.Errorf("streams: unknown record type %#x", r.typ)
		}
	}
	if err := d.End(); err != nil {
		return r, fmt.Errorf("streams: record: %w", err)
	}
	return r, nil
}

func decodeDirective(d *durability.Dec) *Directive {
	switch tag := d.Byte(); tag {
	case 0:
		return nil
	case dirTyped:
		dir := &Directive{Op: d.String(), Agent: d.String(), Invocation: d.String(), Inputs: d.Values()}
		d.Bytes() // ReplyStream
		dir.Parent, dir.Deadline, dir.Outputs = d.Uvarint(), d.Varint(), d.Values()
		dir.Cost, dir.Accuracy, dir.Latency, dir.Error = d.Float(), d.Float(), time.Duration(d.Varint()), d.String()
		if reason := d.String(); dir.Error == "" {
			dir.Error = reason // an older ABORT's Reason
		}
		return dir
	default:
		d.Failf("streams: unknown directive tag %#x", tag)
		return nil
	}
}

// applyLocked loads one decoded record into the store, idempotently; caller
// holds s.mu. Engine replay (Apply) and snapshot load (Restore) share it;
// replay, and only replay, runs the release rule after an append.
func (s *Store) applyLocked(r *record, replay bool) {
	switch r.typ {
	case recCreate:
		info := r.info
		if _, ok := s.streams[info.ID]; ok {
			return // already present (snapshot covered it)
		}
		s.addLocked(info)
		if info.CreatedTS > s.lastTS {
			s.lastTS = info.CreatedTS
		}
	case recMessage:
		m := r.msg
		st, ok := s.streams[m.Stream]
		if !ok {
			return
		}
		if m.Seq < st.info.Len {
			return // already present (snapshot covered it)
		}
		m.Stream, m.Session = st.info.ID, st.info.Session // as Append stamps them
		m.Seq = st.info.Len
		st.msgs.Append(m)
		st.info.Len++
		if m.IsEOS() {
			st.info.Closed = true
		}
		if replay {
			s.releaseLocked(st)
		}
		s.stats.countMessage(m.Kind)
		if m.TS > s.lastTS {
			s.lastTS = m.TS
		}
	case recDrop:
		s.dropLocked(r.scope)
	case recRelease: // follows its stream's create record, before its messages
		if st, ok := s.streams[r.info.ID]; ok {
			st.msgs.Skip(int(r.info.Released))
			st.info.Len = int64(st.msgs.Len())
			st.info.Released = int64(st.msgs.Start())
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
	s.applyLocked(&r, true)
	return nil
}

// Snapshot serializes every stream and the messages it keeps as a
// replayable record sequence, each record prefixed by its length. It
// implements durability.Loggable.
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
	for _, st := range s.order {
		rec = durability.AppendUvarint(appendCreateHead(rec[:0], &st.info), uint64(st.info.CreatedTS))
		put()
		if start := st.msgs.Start(); start > 0 {
			rec = durability.AppendString(append(rec[:0], recRelease), st.info.ID)
			rec = durability.AppendUvarint(rec, uint64(start))
			put()
		}
		for c := range st.msgs.Chunks(st.msgs.Start(), st.msgs.Len()) {
			for i := range c {
				var err error
				if rec, err = appendMessageRecord(rec[:0], &c[i]); err != nil {
					return err
				}
				put()
			}
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
		s.applyLocked(&r, false)
	}
	return nil
}
