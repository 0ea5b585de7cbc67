package streams

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Durability: the store persists one way, through the shared durability
// engine's segmented, CRC-framed log. The record bodies are JSON documents
// (walRecord); framing, rotation, group commit, snapshots, torn-tail
// truncation and recovery are the engine's, and one DataDir holds every
// subsystem. The store implements durability.Loggable (Apply, Snapshot,
// Restore) and logs through the sink SetDurable attaches.
//
// Replay is idempotent: append records carry their assigned Seq, so a
// record whose message is already present (because the snapshot covered
// it) is skipped — which is what lets the store log with a plain
// asynchronous Append instead of the engine's snapshot-atomic Log path.

// walRecord is the body of one log record and one line of a snapshot.
type walRecord struct {
	// Type is "create" for stream creation or "append" for a message.
	Type   string      `json:"t"`
	Stream *StreamInfo `json:"stream,omitempty"`
	Msg    *Message    `json:"msg,omitempty"`
}

// SetDurable attaches the shared-engine sink. Attach before serving
// traffic; CreateStream and Append then log every mutation through it.
func (s *Store) SetDurable(log func(payload []byte) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sink = log
}

// logRecordLocked marshals and appends one record; caller holds s.mu.
func (s *Store) logRecordLocked(rec walRecord) error {
	if s.sink == nil {
		return nil
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("streams: encode wal record: %w", err)
	}
	return s.sink(b)
}

// applyRecordLocked loads one WAL record into the store, idempotently;
// caller holds s.mu. Shared by engine replay (Apply) and snapshot load
// (Restore).
func (s *Store) applyRecordLocked(rec walRecord) {
	switch rec.Type {
	case "create":
		if rec.Stream == nil {
			return
		}
		info := *rec.Stream
		if _, ok := s.streams[info.ID]; ok {
			return // already present (snapshot covered it)
		}
		st := &stream{info: info}
		st.info.Len = 0
		st.info.Closed = false
		s.streams[info.ID] = st
		s.order = append(s.order, info.ID)
		s.stats.streamsCreated.Add(1)
		if info.CreatedTS > s.clock {
			s.clock = info.CreatedTS
		}
	case "append":
		if rec.Msg == nil {
			return
		}
		m := *rec.Msg
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
		if m.TS > s.clock {
			s.clock = m.TS
		}
		var n int64
		if _, err := fmt.Sscanf(m.ID, "m%d", &n); err == nil && n > s.nextMsg {
			s.nextMsg = n
		}
	}
}

// Apply replays one engine log record. It implements durability.Loggable.
func (s *Store) Apply(rec []byte) error {
	var r walRecord
	if err := json.Unmarshal(rec, &r); err != nil {
		return fmt.Errorf("streams: decode wal record: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applyRecordLocked(r)
	return nil
}

// Snapshot serializes every stream and message as a replayable record
// sequence. It implements durability.Loggable.
func (s *Store) Snapshot(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	for _, id := range s.order {
		st := s.streams[id]
		info := st.info
		if err := enc.Encode(walRecord{Type: "create", Stream: &info}); err != nil {
			return err
		}
		for i := range st.msgs {
			if err := enc.Encode(walRecord{Type: "append", Msg: &st.msgs[i]}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Restore loads a Snapshot into the (fresh) store. It implements
// durability.Loggable.
func (s *Store) Restore(r io.Reader) error {
	dec := json.NewDecoder(bufio.NewReaderSize(r, 1<<16))
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		var rec walRecord
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("streams: decode snapshot: %w", err)
		}
		s.applyRecordLocked(rec)
	}
}
