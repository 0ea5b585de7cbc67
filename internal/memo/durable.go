package memo

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"blueprint/internal/durability"
)

// Durability: cacheable step results survive restarts. Every successful
// put (Do leader or Put) and every invalidation is appended to the shared
// WAL as one binary record, and Snapshot/Restore dump/load the resident
// entries, so a restarted coordinator answers repeated asks from memo
// instead of re-executing agents.
//
// Two properties keep the restored cache correct:
//
//   - Version checking: each logged entry carries the producing agent's
//     registry version at put time. Restore/replay drops entries whose
//     version no longer matches the restored registry (DurableConfig.
//     Validate), closing the gap where the registries recovered to an
//     older generation than the memo log.
//   - Replay idempotence: puts overwrite their key and invalidations are
//     monotone drops, so the engine may replay a record whose effect is
//     already in the restored snapshot. Invalidations are logged too:
//     relational replay re-fires data-asset bumps on its own, but
//     registry-driven agent invalidations exist only as memo records.
//
// Outputs are written by durability's value codec: a string, an int,
// int64, float64 or bool, a *planner.Plan and a *hragents.QueryRows
// restore as the value that was put; a generic map or slice goes through
// JSON and restores with JSON's types (numbers become float64). A log
// whose memo records are JSON, as they were written before the records
// were binary, does not recover: its first memo record is refused. A put
// logged while keys were 64 hex characters applies, under a key no lookup
// computes now: the same inputs miss and execute again, and the old entry
// ages out through the LRU.
type DurableConfig struct {
	// Append logs one record to the shared WAL (asynchronous, group
	// committed). Nil disables logging.
	Append func(payload []byte) error
	// AgentVersion reports the producing agent's current registry version
	// at put time (nil = version 0 recorded).
	AgentVersion func(agent string) int
	// Validate accepts a restored entry: typically "the restored registry
	// still has this agent, cacheable, at this version" (nil = accept
	// everything).
	Validate func(agent string, version int) bool
}

// SetDurable wires the store to the durability engine. Attach before
// recovery and before serving traffic.
func (s *Store) SetDurable(cfg DurableConfig) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dur = cfg
}

// Record types: the first byte of every record. Every record is
//
//	type Key Name
//
// with an empty Key and the agent's or source's name for an invalidation,
// and for a put Key the 32-byte sum ComputeKey made and the producing
// agent's name, then
//
//	Version Sources Expires Outputs Cost Latency
//
// with Expires in unix nanoseconds (0 = never), Outputs as
// durability.AppendValues writes them and Latency in nanoseconds. A
// snapshot is put records, each prefixed by its length; Apply and Restore
// share one decoder, which refuses a record it cannot read whole.
const (
	recPut              byte = 1
	recInvalidateAgent  byte = 2
	recInvalidateSource byte = 3
)

// appendPut encodes a put record of an entry.
func (s *Store) appendPut(b []byte, key Key, agent string, sources []string, expires time.Time, val Entry) ([]byte, error) {
	version := 0
	if s.dur.AgentVersion != nil {
		version = s.dur.AgentVersion(agent)
	}
	var exp int64
	if !expires.IsZero() {
		exp = expires.UnixNano()
	}
	b = durability.AppendString(append(b, recPut), string(key))
	b = durability.AppendString(b, agent)
	b = durability.AppendVarint(b, int64(version))
	b = durability.AppendStrings(b, sources)
	b = durability.AppendVarint(b, exp)
	b, err := durability.AppendValues(b, val.Outputs)
	if err != nil {
		return b, fmt.Errorf("memo: encode outputs: %w", err)
	}
	b = durability.AppendFloat(b, val.Cost)
	return durability.AppendVarint(b, int64(val.Latency)), nil
}

// logPutLocked appends a put record; caller holds s.mu. Outputs the value
// codec refuses are not logged.
func (s *Store) logPutLocked(key Key, agent string, sources []string, ttl time.Duration, val Entry) {
	if s.dur.Append == nil {
		return
	}
	var expires time.Time
	if ttl > 0 {
		expires = s.clk.Now().Add(ttl)
	}
	var err error
	if s.rec, err = s.appendPut(s.rec[:0], key, agent, sources, expires, val); err == nil {
		_ = s.dur.Append(s.rec)
	}
}

// logInvalidateLocked appends an invalidation record; caller holds s.mu.
func (s *Store) logInvalidateLocked(typ byte, name string) {
	if s.dur.Append != nil {
		s.rec = durability.AppendString(durability.AppendString(append(s.rec[:0], typ), ""), name)
		_ = s.dur.Append(s.rec)
	}
}

// load decodes one record, which must be all of rec, and applies it
// without re-logging; caller holds s.mu. A put counts as Restored only when
// it restored a NEW entry — a replayed put whose key the snapshot already
// covered overwrites in place (memo puts ride the idempotent Append path,
// so snapshot + log can both carry one).
func (s *Store) load(rec []byte) error {
	d := durability.NewDec(rec)
	typ := d.Byte()
	if d.Err() == nil && (typ < recPut || typ > recInvalidateSource) {
		return fmt.Errorf("memo: unknown record type %#x", typ)
	}
	key, name := Key(d.String()), d.String()
	if typ != recPut {
		if err := d.End(); err != nil {
			return fmt.Errorf("memo: record: %w", err)
		}
		if typ == recInvalidateAgent {
			s.invalidateAgentLocked(canonName(name))
		} else {
			s.invalidateSourceLocked(canonName(name))
		}
		return nil
	}
	version, sources, expires := int(d.Varint()), d.Strings(), d.Varint()
	val := Entry{Outputs: d.Values(), Cost: d.Float(), Latency: time.Duration(d.Varint())}
	switch err := d.End(); {
	case err != nil:
		return fmt.Errorf("memo: record: %w", err)
	case expires != 0 && !s.clk.Now().Before(time.Unix(0, expires)):
		return nil // expired while the process was down
	case s.dur.Validate != nil && !s.dur.Validate(name, version):
		return nil // stale against the restored registries
	}
	var ttl time.Duration
	if expires != 0 {
		ttl = s.clk.Until(time.Unix(0, expires))
	}
	if _, existed := s.entries[key]; !existed {
		s.stats.Restored++
	}
	s.putLocked(key, canonName(name), canonNames(sources), ttl, val)
	return nil
}

// Apply replays one WAL record. It implements durability.Loggable.
func (s *Store) Apply(rec []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.load(rec)
}

// Snapshot dumps the resident entries as put records, oldest first so a
// Restore rebuilds the same LRU recency order. It implements
// durability.Loggable.
func (s *Store) Snapshot(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	bw := bufio.NewWriterSize(w, 1<<16)
	var rec []byte
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		var err error
		if rec, err = s.appendPut(rec[:0], e.key, e.agent, e.sources, e.expires, e.val); err == nil {
			bw.Write(durability.AppendUvarint(nil, uint64(len(rec)))) // a write error sticks to bw and Flush returns it
			bw.Write(rec)
		} // else never logged either: not restored
	}
	return bw.Flush()
}

// Restore loads a Snapshot, validating each entry against the restored
// registries. It implements durability.Loggable.
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
			return fmt.Errorf("memo: snapshot: %w", d.Err())
		}
		if err := s.load(rec); err != nil {
			return fmt.Errorf("memo: snapshot: %w", err)
		}
	}
	return nil
}
