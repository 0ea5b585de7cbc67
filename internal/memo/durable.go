package memo

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"
)

// Durability: cacheable step results survive restarts. Every successful
// put (Do leader or Put) and every invalidation is appended to the shared
// WAL as one JSON record, and Snapshot/Restore dump/load the resident
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
// Outputs round-trip through JSON: they are content-hashed through JSON
// at key time already, so anything cacheable is JSON-encodable, but
// restored values carry JSON's types (numbers become float64).
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

// Record ops.
const (
	opPut              = "put"
	opInvalidateAgent  = "inv-agent"
	opInvalidateSource = "inv-source"
)

// durRecord is the WAL/snapshot record (one JSON object per record).
type durRecord struct {
	Op string `json:"op"`
	// Put fields.
	Key     Key            `json:"key,omitempty"`
	Agent   string         `json:"agent,omitempty"`
	Version int            `json:"version,omitempty"`
	Sources []string       `json:"sources,omitempty"`
	Expires int64          `json:"expires,omitempty"` // unix nanos; 0 = never
	Outputs map[string]any `json:"outputs,omitempty"`
	Cost    float64        `json:"cost,omitempty"`
	Latency int64          `json:"latency,omitempty"` // nanoseconds
	// Invalidation field.
	Name string `json:"name,omitempty"`
}

// logPutLocked appends a put record; caller holds s.mu.
func (s *Store) logPutLocked(key Key, agent string, sources []string, ttl time.Duration, val Entry) {
	if s.dur.Append == nil {
		return
	}
	rec := durRecord{
		Op: opPut, Key: key, Agent: agent, Sources: sources,
		Outputs: val.Outputs, Cost: val.Cost, Latency: int64(val.Latency),
	}
	if s.dur.AgentVersion != nil {
		rec.Version = s.dur.AgentVersion(agent)
	}
	if ttl > 0 {
		rec.Expires = s.clk.Now().Add(ttl).UnixNano()
	}
	if b, err := json.Marshal(rec); err == nil {
		_ = s.dur.Append(b)
	}
}

// logInvalidateLocked appends an invalidation record; caller holds s.mu.
func (s *Store) logInvalidateLocked(op, name string) {
	if s.dur.Append == nil {
		return
	}
	if b, err := json.Marshal(durRecord{Op: op, Name: name}); err == nil {
		_ = s.dur.Append(b)
	}
}

// applyRecord loads one record without re-logging; caller holds s.mu.
// It reports whether a put restored a NEW entry — a replayed put whose
// key the snapshot already covered overwrites in place and does not count
// again (memo puts ride the idempotent Append path, so snapshot + log can
// both carry one).
func (s *Store) applyRecord(rec durRecord) (restored bool, err error) {
	switch rec.Op {
	case opPut:
		if rec.Expires != 0 && !s.clk.Now().Before(time.Unix(0, rec.Expires)) {
			return false, nil // expired while the process was down
		}
		if s.dur.Validate != nil && !s.dur.Validate(rec.Agent, rec.Version) {
			return false, nil // stale against the restored registries
		}
		var ttl time.Duration
		if rec.Expires != 0 {
			ttl = s.clk.Until(time.Unix(0, rec.Expires))
		}
		_, existed := s.entries[rec.Key]
		s.putLocked(rec.Key, canonName(rec.Agent), canonNames(rec.Sources), ttl, Entry{
			Outputs: rec.Outputs, Cost: rec.Cost, Latency: time.Duration(rec.Latency),
		})
		return !existed, nil
	case opInvalidateAgent:
		s.invalidateAgentLocked(canonName(rec.Name))
		return false, nil
	case opInvalidateSource:
		s.invalidateSourceLocked(canonName(rec.Name))
		return false, nil
	default:
		return false, fmt.Errorf("memo: unknown durable record op %q", rec.Op)
	}
}

// Apply replays one WAL record. It implements durability.Loggable.
func (s *Store) Apply(recBytes []byte) error {
	var rec durRecord
	if err := json.Unmarshal(recBytes, &rec); err != nil {
		return fmt.Errorf("memo: decode durable record: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	restored, err := s.applyRecord(rec)
	if restored {
		s.stats.Restored++
	}
	return err
}

// Snapshot dumps the resident entries, oldest first so a Restore rebuilds
// the same LRU recency order. It implements durability.Loggable.
func (s *Store) Snapshot(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	enc := json.NewEncoder(w)
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		rec := durRecord{
			Op: opPut, Key: e.key, Agent: e.agent, Sources: e.sources,
			Outputs: e.val.Outputs, Cost: e.val.Cost, Latency: int64(e.val.Latency),
		}
		if s.dur.AgentVersion != nil {
			rec.Version = s.dur.AgentVersion(e.agent)
		}
		if !e.expires.IsZero() {
			rec.Expires = e.expires.UnixNano()
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// Restore loads a Snapshot, validating each entry against the restored
// registries. It implements durability.Loggable.
func (s *Store) Restore(r io.Reader) error {
	dec := json.NewDecoder(bufio.NewReader(r))
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		var rec durRecord
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("memo: decode snapshot: %w", err)
		}
		restored, err := s.applyRecord(rec)
		if err != nil {
			return err
		}
		if restored {
			s.stats.Restored++
		}
	}
}
