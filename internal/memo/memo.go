// Package memo implements cross-session step-result memoization for the
// task coordinator: a concurrency-safe, bounded (LRU + optional TTL) cache
// of agent invocation results keyed by the 32-byte SHA-256 sum of (agent
// name, agent version, input bindings in one canonical encoding). A hit
// costs that hash and one map lookup: nothing is reflected over, no name is
// lower-cased and the stored outputs are handed out, not copied.
//
// # Architecture
//
// The blueprint paper's coordinator (§V-H) re-executes every plan step from
// scratch, and its QoS/optimizer discussion (§IV) prices each plan at the
// full sum of its steps. Enterprise traffic, however, is dominated by
// repeated asks over slowly-changing registries and data: "Scalable
// Inference Architectures for Compound AI Systems" (PAPERS.md) identifies
// response caching/reuse as the single biggest production cost lever, and
// the compound-AI-systems survey lists result caching as a core component.
// This package is that reuse layer:
//
//   - The coordinator's scheduler consults the store before dispatching a
//     ready step; a hit satisfies the step immediately (zero cost, ~zero
//     marginal critical-path latency charged to the budget) and unblocks its
//     dependents.
//   - Single-flight deduplication coalesces N concurrent identical steps —
//     across plans and across sessions, since coordinator.Service instances
//     share one Coordinator and therefore one Store — into exactly one
//     execution; the rest await the winner's result.
//   - Cacheability is declared per agent in the registry
//     (registry.AgentSpec.Cacheable) with an optional freshness hint
//     (registry.QoSProfile.Freshness) that becomes the entry TTL.
//   - Invalidation is explicit and version-aware: the agent registry bumps
//     an agent's version only on real spec changes and notifies the store
//     (InvalidateAgent); the data registry versions its assets and notifies
//     on updates (InvalidateSource) so steps that read registered sources
//     (registry.AgentSpec.Reads) are dropped when their data changes.
//     Invalidation during an in-flight execution poisons the flight: the
//     result is neither cached nor shared with coalesced waiters, who
//     re-execute against the new version instead of consuming a stale value.
//   - The optimizer's plan projection (optimizer.EstimatePlanWithMemo)
//     accepts the store as a snapshot, pricing plans with expected hits at
//     their true residual cost — cache-aware planning.
//
// Effectiveness is observable through Stats (hits, misses, evictions,
// invalidations, dedup-coalesced, saved cost/latency, HitRate) and the repo
// benchmark's memo.* figures and plan-hot workload.
package memo

import (
	"container/list"
	"context"
	"strings"
	"sync"
	"time"

	"blueprint/internal/clock"
)

// DefaultCapacity bounds the store when New is given a non-positive size.
const DefaultCapacity = 4096

// Entry is one memoized step result.
type Entry struct {
	// Outputs are the step's output parameters.
	Outputs map[string]any
	// Cost and Latency are the actuals of the original execution — what a
	// hit saves (hits themselves are charged at zero).
	Cost    float64
	Latency time.Duration
}

// Outcome reports how Do satisfied a request.
type Outcome int

// Do outcomes.
const (
	// Miss: the caller led the flight and executed the step itself.
	Miss Outcome = iota
	// Hit: a cached entry satisfied the request without executing.
	Hit
	// Coalesced: an identical in-flight execution was awaited and its
	// result shared (single-flight deduplication).
	Coalesced
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

// Stats are the store's observability counters.
type Stats struct {
	// Hits/Misses count Get and Do lookups (a coalesced request is neither).
	Hits   int
	Misses int
	// Evictions counts entries dropped by the LRU bound.
	Evictions int
	// Invalidations counts entries dropped by InvalidateAgent /
	// InvalidateSource (expired-TTL drops count as misses, not here).
	Invalidations int
	// Coalesced counts requests satisfied by awaiting an identical
	// in-flight execution (dedup-coalesced).
	Coalesced int
	// Entries is the current resident entry count.
	Entries int
	// SavedCost and SavedLatency accumulate the original actuals of every
	// hit and coalesced request — the work reuse avoided.
	SavedCost    float64
	SavedLatency time.Duration
	// Restored counts entries loaded from the durability snapshot/log at
	// recovery — the warm-start seed a restarted process begins with.
	Restored int
	// StaleServes counts GetStale reads that found a resident entry — the
	// degraded-answer path taken while a breaker was open or the daemon was
	// shedding load.
	StaleServes int
}

// HitRate is hits/(hits+misses); 0 when nothing was looked up.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// entry is the resident record behind one key.
type entry struct {
	key      Key
	agent    string
	sources  []string
	val      Entry
	storedAt time.Time
	expires  time.Time // zero = never
}

// flight is one in-progress execution other requests may coalesce onto.
type flight struct {
	done chan struct{} // closed when the leader finishes
	// Written by the leader before close(done), read-only afterwards; val
	// is the stored entry's, set only when the flight is shared.
	val    Entry
	err    error
	shared bool // false when the flight was poisoned by invalidation
	// Epoch snapshot at flight start: if any relevant epoch advances before
	// completion, the result is stale and must not be cached or shared.
	agent       string
	agentEpoch  uint64
	sourceEpoch map[string]uint64
}

// Store is the bounded, concurrency-safe memoization cache. The zero value
// is not usable; construct with New. A nil *Store is a valid "disabled"
// store: Get always misses and Do always executes.
type Store struct {
	mu       sync.Mutex
	capacity int
	entries  map[Key]*list.Element // values are *entry
	lru      *list.List            // front = most recently used
	byAgent  map[string]map[Key]struct{}
	bySource map[string]map[Key]struct{}
	flights  map[Key]*flight
	// Epochs advance on invalidation; in-flight executions that started
	// under an older epoch are poisoned (never cached, never shared).
	agentEpoch  map[string]uint64
	sourceEpoch map[string]uint64
	stats       Stats
	clk         *clock.Clock // reads TTL expiry and stale age

	// dur is the optional durability wiring (durable.go): cacheable
	// results and invalidations are logged to the shared WAL and restored
	// on reopen, version-checked against the restored registries. rec is
	// the buffer each record is built in; the sink copies what it keeps.
	dur DurableConfig
	rec []byte
}

// New creates a store bounded to capacity entries (DefaultCapacity when
// capacity <= 0).
func New(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{
		capacity:    capacity,
		entries:     make(map[Key]*list.Element),
		lru:         list.New(),
		byAgent:     make(map[string]map[Key]struct{}),
		bySource:    make(map[string]map[Key]struct{}),
		flights:     make(map[Key]*flight),
		agentEpoch:  make(map[string]uint64),
		sourceEpoch: make(map[string]uint64),
	}
}

// SetClock puts the store on clk. Call it before the first Put.
func (s *Store) SetClock(clk *clock.Clock) {
	if s != nil {
		s.clk = clk
	}
}

// Get returns the cached entry for key, counting a hit or miss. The
// returned outputs map is a fresh top-level copy (safe to add/remove
// keys), but nested values are shared with the cache and with every other
// hit — treat them as read-only, exactly like agent inputs.
func (s *Store) Get(key Key) (Entry, bool) {
	if s == nil {
		return Entry{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.lookupLocked(key)
	if !ok {
		s.stats.Misses++
		return Entry{}, false
	}
	s.stats.Hits++
	s.stats.SavedCost += e.val.Cost
	s.stats.SavedLatency += e.val.Latency
	return cloneEntry(e.val), true
}

// Peek returns the cached entry without touching recency or counters — the
// view the optimizer's cache-aware projection uses. Expired entries are
// invisible. The returned outputs are the stored map itself, not a copy:
// read-only, as a directive's Outputs are, and as Do's are; Get and GetStale
// hand out copies. Safe on a nil store.
func (s *Store) Peek(key Key) (Entry, bool) {
	if s == nil {
		return Entry{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		return Entry{}, false
	}
	e := el.Value.(*entry)
	if !e.expires.IsZero() && s.clk.Now().After(e.expires) {
		return Entry{}, false
	}
	return e.val, true
}

// GetStale returns the resident entry for key regardless of TTL expiry,
// together with its age since it was stored — the graceful-degradation read
// used when an agent's breaker is open or the daemon is shedding load. The
// caller decides whether the age is tolerable (resilience.ServeStale
// against the agent's declared freshness). Version-invalidated entries are
// gone entirely, so whatever GetStale returns is stale only in time, never
// in version. Counts a StaleServe, not a hit. Safe on a nil store.
func (s *Store) GetStale(key Key) (Entry, time.Duration, bool) {
	if s == nil {
		return Entry{}, 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		return Entry{}, 0, false
	}
	e := el.Value.(*entry)
	s.stats.StaleServes++
	// A stale serve proves the entry is still useful; keep it resident
	// through the brownout.
	s.lru.MoveToFront(el)
	return cloneEntry(e.val), s.clk.Since(e.storedAt), true
}

// Put stores an execution result under key. agent and sources drive
// invalidation; ttl (0 = forever) bounds freshness. Mostly useful for tests
// and warm-up — the coordinator goes through Do.
func (s *Store) Put(key Key, agent string, sources []string, ttl time.Duration, val Entry) {
	if s == nil {
		return
	}
	agent, sources = canonName(agent), canonNames(sources)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.putLocked(key, agent, sources, ttl, val)
	s.logPutLocked(key, agent, sources, ttl, val)
}

// canonName normalizes an agent/source name for the invalidation indexes
// and epoch maps: both registries are case-insensitive, so the memo layer
// must be too — otherwise a non-canonically-cased Reads declaration or
// invalidation would silently never match.
func canonName(name string) string { return strings.ToLower(name) }

func canonNames(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = canonName(n)
	}
	return out
}

// Do is the single-flight memoized execution path. It returns a cached
// entry when present (Hit); otherwise, if an identical execution is already
// in flight, it awaits and shares that result (Coalesced); otherwise the
// caller becomes the flight leader, exec runs exactly once, and a
// successful result is cached (Miss). A hit and a coalesced share return
// the stored entry itself: its outputs are read-only, as Peek's are, and no
// caller may write into them. Only a miss canonicalizes agent and sources,
// which the entry is stored and invalidated under.
//
// Correctness under invalidation: InvalidateAgent/InvalidateSource advance
// epochs; a flight whose epochs moved while it executed is poisoned — its
// result is returned to the leader (the leader really did execute) but is
// neither cached nor shared, and coalesced waiters loop to re-execute
// against the new version rather than consume a stale value. A leader
// error likewise is not shared; waiters retry themselves.
//
// ctx bounds only the waiting of coalesced callers; the leader's exec is
// responsible for honouring its own cancellation.
func (s *Store) Do(ctx context.Context, key Key, agent string, sources []string, ttl time.Duration, exec func() (Entry, error)) (Entry, Outcome, error) {
	if s == nil {
		e, err := exec()
		return e, Miss, err
	}
	for {
		s.mu.Lock()
		if e, ok := s.lookupLocked(key); ok {
			s.stats.Hits++
			s.stats.SavedCost += e.val.Cost
			s.stats.SavedLatency += e.val.Latency
			s.mu.Unlock()
			return e.val, Hit, nil
		}
		if f, ok := s.flights[key]; ok {
			s.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return Entry{}, Coalesced, ctx.Err()
			}
			if f.err == nil && f.shared {
				s.mu.Lock()
				s.stats.Coalesced++
				s.stats.SavedCost += f.val.Cost
				s.stats.SavedLatency += f.val.Latency
				s.mu.Unlock()
				return f.val, Coalesced, nil
			}
			// The flight failed or was invalidated mid-execution: loop and
			// execute fresh (possibly coalescing onto a newer flight).
			continue
		}
		agent, sources := canonName(agent), canonNames(sources)
		f := &flight{
			done:        make(chan struct{}),
			agent:       agent,
			agentEpoch:  s.agentEpoch[agent],
			sourceEpoch: make(map[string]uint64, len(sources)),
		}
		for _, src := range sources {
			f.sourceEpoch[src] = s.sourceEpoch[src]
		}
		s.flights[key] = f
		s.stats.Misses++
		s.mu.Unlock()

		val, err := exec()

		s.mu.Lock()
		delete(s.flights, key)
		f.err = err
		f.shared = err == nil && s.epochsCurrentLocked(f)
		if f.shared {
			f.val = s.putLocked(key, agent, sources, ttl, val).val
			s.logPutLocked(key, agent, sources, ttl, val)
		}
		s.mu.Unlock()
		close(f.done)
		return val, Miss, err
	}
}

// InvalidateAgent drops every entry produced by the agent and poisons its
// in-flight executions; wired to the agent registry's change hook (version
// bumps on update/derive, deregistration). Returns the entries dropped.
func (s *Store) InvalidateAgent(agent string) int {
	if s == nil {
		return 0
	}
	agent = canonName(agent)
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.invalidateAgentLocked(agent)
	s.logInvalidateLocked(recInvalidateAgent, agent)
	return n
}

func (s *Store) invalidateAgentLocked(agent string) int {
	s.agentEpoch[agent]++
	n := 0
	for key := range s.byAgent[agent] {
		s.removeLocked(key)
		n++
	}
	s.stats.Invalidations += n
	return n
}

// InvalidateSource drops every entry whose agent reads the named data
// source and poisons the corresponding in-flight executions; wired to the
// data registry's asset-version bumps. Returns the entries dropped.
func (s *Store) InvalidateSource(source string) int {
	if s == nil {
		return 0
	}
	source = canonName(source)
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.invalidateSourceLocked(source)
	s.logInvalidateLocked(recInvalidateSource, source)
	return n
}

func (s *Store) invalidateSourceLocked(source string) int {
	s.sourceEpoch[source]++
	n := 0
	for key := range s.bySource[source] {
		s.removeLocked(key)
		n++
	}
	s.stats.Invalidations += n
	return n
}

// Stats returns a snapshot of the counters. Safe on a nil store.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	return st
}

// Len reports the resident entry count.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// ---- internals (all require s.mu) ----

// lookupLocked returns a live entry, promoting it in the LRU. Expired
// entries are invisible here but stay resident (at their LRU position, so
// the capacity bound still ages them out): the degraded-serve path
// (GetStale) may still answer from them while a breaker is open or the
// daemon is shedding, and a later re-execution replaces them in place.
func (s *Store) lookupLocked(key Key) (*entry, bool) {
	el, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*entry)
	if !e.expires.IsZero() && s.clk.Now().After(e.expires) {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return e, true
}

// putLocked stores a copy of val under key and returns the stored entry.
func (s *Store) putLocked(key Key, agent string, sources []string, ttl time.Duration, val Entry) *entry {
	if el, ok := s.entries[key]; ok {
		// Replace in place (e.g. re-execution after TTL expiry raced a Put).
		s.detachLocked(el.Value.(*entry))
		s.lru.Remove(el)
		delete(s.entries, key)
	}
	e := &entry{key: key, agent: agent, sources: append([]string(nil), sources...), val: cloneEntry(val), storedAt: s.clk.Now()}
	if ttl > 0 {
		e.expires = e.storedAt.Add(ttl)
	}
	s.entries[key] = s.lru.PushFront(e)
	if s.byAgent[agent] == nil {
		s.byAgent[agent] = make(map[Key]struct{})
	}
	s.byAgent[agent][key] = struct{}{}
	for _, src := range e.sources {
		if s.bySource[src] == nil {
			s.bySource[src] = make(map[Key]struct{})
		}
		s.bySource[src][key] = struct{}{}
	}
	for len(s.entries) > s.capacity {
		oldest := s.lru.Back()
		if oldest == nil {
			break
		}
		s.removeLocked(oldest.Value.(*entry).key)
		s.stats.Evictions++
	}
	return e
}

func (s *Store) removeLocked(key Key) {
	el, ok := s.entries[key]
	if !ok {
		return
	}
	s.detachLocked(el.Value.(*entry))
	s.lru.Remove(el)
	delete(s.entries, key)
}

// detachLocked unlinks the entry from the agent and source indexes.
func (s *Store) detachLocked(e *entry) {
	if keys := s.byAgent[e.agent]; keys != nil {
		delete(keys, e.key)
		if len(keys) == 0 {
			delete(s.byAgent, e.agent)
		}
	}
	for _, src := range e.sources {
		if keys := s.bySource[src]; keys != nil {
			delete(keys, e.key)
			if len(keys) == 0 {
				delete(s.bySource, src)
			}
		}
	}
}

// epochsCurrentLocked reports whether no relevant invalidation happened
// since the flight started.
func (s *Store) epochsCurrentLocked(f *flight) bool {
	if s.agentEpoch[f.agent] != f.agentEpoch {
		return false
	}
	for src, ep := range f.sourceEpoch {
		if s.sourceEpoch[src] != ep {
			return false
		}
	}
	return true
}

// cloneEntry shallow-copies the outputs map: the cache keeps its own map,
// not the producer's, and Get and GetStale hand out a map the caller may
// change. Nested values stay shared — the system-wide contract is that step
// outputs are immutable once produced (agents never mutate their inputs).
func cloneEntry(e Entry) Entry {
	if e.Outputs == nil {
		return e
	}
	out := make(map[string]any, len(e.Outputs))
	for k, v := range e.Outputs {
		out[k] = v
	}
	e.Outputs = out
	return e
}
