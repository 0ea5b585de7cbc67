package relational

import (
	"container/list"
	"strings"
	"sync"
)

// DefaultStmtCacheCapacity is the statement-cache size a new DB starts with.
// 256 distinct statement shapes comfortably cover the templated hot paths of
// the blueprint (NL2Q output, data-plan operators, agent queries) while
// bounding memory for adversarial workloads.
const DefaultStmtCacheCapacity = 256

// Stmt is a prepared statement: a parsed, reusable form of one SQL text
// plus a slot holding its compiled plan. Preparing once and executing many
// times amortizes lexing, parsing and plan compilation, the dominant fixed
// costs of short queries. A Stmt is immutable after Prepare and safe for
// concurrent use by multiple goroutines; the compiled plan is revalidated
// against per-table schema versions at execution time, so a Stmt held
// across DDL keeps working (it recompiles against the new schema, or fails
// if its table is gone).
type Stmt struct {
	db     *DB
	sql    string
	st     Statement
	slot   *planSlot
	binder *paramBinder
}

// Prepare parses sql once and returns a reusable statement. The parse (and
// the plan slot, so compilations are shared too) is served from and
// populates the DB's statement cache, so repeated Prepare calls for the
// same text — or for any text sharing its literal-stripped shape — are
// cheap.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	st, slot, binder, err := db.parseCached(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, sql: sql, st: st, slot: slot, binder: binder}, nil
}

// SQL returns the statement's original text.
func (s *Stmt) SQL() string { return s.sql }

// Query executes the prepared statement with optional positional parameters
// bound to '?' placeholders.
func (s *Stmt) Query(params ...any) (*Result, error) {
	return s.db.runLogged(s.sql, s.st, s.slot, s.binder, params...)
}

// Exec executes the prepared statement and reports the number of affected
// rows, mirroring DB.Exec.
func (s *Stmt) Exec(params ...any) (int, error) {
	res, err := s.db.runLogged(s.sql, s.st, s.slot, s.binder, params...)
	if err != nil {
		return 0, err
	}
	return affectedCount(res), nil
}

// missingParamType marks an unsupplied explicit parameter slot in a merged
// parameter vector (paramBinder.bind). It is outside the public Type range,
// so no real value can carry it; evaluation surfaces the same "missing
// parameter" error the raw path produces, numbered by the user-visible '?'
// ordinal.
const missingParamType Type = -1

var missingParam = Value{T: missingParamType}

// paramSrc returns the user-visible ordinal of a parameter for error
// messages: the explicit '?' ordinal when recorded, else the unified slot.
func paramSrc(p *Param) int {
	if p.Src > 0 {
		return p.Src
	}
	return p.Ordinal
}

// paramBinder merges auto-extracted literal values with caller-supplied
// explicit parameters into the unified slot vector a shape-shared plan
// expects. slots holds, per unified ordinal, 0 for an auto literal or the
// 1-based explicit '?' ordinal; lits holds the extracted literals in slot
// order. A nil binder is the exact-keyed identity: the caller's values pass
// through untouched.
type paramBinder struct {
	slots []int
	lits  []Value
}

// newBinder builds a binder over the (immutable, cache-resident) slot layout
// and this execution's extracted literals. lits is copied: the caller's
// buffer is pooled scratch.
func newBinder(slots []int, lits []Value) *paramBinder {
	b := &paramBinder{slots: slots}
	if len(lits) > 0 {
		b.lits = append(make([]Value, 0, len(lits)), lits...)
	}
	return b
}

// bind produces the merged parameter vector for one execution. Explicit
// slots the caller did not supply are filled with the missingParam sentinel
// (not truncated) so interleaved auto literals after them still bind, and
// the missing-parameter error reports the explicit ordinal, exactly as the
// exact-keyed path would.
func (b *paramBinder) bind(vals []Value) []Value {
	if b == nil {
		return vals
	}
	if len(vals) == 0 && len(b.lits) == len(b.slots) {
		// Every unified slot is an auto-extracted literal (the common case
		// for literal-inlined text): the private lits copy already is the
		// merged vector.
		return b.lits
	}
	merged := make([]Value, len(b.slots))
	li := 0
	for i, s := range b.slots {
		switch {
		case s == 0:
			merged[i] = b.lits[li]
			li++
		case s-1 < len(vals):
			merged[i] = vals[s-1]
		default:
			merged[i] = missingParam
		}
	}
	return merged
}

// CacheStats reports statement-cache effectiveness counters.
type CacheStats struct {
	// Hits counts lookups served from the cache (parse skipped), shape-keyed
	// and exact-keyed alike.
	Hits uint64
	// Misses counts lookups that had to parse a cacheable statement.
	Misses uint64
	// ShapeHits counts the subset of Hits served by fingerprint shape keys:
	// the texts differed from what populated the entry (or matched it), but
	// the literal-stripped shapes agreed, so parse and compile were skipped.
	ShapeHits uint64
	// ExactFallbacks counts cacheable statements served under exact-text
	// keys — texts the fingerprint pass bailed on (DDL-free but lexically
	// odd, oversized literal lists) or that ran with shape keying disabled.
	ExactFallbacks uint64
	// Uncacheable counts executions of statements that are never cached
	// (DDL): they are not misses — no steady state of repetition could turn
	// them into hits — so they no longer skew HitRate.
	Uncacheable uint64
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64
	// Invalidations counts DDL-triggered flush events that dropped at least
	// one entry. Invalidation is per-table: each DDL statement flushes only
	// the cached statements referencing the altered table, so hot statements
	// over other tables keep their parsed form.
	Invalidations uint64
	// Compiles counts plan compilations (compile.go). A steady workload of
	// repeated statements should show Compiles plateauing while Hits grows:
	// prepared and cached statements skip parse and compile alike. DDL on a
	// referenced table (CREATE/DROP) forces a recompile.
	Compiles uint64
	// ProfileBuilds counts table-profile (re)builds, ProfileHits the Profile
	// calls served from the cached one (profile.go). Builds should track
	// writes to profiled tables, not asks.
	ProfileBuilds uint64
	ProfileHits   uint64
	// Size is the current number of cached statements.
	Size int
	// Capacity is the configured bound (0 = caching disabled).
	Capacity int
}

// HitRate returns Hits/(Hits+Misses), or 0 when no lookups happened.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// CacheStats returns a snapshot of the DB's statement-cache counters.
func (db *DB) CacheStats() CacheStats {
	s := db.stmts.snapshot()
	s.Compiles = db.compiles.Load()
	s.ProfileBuilds, s.ProfileHits = db.profileBuilds.Load(), db.profileHits.Load()
	return s
}

// ResetCacheStats zeroes the cache counters without dropping cached
// statements, so callers can meter one workload phase.
func (db *DB) ResetCacheStats() {
	db.stmts.resetStats()
	db.compiles.Store(0)
	db.profileBuilds.Store(0)
	db.profileHits.Store(0)
}

// SetStmtCacheCapacity rebounds the statement cache. Shrinking evicts
// least-recently-used entries; 0 disables caching entirely (every Query,
// Exec and Prepare re-parses).
func (db *DB) SetStmtCacheCapacity(n int) { db.stmts.setCapacity(n) }

// SetShapeCacheEnabled toggles fingerprint shape keying. When disabled the
// cache falls back to exact-text keys for every statement — the reference
// the shape-cache tests (fingerprint_test.go, TestShapeCacheDisabled) compare
// shape-keyed results and errors against, and the baseline of the
// BenchmarkPointQueryShapeKeyed/ExactKeyed pair.
func (db *DB) SetShapeCacheEnabled(on bool) { db.noShape.Store(!on) }

// parseCached returns the parsed form of sql, its plan slot and a parameter
// binder, consulting the statement cache first.
//
// The fast path fingerprints the text in one zero-allocation tokenizer
// sweep and looks up the literal-stripped shape: texts differing only in
// WHERE/SET/VALUES literals share one AST and one compiled plan, with the
// extracted literals bound per-execution through the returned binder.
// Statements the fingerprint pass bails on fall back to exact-text keys
// (binder nil). Only DML/query statements are cached: DDL is rare, and
// executing it invalidates the touched table's statements anyway.
func (db *DB) parseCached(sql string) (Statement, *planSlot, *paramBinder, error) {
	if !db.noShape.Load() {
		fp := fpScratch.Get().(*fingerprint)
		if fingerprintStmt(fp, sql) {
			if st, slot, slots, nAuto, ok := db.stmts.lookupShape(fp.key); ok && nAuto == len(fp.lits) {
				b := newBinder(slots, fp.lits)
				fpScratch.Put(fp)
				return st, slot, b, nil
			}
			st, slots, err := parseNormalized(sql)
			if err != nil {
				// Auto-extraction does not change parse control flow, so the
				// error matches what Parse(sql) would report.
				fpScratch.Put(fp)
				return nil, nil, nil, err
			}
			nAuto := 0
			for _, s := range slots {
				if s == 0 {
					nAuto++
				}
			}
			if nAuto == len(fp.lits) && cacheableStmt(st) {
				db.stmts.noteMiss()
				slot, slots := db.stmts.insertShape(string(fp.key), st, stmtTables(st), &planSlot{}, slots, nAuto)
				b := newBinder(slots, fp.lits)
				fpScratch.Put(fp)
				return st, slot, b, nil
			}
			// Extraction layouts disagree (defensive) or the statement is not
			// cacheable under a shape: re-run through the exact path below.
			fpScratch.Put(fp)
		} else {
			fpScratch.Put(fp)
		}
	}
	if st, slot, ok := db.stmts.lookupExact(sql); ok {
		return st, slot, nil, nil
	}
	st, err := Parse(sql)
	if err != nil {
		return nil, nil, nil, err
	}
	slot := &planSlot{}
	if cacheableStmt(st) {
		db.stmts.noteMiss()
		slot = db.stmts.insertExact(sql, st, stmtTables(st), slot)
	} else {
		db.stmts.noteUncacheable()
	}
	return st, slot, nil, nil
}

// cacheableStmt reports whether a statement kind is worth caching.
func cacheableStmt(st Statement) bool {
	switch st.(type) {
	case *SelectStmt, *InsertStmt, *UpdateStmt, *DeleteStmt:
		return true
	default:
		return false
	}
}

// stmtTables returns the lowercased base-table names a cacheable statement
// references (the FROM table plus joined tables for SELECT; the target table
// for DML) — the invalidation key set for per-table DDL flushes.
func stmtTables(st Statement) []string {
	switch s := st.(type) {
	case *SelectStmt:
		out := []string{strings.ToLower(s.From.Table)}
		for _, j := range s.Joins {
			t := strings.ToLower(j.Table.Table)
			dup := false
			for _, have := range out {
				if have == t {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, t)
			}
		}
		return out
	case *InsertStmt:
		return []string{strings.ToLower(s.Table)}
	case *UpdateStmt:
		return []string{strings.ToLower(s.Table)}
	case *DeleteStmt:
		return []string{strings.ToLower(s.Table)}
	default:
		return nil
	}
}

// stmtCache is a concurrency-safe bounded LRU of parsed statements. Entries
// are keyed either by fingerprint shape ('S'-prefixed binary keys — one
// entry serves every text sharing the literal-stripped shape) or by exact
// text ("E"+sql, for statements the fingerprint pass bails on); the two key
// spaces share one LRU so the bound covers both. DDL (CREATE/DROP TABLE,
// CREATE INDEX) invalidates per table: only the cached statements
// referencing the altered table are flushed, so the hot paths of untouched
// tables keep their parsed plans across schema churn elsewhere (e.g.
// scratch tables created and dropped by agents).
type stmtCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	entries map[string]*list.Element

	hits           uint64
	misses         uint64
	shapeHits      uint64
	exactFallbacks uint64
	uncacheable    uint64
	evictions      uint64
	invalidations  uint64
}

type stmtEntry struct {
	key    string
	st     Statement
	tables []string // lowercased tables the statement touches
	slot   *planSlot
	slots  []int // unified slot layout (shape entries; nil for exact)
	nAuto  int   // count of auto-literal slots in slots
}

func newStmtCache(capacity int) *stmtCache {
	return &stmtCache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
	}
}

// lookupShape looks up a fingerprint shape key. The key is passed as the
// fingerprint's scratch bytes; the map probe does not retain (or copy) it.
func (c *stmtCache) lookupShape(key []byte) (Statement, *planSlot, []int, int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[string(key)]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		c.shapeHits++
		e := el.Value.(*stmtEntry)
		return e.st, e.slot, e.slots, e.nAuto, true
	}
	return nil, nil, nil, 0, false
}

func (c *stmtCache) lookupExact(sql string) (Statement, *planSlot, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries["E"+sql]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		c.exactFallbacks++
		e := el.Value.(*stmtEntry)
		return e.st, e.slot, true
	}
	return nil, nil, false
}

func (c *stmtCache) noteMiss()        { c.mu.Lock(); c.misses++; c.mu.Unlock() }
func (c *stmtCache) noteUncacheable() { c.mu.Lock(); c.uncacheable++; c.mu.Unlock() }

// insertShape caches the parsed statement under its shape key and returns
// the resident plan slot and slot layout — the caller's own when it won,
// the earlier entry's when it lost a parse race (so the compiled plan stays
// shared).
func (c *stmtCache) insertShape(key string, st Statement, tables []string, slot *planSlot, slots []int, nAuto int) (*planSlot, []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap <= 0 {
		return slot, slots
	}
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*stmtEntry)
		return e.slot, e.slots
	}
	el := c.ll.PushFront(&stmtEntry{key: key, st: st, tables: tables, slot: slot, slots: slots, nAuto: nAuto})
	c.entries[key] = el
	for c.ll.Len() > c.cap {
		c.evictOldestLocked()
	}
	return slot, slots
}

// insertExact caches the parsed statement under its exact text and returns
// the resident slot (see insertShape). Exact-keyed cacheable statements
// count as fallbacks from shape keying.
func (c *stmtCache) insertExact(sql string, st Statement, tables []string, slot *planSlot) *planSlot {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.exactFallbacks++
	if c.cap <= 0 {
		return slot
	}
	key := "E" + sql
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*stmtEntry).slot
	}
	el := c.ll.PushFront(&stmtEntry{key: key, st: st, tables: tables, slot: slot})
	c.entries[key] = el
	for c.ll.Len() > c.cap {
		c.evictOldestLocked()
	}
	return slot
}

func (c *stmtCache) evictOldestLocked() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	c.ll.Remove(el)
	delete(c.entries, el.Value.(*stmtEntry).key)
	c.evictions++
}

// invalidateTable flushes the cached statements referencing the given table
// (called after successful DDL on it). Statements over other tables stay
// resident: a scratch-table CREATE/DROP no longer evicts the enterprise hot
// path. DDL is rare, so the linear sweep over at most cap entries is cheap.
// Sweeps that flush nothing are not counted as invalidation events.
func (c *stmtCache) invalidateTable(table string) {
	key := strings.ToLower(table)
	c.mu.Lock()
	defer c.mu.Unlock()
	flushed := 0
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*stmtEntry)
		for _, t := range e.tables {
			if t == key {
				c.ll.Remove(el)
				delete(c.entries, e.key)
				flushed++
				break
			}
		}
	}
	if flushed > 0 {
		c.invalidations++
	}
}

// flushAll drops every cached statement (a durability Restore replaced the
// whole catalog, so no parsed form or compiled plan can be trusted).
func (c *stmtCache) flushAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ll.Len() > 0 {
		c.invalidations++
	}
	c.ll.Init()
	c.entries = make(map[string]*list.Element)
}

func (c *stmtCache) setCapacity(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 0 {
		n = 0
	}
	c.cap = n
	if n == 0 {
		c.ll.Init()
		c.entries = make(map[string]*list.Element)
		return
	}
	for c.ll.Len() > n {
		c.evictOldestLocked()
	}
}

func (c *stmtCache) snapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:           c.hits,
		Misses:         c.misses,
		ShapeHits:      c.shapeHits,
		ExactFallbacks: c.exactFallbacks,
		Uncacheable:    c.uncacheable,
		Evictions:      c.evictions,
		Invalidations:  c.invalidations,
		Size:           c.ll.Len(),
		Capacity:       c.cap,
	}
}

func (c *stmtCache) resetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits, c.misses, c.evictions, c.invalidations = 0, 0, 0, 0
	c.shapeHits, c.exactFallbacks, c.uncacheable = 0, 0, 0
}
