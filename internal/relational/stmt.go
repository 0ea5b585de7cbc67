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
// order. A nil binder belongs to an uncached statement (DDL), parsed plainly
// with nothing extracted: the caller's values pass through untouched.
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
// the missing-parameter error reports the explicit ordinal, exactly as a
// plain Parse of the text would number it.
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
	// Hits counts lookups served from the cache (parse skipped).
	Hits uint64
	// Misses counts lookups that had to parse a cacheable statement.
	Misses uint64
	// ShapeHits counts the Hits served by fingerprint shape keys: the texts
	// differed from what populated the entry (or matched it), but the
	// literal-stripped shapes agreed, so parse and compile were skipped. The
	// cache has one key form, so it equals Hits; /metrics and benchmark/
	// read it by this name.
	ShapeHits uint64
	// Uncacheable counts executions of statements that are never cached
	// (DDL): they are not misses — no steady state of repetition could turn
	// them into hits — so they no longer skew HitRate.
	Uncacheable uint64
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64
	// Invalidations counts DDL-triggered flush events that dropped at least
	// one entry. Invalidation is per-table: each DDL statement flushes only
	// the cached statements over the altered table, so hot statements over
	// other tables keep their parsed form.
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

// parseCached returns the parsed form of sql, its plan slot and a parameter
// binder, consulting the statement cache first.
//
// The text is fingerprinted in one zero-allocation tokenizer sweep and its
// literal-stripped shape looked up: texts differing only in WHERE/SET/VALUES
// literals share one AST and one compiled plan, with the extracted literals
// bound per-execution through the returned binder. That is the cache's one
// key form. A text the sweep rejects has no shape: it is DDL — rare, and
// executing it invalidates the touched table's statements anyway — or text
// Parse refuses; it is parsed plainly and runs uncached on a slot of its own
// (binder nil), as does, defensively, a text on which the sweep and the
// parser disagree about the extracted literals.
func (db *DB) parseCached(sql string) (Statement, *planSlot, *paramBinder, error) {
	fp := fpScratch.Get().(*fingerprint)
	defer fpScratch.Put(fp) // newBinder copies the literals out first
	if fingerprintStmt(fp, sql) {
		if st, slot, slots, nAuto, ok := db.stmts.lookupShape(fp.key); ok && nAuto == len(fp.lits) {
			return st, slot, newBinder(slots, fp.lits), nil
		}
		st, slots, err := parseNormalized(sql)
		if err != nil {
			// Auto-extraction does not change parse control flow, so the
			// error matches what Parse(sql) would report.
			return nil, nil, nil, err
		}
		nAuto := 0
		for _, s := range slots {
			if s == 0 {
				nAuto++
			}
		}
		if nAuto == len(fp.lits) {
			db.stmts.noteMiss()
			slot, slots := db.stmts.insertShape(string(fp.key), st, stmtTable(st), &planSlot{}, slots, nAuto)
			return st, slot, newBinder(slots, fp.lits), nil
		}
	}
	st, err := Parse(sql)
	if err != nil {
		return nil, nil, nil, err
	}
	db.stmts.noteUncacheable()
	return st, &planSlot{}, nil, nil
}

// stmtTable returns the lowercased name of the one table a cacheable
// statement reads or writes — the key of its schema-version dependency and of
// per-table DDL flushes — or "" for DDL.
func stmtTable(st Statement) string {
	switch s := st.(type) {
	case *SelectStmt:
		return strings.ToLower(s.From)
	case *InsertStmt:
		return strings.ToLower(s.Table)
	case *UpdateStmt:
		return strings.ToLower(s.Table)
	case *DeleteStmt:
		return strings.ToLower(s.Table)
	default:
		return ""
	}
}

// stmtCache is a concurrency-safe bounded LRU of parsed statements, keyed by
// fingerprint shape ('S'-prefixed binary keys, fingerprint.go): one entry
// serves every text sharing the literal-stripped shape. A text without a
// shape (DDL) is never entered. DDL (CREATE/DROP TABLE,
// CREATE INDEX) invalidates per table: only the cached statements over the
// altered table are flushed, so the hot paths of untouched
// tables keep their parsed plans across schema churn elsewhere (e.g.
// scratch tables created and dropped by agents).
type stmtCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	entries map[string]*list.Element

	hits          uint64
	misses        uint64
	uncacheable   uint64
	evictions     uint64
	invalidations uint64
}

type stmtEntry struct {
	key   string
	st    Statement
	table string // lowercased table the statement reads or writes
	slot  *planSlot
	slots []int // unified slot layout
	nAuto int   // count of auto-literal slots in slots
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
		e := el.Value.(*stmtEntry)
		return e.st, e.slot, e.slots, e.nAuto, true
	}
	return nil, nil, nil, 0, false
}

func (c *stmtCache) noteMiss()        { c.mu.Lock(); c.misses++; c.mu.Unlock() }
func (c *stmtCache) noteUncacheable() { c.mu.Lock(); c.uncacheable++; c.mu.Unlock() }

// insertShape caches the parsed statement under its shape key and returns
// the resident plan slot and slot layout — the caller's own when it won,
// the earlier entry's when it lost a parse race (so the compiled plan stays
// shared).
func (c *stmtCache) insertShape(key string, st Statement, table string, slot *planSlot, slots []int, nAuto int) (*planSlot, []int) {
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
	el := c.ll.PushFront(&stmtEntry{key: key, st: st, table: table, slot: slot, slots: slots, nAuto: nAuto})
	c.entries[key] = el
	for c.ll.Len() > c.cap {
		c.evictOldestLocked()
	}
	return slot, slots
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

// invalidateTable flushes the cached statements over the given table
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
		if e := el.Value.(*stmtEntry); e.table == key {
			c.ll.Remove(el)
			delete(c.entries, e.key)
			flushed++
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
		Hits:          c.hits,
		Misses:        c.misses,
		ShapeHits:     c.hits, // one key form: every hit is a shape hit
		Uncacheable:   c.uncacheable,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Size:          c.ll.Len(),
		Capacity:      c.cap,
	}
}

func (c *stmtCache) resetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits, c.misses, c.evictions, c.invalidations = 0, 0, 0, 0
	c.uncacheable = 0
}
