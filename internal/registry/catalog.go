package registry

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"blueprint/internal/vectors"
)

// catalog is the one mechanism under both registries: named entries kept in
// registration order behind one lock, an embedding of each entry's metadata
// in a flat vector index, keyword and vector search over them, a single
// mutation hook (the durability adapter's) and any number of change hooks
// (the memo layer's). T is the entry (AgentSpec, DataAsset), H the search
// hit built from it (AgentHit, AssetHit), M the mutation the hook logs
// (AgentMutation, AssetMutation). What the two registries do differently is
// set as fields when the catalog is built; nothing in here asks which of
// the two it is serving.
type catalog[T, H, M any] struct {
	mu       sync.RWMutex
	entries  map[string]T // by lower-cased name
	order    []string     // keys in registration order
	embedder *vectors.Embedder
	index    *vectors.Index

	noun        string // "agent" or "asset", for the name-required error
	errExists   error
	errNotFound error
	name        func(T) string
	text        func(T) string // the metadata searched by keyword and embedded
	// embed returns the vector indexed for the entry stored under key; it is
	// called with mu held. newCatalog sets it to the embedding of text.
	embed func(key string, e T) []float64
	hit   func(T, float64) H
	score func(H) float64

	hookMu      sync.RWMutex
	changeHooks []func(name string)
	mutHook     func(M)
	// changeMu orders the mutation hook's calls, and so the log behind it,
	// as the changes were made: each mutating method holds it across its
	// change and its hook. The hook runs outside mu, so without it two
	// changes to one entry could be logged in reverse order.
	changeMu sync.Mutex
}

// newCatalog completes c — whose per-registry fields the caller has set —
// with an empty entry set and its own embedder and index.
func newCatalog[T, H, M any](c *catalog[T, H, M]) *catalog[T, H, M] {
	c.entries = make(map[string]T)
	c.embedder = vectors.NewEmbedder(vectors.DefaultDim)
	c.index = vectors.NewIndex(c.embedder.Dim())
	c.embed = func(_ string, e T) []float64 { return c.embedder.Embed(c.text(e)) }
	return c
}

// setMutationHook installs the hook run (outside mu, under changeMu) after
// every successful mutation; at most one is held, the last set.
func (c *catalog[T, H, M]) setMutationHook(fn func(M)) {
	c.hookMu.Lock()
	c.mutHook = fn
	c.hookMu.Unlock()
}

func (c *catalog[T, H, M]) mutated(m M) {
	mRegistryMutations.Inc()
	c.hookMu.RLock()
	fn := c.mutHook
	c.hookMu.RUnlock()
	if fn != nil {
		fn(m)
	}
}

func (c *catalog[T, H, M]) onChange(fn func(name string)) {
	c.hookMu.Lock()
	defer c.hookMu.Unlock()
	c.changeHooks = append(c.changeHooks, fn)
}

// notifyChange runs the change hooks, in the order they were added, outside
// both locks.
func (c *catalog[T, H, M]) notifyChange(name string) {
	c.hookMu.RLock()
	hooks := make([]func(string), len(c.changeHooks))
	copy(hooks, c.changeHooks)
	c.hookMu.RUnlock()
	for _, fn := range hooks {
		fn(name)
	}
}

// register adds e under its name, which must be non-empty and unused.
func (c *catalog[T, H, M]) register(e T) error {
	name := c.name(e)
	if name == "" {
		return fmt.Errorf("registry: %s name required", c.noun)
	}
	key := strings.ToLower(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return fmt.Errorf("%w: %s", c.errExists, name)
	}
	return c.putLocked(key, e)
}

// putLocked stores e under key — at the end of the order when the key is
// new, in place otherwise — and indexes its embedding.
func (c *catalog[T, H, M]) putLocked(key string, e T) error {
	if _, ok := c.entries[key]; !ok {
		c.order = append(c.order, key)
	}
	c.entries[key] = e
	return c.index.Upsert(key, c.embed(key, e))
}

// removeLocked drops the entry stored under key from the entries, the order
// and the index.
func (c *catalog[T, H, M]) removeLocked(key string) {
	delete(c.entries, key)
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.index.Delete(key)
}

// restore installs entries exactly as given (a snapshot's or a WAL record's:
// versions included), with no mutation or change hook fired.
func (c *catalog[T, H, M]) restore(entries []T) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range entries {
		_ = c.putLocked(strings.ToLower(c.name(e)), e) // the embedder's own dimension cannot mismatch
	}
}

// getLocked looks name up case-insensitively.
func (c *catalog[T, H, M]) getLocked(name string) (key string, e T, err error) {
	key = strings.ToLower(name)
	e, ok := c.entries[key]
	if !ok {
		return key, e, fmt.Errorf("%w: %s", c.errNotFound, name)
	}
	return key, e, nil
}

func (c *catalog[T, H, M]) get(name string) (T, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, e, err := c.getLocked(name)
	return e, err
}

// list returns the entries keep accepts, in registration order; a nil keep
// accepts all.
func (c *catalog[T, H, M]) list(keep func(T) bool) []T {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []T
	if keep == nil {
		out = make([]T, 0, len(c.order))
	}
	for _, k := range c.order {
		if e := c.entries[k]; keep == nil || keep(e) {
			out = append(out, e)
		}
	}
	return out
}

func (c *catalog[T, H, M]) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// searchKeyword returns the entries whose text contains every query token,
// ranked by the number of token occurrences (ties in registration order).
func (c *catalog[T, H, M]) searchKeyword(query string, k int) []H {
	toks := vectors.Tokenize(query)
	c.mu.RLock()
	defer c.mu.RUnlock()
	var hits []H
	for _, key := range c.order {
		e := c.entries[key]
		text := strings.ToLower(c.text(e))
		score := 0.0
		ok := true
		for _, t := range toks {
			n := strings.Count(text, t)
			if n == 0 {
				ok = false
				break
			}
			score += float64(n)
		}
		if ok && len(toks) > 0 {
			hits = append(hits, c.hit(e, score))
		}
	}
	sort.SliceStable(hits, func(i, j int) bool { return c.score(hits[i]) > c.score(hits[j]) })
	if k > 0 && k < len(hits) {
		hits = hits[:k]
	}
	return hits
}

// searchVector returns the k entries nearest to the query's embedding.
func (c *catalog[T, H, M]) searchVector(query string, k int) []H {
	raw := c.index.Search(c.embedder.Embed(query), k)
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]H, 0, len(raw))
	for _, h := range raw {
		if e, ok := c.entries[h.ID]; ok {
			out = append(out, c.hit(e, h.Score))
		}
	}
	return out
}

// find is vector search with a keyword fallback, at most k candidates.
func (c *catalog[T, H, M]) find(query string, k int) []H {
	if hits := c.searchVector(query, k); len(hits) > 0 {
		return hits
	}
	return c.searchKeyword(query, k)
}
