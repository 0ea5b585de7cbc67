// Package docstore implements an embedded document database: named
// collections of JSON-like documents, read back whole or by one field's
// value, through an equality index where the field has one.
//
// In the blueprint architecture it plays the role of the enterprise's
// document databases — the PROFILES collection of job-seeker profiles and
// resumes (§II, §V-D). The data registry exposes its collections and fields
// so the data planner can discover and query them.
//
// It is an in-memory source with a load-then-read life: workload.Build
// creates the collection, inserts the documents and builds the index before
// the System exists, and from then on the store is only read — by dataplan's
// document operator (Find) and by DataRegistry.ImportDocstore (Collections).
// Find is as wide as that one caller: a collection and an optional
// `field = value`. There is no other operator, sort, offset, projection or
// lookup by id, because no plan node asks for one. There is no update or
// delete: nothing mutates a document after load, which is why the store needs
// no DataRegistry.Touch on write, no WAL and no spans, and a memoized step
// that declared it in its Reads cannot go stale.
package docstore

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Common errors.
var (
	ErrCollectionNotFound = errors.New("docstore: collection not found")
	ErrDuplicateID        = errors.New("docstore: duplicate document id")
)

// Doc is a single document. Field values are JSON-like: string, float64,
// int, int64, bool, nil, []any, map[string]any.
type Doc map[string]any

// Clone returns a deep-enough copy (top level and nested maps/slices).
func (d Doc) Clone() Doc {
	return cloneValue(map[string]any(d)).(map[string]any)
}

func cloneValue(v any) any {
	switch x := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, vv := range x {
			out[k] = cloneValue(vv)
		}
		return out
	case Doc:
		return cloneValue(map[string]any(x))
	case []any:
		out := make([]any, len(x))
		for i, vv := range x {
			out[i] = cloneValue(vv)
		}
		return out
	default:
		return v
	}
}

// Get returns a (possibly dotted) field path value: "skills.0" or
// "address.city".
func (d Doc) Get(path string) (any, bool) {
	var cur any = map[string]any(d)
	for _, part := range strings.Split(path, ".") {
		if nested, ok := cur.(Doc); ok {
			cur = map[string]any(nested)
		}
		switch node := cur.(type) {
		case map[string]any:
			v, ok := node[part]
			if !ok {
				return nil, false
			}
			cur = v
		case []any:
			idx := -1
			if _, err := fmt.Sscanf(part, "%d", &idx); err != nil || idx < 0 || idx >= len(node) {
				return nil, false
			}
			cur = node[idx]
		default:
			return nil, false
		}
	}
	return cur, true
}

// collection stores documents by id.
type collection struct {
	mu      sync.RWMutex
	name    string
	docs    map[string]Doc
	order   []string
	indexes map[string]map[string][]string // field -> valueKey -> ids
}

// Store is a set of collections.
type Store struct {
	mu    sync.RWMutex
	colls map[string]*collection
	order []string
}

// NewStore creates an empty document store.
func NewStore() *Store {
	return &Store{colls: make(map[string]*collection)}
}

// EnsureCollection creates the collection if absent.
func (s *Store) EnsureCollection(name string) {
	key := strings.ToLower(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.colls[key]; ok {
		return
	}
	s.colls[key] = &collection{name: name, docs: make(map[string]Doc), indexes: make(map[string]map[string][]string)}
	s.order = append(s.order, key)
}

func (s *Store) coll(name string) (*collection, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.colls[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrCollectionNotFound, name)
	}
	return c, nil
}

// CollectionInfo summarizes one collection for the data registry.
type CollectionInfo struct {
	Name    string
	Docs    int
	Fields  []string // union of top-level field names (sorted)
	Indexed []string // indexed fields (sorted)
}

// Collections lists collection summaries in creation order.
func (s *Store) Collections() []CollectionInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]CollectionInfo, 0, len(s.order))
	for _, k := range s.order {
		out = append(out, s.colls[k].info())
	}
	return out
}

func (c *collection) info() CollectionInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	fields := map[string]bool{}
	for _, d := range c.docs {
		for f := range d {
			fields[f] = true
		}
	}
	ci := CollectionInfo{Name: c.name, Docs: len(c.docs)}
	for f := range fields {
		ci.Fields = append(ci.Fields, f)
	}
	sort.Strings(ci.Fields)
	for f := range c.indexes {
		ci.Indexed = append(ci.Indexed, f)
	}
	sort.Strings(ci.Indexed)
	return ci
}

// Insert stores doc under id. The document is cloned on the way in.
func (s *Store) Insert(coll, id string, doc Doc) error {
	c, err := s.coll(coll)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.docs[id]; ok {
		return fmt.Errorf("%w: %s/%s", ErrDuplicateID, coll, id)
	}
	cp := doc.Clone()
	c.docs[id] = cp
	c.order = append(c.order, id)
	for field, ix := range c.indexes {
		if v, ok := cp.Get(field); ok {
			k := valueKey(v)
			ix[k] = append(ix[k], id)
		}
	}
	return nil
}

// Hit pairs a document id with its content.
type Hit struct {
	ID  string
	Doc Doc
}

// Find returns copies of the collection's documents in insertion order: all
// of them when field is "", else those whose (possibly dotted) field equals
// value. Equality is the index key's — numbers unified across int and float,
// a string never equal to a number — whether an index on the field serves
// the lookup or the collection is scanned.
func (s *Store) Find(coll, field string, value any) ([]Hit, error) {
	c, err := s.coll(coll)
	if err != nil {
		return nil, err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()

	ids, want := c.order, valueKey(value)
	if ix, ok := c.indexes[field]; ok && field != "" {
		ids, field = ix[want], "" // the postings are the answer
	}
	var hits []Hit
	for _, id := range ids {
		d := c.docs[id]
		if field != "" {
			if v, ok := d.Get(field); !ok || valueKey(v) != want {
				continue
			}
		}
		hits = append(hits, Hit{ID: id, Doc: d.Clone()})
	}
	return hits, nil
}

// CreateIndex builds an equality index over a (possibly dotted) field path.
func (s *Store) CreateIndex(coll, field string) error {
	c, err := s.coll(coll)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.indexes[field]; ok {
		return nil
	}
	ix := make(map[string][]string)
	for _, id := range c.order {
		if v, ok := c.docs[id].Get(field); ok {
			k := valueKey(v)
			ix[k] = append(ix[k], id)
		}
	}
	c.indexes[field] = ix
	return nil
}

// valueKey renders an index key for a field value; numbers are unified so
// 3 and 3.0 collide intentionally.
func valueKey(v any) string {
	switch x := v.(type) {
	case nil:
		return "null"
	case string:
		return "s:" + x
	case bool:
		if x {
			return "b:1"
		}
		return "b:0"
	case int:
		return fmt.Sprintf("n:%g", float64(x))
	case int64:
		return fmt.Sprintf("n:%g", float64(x))
	case float64:
		return fmt.Sprintf("n:%g", x)
	default:
		return fmt.Sprintf("o:%v", x)
	}
}
