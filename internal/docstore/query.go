package docstore

import (
	"fmt"
	"sort"
	"strings"
)

// Op enumerates filter operators.
type Op int

const (
	// Eq matches equal values (numbers unified across int/float).
	Eq Op = iota
	// Ne matches unequal values.
	Ne
	// Gt, Gte, Lt, Lte compare numerically or lexicographically.
	Gt
	Gte
	Lt
	Lte
	// Contains matches when a string field contains the operand substring
	// (case-insensitive), or when an array field contains the operand.
	Contains
	// Exists matches when the field is present (operand ignored).
	Exists
	// In matches when the field equals any element of the operand slice.
	In
)

// Filter is one field predicate.
type Filter struct {
	Field string
	Op    Op
	Value any
}

// Query describes a find operation. Zero value returns everything in
// insertion order.
type Query struct {
	Filters []Filter // ANDed together
	SortBy  string   // optional field path
	Desc    bool
	Limit   int // 0 = no limit
	Offset  int
	Fields  []string // projection; empty = whole document
}

// Hit pairs a document id with its content.
type Hit struct {
	ID  string
	Doc Doc
}

// Find runs the query against a collection. An equality filter over an
// indexed field is served by the index; remaining filters are applied by
// scanning the candidates.
func (s *Store) Find(coll string, q Query) ([]Hit, error) {
	c, err := s.coll(coll)
	if err != nil {
		return nil, err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()

	// Candidate selection: first Eq/In filter over an indexed field.
	candidates := c.order
	usedIndex := -1
	for fi, f := range q.Filters {
		ix, ok := c.indexes[f.Field]
		if !ok {
			continue
		}
		switch f.Op {
		case Eq:
			candidates = append([]string(nil), ix[valueKey(f.Value)]...)
			usedIndex = fi
		case In:
			vals, ok := asSlice(f.Value)
			if !ok {
				continue
			}
			seen := map[string]bool{}
			var ids []string
			for _, v := range vals {
				for _, id := range ix[valueKey(v)] {
					if !seen[id] {
						seen[id] = true
						ids = append(ids, id)
					}
				}
			}
			candidates = ids
			usedIndex = fi
		}
		if usedIndex >= 0 {
			break
		}
	}

	var hits []Hit
	for _, id := range candidates {
		d, ok := c.docs[id]
		if !ok {
			continue
		}
		match := true
		for fi, f := range q.Filters {
			if fi == usedIndex {
				continue
			}
			if !matchFilter(d, f) {
				match = false
				break
			}
		}
		if match {
			hits = append(hits, Hit{ID: id, Doc: d})
		}
	}

	if q.SortBy != "" {
		sort.SliceStable(hits, func(i, j int) bool {
			a, _ := hits[i].Doc.Get(q.SortBy)
			b, _ := hits[j].Doc.Get(q.SortBy)
			cmp := compareAny(a, b)
			if q.Desc {
				return cmp > 0
			}
			return cmp < 0
		})
	}
	if q.Offset > 0 {
		if q.Offset >= len(hits) {
			hits = nil
		} else {
			hits = hits[q.Offset:]
		}
	}
	if q.Limit > 0 && q.Limit < len(hits) {
		hits = hits[:q.Limit]
	}

	// Copy out (with projection).
	out := make([]Hit, len(hits))
	for i, h := range hits {
		if len(q.Fields) == 0 {
			out[i] = Hit{ID: h.ID, Doc: h.Doc.Clone()}
			continue
		}
		proj := Doc{}
		for _, f := range q.Fields {
			if v, ok := h.Doc.Get(f); ok {
				proj[f] = cloneValue(v)
			}
		}
		out[i] = Hit{ID: h.ID, Doc: proj}
	}
	return out, nil
}

func matchFilter(d Doc, f Filter) bool {
	v, present := d.Get(f.Field)
	switch f.Op {
	case Exists:
		return present
	case Eq:
		return present && compareAny(v, f.Value) == 0
	case Ne:
		return present && compareAny(v, f.Value) != 0
	case Gt:
		return present && compareAny(v, f.Value) > 0
	case Gte:
		return present && compareAny(v, f.Value) >= 0
	case Lt:
		return present && compareAny(v, f.Value) < 0
	case Lte:
		return present && compareAny(v, f.Value) <= 0
	case Contains:
		if !present {
			return false
		}
		switch x := v.(type) {
		case string:
			return strings.Contains(strings.ToLower(x), strings.ToLower(fmt.Sprintf("%v", f.Value)))
		case []any:
			for _, item := range x {
				if compareAny(item, f.Value) == 0 {
					return true
				}
			}
			return false
		default:
			return false
		}
	case In:
		if !present {
			return false
		}
		vals, ok := asSlice(f.Value)
		if !ok {
			return false
		}
		for _, item := range vals {
			if compareAny(v, item) == 0 {
				return true
			}
		}
		return false
	default:
		return false
	}
}

func asSlice(v any) ([]any, bool) {
	switch x := v.(type) {
	case []any:
		return x, true
	case []string:
		out := make([]any, len(x))
		for i, s := range x {
			out[i] = s
		}
		return out, true
	case []int:
		out := make([]any, len(x))
		for i, n := range x {
			out[i] = n
		}
		return out, true
	default:
		return nil, false
	}
}

// compareAny imposes a pragmatic total order over JSON-ish values: nils
// first, numbers (unified), then strings, bools, and everything else by
// string rendering.
func compareAny(a, b any) int {
	if a == nil && b == nil {
		return 0
	}
	if a == nil {
		return -1
	}
	if b == nil {
		return 1
	}
	af, aok := toFloat(a)
	bf, bok := toFloat(b)
	if aok && bok {
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	as, aok2 := a.(string)
	bs, bok2 := b.(string)
	if aok2 && bok2 {
		return strings.Compare(as, bs)
	}
	ab, aok3 := a.(bool)
	bb, bok3 := b.(bool)
	if aok3 && bok3 {
		switch {
		case !ab && bb:
			return -1
		case ab && !bb:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(fmt.Sprintf("%v", a), fmt.Sprintf("%v", b))
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case float64:
		return x, true
	case float32:
		return float64(x), true
	default:
		return 0, false
	}
}
