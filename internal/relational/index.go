package relational

import "sort"

// orderedIndex keeps (value, rowid) entries sorted by value then rowid,
// supporting equality and range scans. A sorted slice with binary search is
// the right structure at the scale of this engine (inserts are amortized by
// batch loading; the workload generator bulk-inserts before querying).
type orderedIndex struct {
	entries []orderedEntry
}

type orderedEntry struct {
	v  Value
	id int
}

func newOrderedIndex() *orderedIndex {
	return &orderedIndex{}
}

func (ix *orderedIndex) less(a, b orderedEntry) bool {
	c := Compare(a.v, b.v)
	if c != 0 {
		return c < 0
	}
	return a.id < b.id
}

func (ix *orderedIndex) add(v Value, id int) {
	e := orderedEntry{v: v, id: id}
	pos := sort.Search(len(ix.entries), func(i int) bool {
		return !ix.less(ix.entries[i], e)
	})
	ix.entries = append(ix.entries, orderedEntry{})
	copy(ix.entries[pos+1:], ix.entries[pos:])
	ix.entries[pos] = e
}

func (ix *orderedIndex) remove(v Value, id int) {
	e := orderedEntry{v: v, id: id}
	pos := sort.Search(len(ix.entries), func(i int) bool {
		return !ix.less(ix.entries[i], e)
	})
	if pos < len(ix.entries) && ix.entries[pos].id == id && Compare(ix.entries[pos].v, v) == 0 {
		ix.entries = append(ix.entries[:pos], ix.entries[pos+1:]...)
	}
}

// run returns the entries with lo <= value <= hi, as a view of the index's
// own storage: valid while the table lock it was taken under is held. Either
// bound may be Null meaning unbounded, and loOpen/hiOpen make the bound
// exclusive. Both bounds are binary-searched.
func (ix *orderedIndex) run(lo, hi Value, loOpen, hiOpen bool) []orderedEntry {
	start := 0
	if !lo.IsNull() {
		start = sort.Search(len(ix.entries), func(i int) bool {
			c := Compare(ix.entries[i].v, lo)
			if loOpen {
				return c > 0
			}
			return c >= 0
		})
	}
	end := len(ix.entries)
	if !hi.IsNull() {
		end = sort.Search(len(ix.entries), func(i int) bool {
			c := Compare(ix.entries[i].v, hi)
			if hiOpen {
				return c >= 0
			}
			return c > 0
		})
	}
	if start >= end {
		return nil
	}
	return ix.entries[start:end]
}
