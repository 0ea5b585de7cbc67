package relational

import "sort"

// profileValueCap bounds the distinct values profiled per text column, so a
// high-cardinality column costs a bounded gazetteer, not the table.
const profileValueCap = 64

// ValueHint is one profiled (text column, value) pair.
type ValueHint struct {
	Column, Value string
}

// TableProfile is the registered metadata planners ground against: the
// table's columns plus a gazetteer of its text values. A profile is immutable
// once built and shared between callers; treat its slices as read-only.
type TableProfile struct {
	Table   string
	Columns []Column
	// Hints holds, for every text column, the values of
	// SELECT DISTINCT <col> FROM <table> LIMIT 64 minus NULL, flattened into
	// one total order: longest value first (so "San Francisco" is tried
	// before "Francisco"), then column in schema order, then value.
	Hints []ValueHint
	// ver is the table's data version the profile was built at.
	ver uint64
}

// Profile returns the table's cached profile, rebuilding it (built = true)
// when a write has moved the table's data version past the cached one's tag.
// The version check, the scan and the tag all happen under one read lock, so
// a profile never describes rows newer or older than its tag, and a write
// that committed before Profile was called is always reflected.
func (db *DB) Profile(name string) (p *TableProfile, built bool, err error) {
	t, err := db.table(name)
	if err != nil {
		return nil, false, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if p = t.profile.Load(); p != nil && p.ver == t.dataVer {
		db.profileHits.Add(1)
		return p, false, nil
	}
	p = t.buildProfileLocked()
	t.profile.Store(p)
	db.profileBuilds.Add(1)
	return p, true, nil
}

// buildProfileLocked scans live rows in id order once for all text columns
// and stops as soon as each has seen profileValueCap distinct values (NULL
// counts as one, as it does for DISTINCT). Caller holds t.mu.
func (t *table) buildProfileLocked() *TableProfile {
	type colScan struct {
		col  int
		left int // distinct values still admitted; 0 closes the column
		seen map[string]struct{}
		null bool
		vals []string
	}
	var scans []*colScan
	for i, c := range t.schema.Columns {
		if c.Type == TString {
			scans = append(scans, &colScan{col: i, left: profileValueCap, seen: make(map[string]struct{})})
		}
	}
	open := len(scans)
	for id := 0; id < len(t.rows) && open > 0; id++ {
		if !t.live[id] {
			continue
		}
		for _, s := range scans {
			if s.left == 0 {
				continue
			}
			if v := t.rows[id][s.col]; v.IsNull() {
				if s.null {
					continue
				}
				s.null = true
			} else if _, dup := s.seen[v.S]; dup {
				continue
			} else {
				s.seen[v.S] = struct{}{}
				s.vals = append(s.vals, v.S)
			}
			if s.left--; s.left == 0 {
				open--
			}
		}
	}
	p := &TableProfile{Table: t.name, Columns: t.schema.Columns, ver: t.dataVer}
	for _, s := range scans {
		sort.Strings(s.vals)
		for _, v := range s.vals {
			p.Hints = append(p.Hints, ValueHint{Column: t.schema.Columns[s.col].Name, Value: v})
		}
	}
	sort.SliceStable(p.Hints, func(i, j int) bool { return len(p.Hints[i].Value) > len(p.Hints[j].Value) })
	return p
}
