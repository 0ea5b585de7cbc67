package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"blueprint/internal/obs"
)

// spanRec is one span of the traced pass, kept in memory and written to
// trace-<workload>.json when the pass ends. Benchmark spans have ids "b…",
// spans harvested from the program's own tracer "p…"; a program span's name
// is "component/name" as the program recorded it.
type spanRec struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the pass began
	End    int64  `json:"end_ns"`
}

// tracer collects one goroutine's benchmark spans; it is nil in the
// end-to-end pass, where every method is a no-op.
type tracer struct {
	prefix string
	epoch  time.Time
	spans  []spanRec
}

func newTracer(prefix string, epoch time.Time) *tracer {
	return &tracer{prefix: prefix, epoch: epoch}
}

// add records a finished span and returns its id.
func (t *tracer) add(parent, name string, start time.Time, took time.Duration) string {
	if t == nil {
		return ""
	}
	id := fmt.Sprintf("b%s-%d", t.prefix, len(t.spans)+1)
	s := start.Sub(t.epoch).Nanoseconds()
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Name: name, Start: s, End: s + took.Nanoseconds()})
	return id
}

// harvest copies the program's span tree of the ask with the given trace id
// out of the session's ring and hangs it under the benchmark span parent. It
// returns the tree (root first) or nil when the ring no longer holds it.
func (t *tracer) harvest(session, trace, parent string) []spanRec {
	spans := obs.Spans.Session(session)
	var root uint64
	for _, d := range spans {
		if d.Parent == 0 && attr(d, "trace") == trace {
			root = d.ID
			break
		}
	}
	if root == 0 {
		return nil
	}
	// The root ends (and is recorded) before its laggard descendants, so
	// membership walks parent links to a fixpoint rather than trusting order.
	member := map[uint64]bool{root: true}
	for grew := true; grew; {
		grew = false
		for _, d := range spans {
			if !member[d.ID] && member[d.Parent] {
				member[d.ID], grew = true, true
			}
		}
	}
	var tree []spanRec
	for _, d := range spans {
		if !member[d.ID] {
			continue
		}
		rec := spanRec{
			ID: fmt.Sprintf("p%d", d.ID), Parent: fmt.Sprintf("p%d", d.Parent),
			Name:  d.Component + "/" + d.Name,
			Start: d.Start.Sub(t.epoch).Nanoseconds(),
		}
		rec.End = rec.Start + d.Dur.Nanoseconds()
		if d.ID == root {
			rec.Parent = parent
			tree = append([]spanRec{rec}, tree...)
			continue
		}
		tree = append(tree, rec)
	}
	t.spans = append(t.spans, tree...)
	return tree
}

func attr(d obs.SpanData, key string) string {
	for _, a := range d.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// folded is one span tree reduced to self time per component.
type folded struct {
	RootNS int64
	Self   map[string]int64 // component -> ns not covered by its spans' children
	Spans  int
}

// fold reduces a span tree (tree[0] is the root) to self times. A span's self
// time is its duration minus the union of its children's intervals; every
// interval is first clipped to the root's (a laggard child that outlives the
// ask adds nothing beyond it) and a child's to its parent's. A span whose
// parent is not in the tree (overwritten in the ring) is treated as a child
// of the root, so its time still leaves the root's self time.
func fold(tree []spanRec) folded {
	out := folded{Self: map[string]int64{}}
	if len(tree) == 0 {
		return out
	}
	root := tree[0]
	out.RootNS = root.End - root.Start
	out.Spans = len(tree)
	present := map[string]bool{}
	for _, s := range tree {
		present[s.ID] = true
	}
	children := map[string][]spanRec{}
	for _, s := range tree[1:] {
		p := s.Parent
		if !present[p] {
			p = root.ID
		}
		children[p] = append(children[p], s)
	}
	for _, s := range tree {
		lo, hi := clip(s.Start, s.End, root.Start, root.End)
		if hi <= lo {
			continue
		}
		var kids [][2]int64
		for _, c := range children[s.ID] {
			if clo, chi := clip(c.Start, c.End, lo, hi); chi > clo {
				kids = append(kids, [2]int64{clo, chi})
			}
		}
		out.Self[component(s.Name)] += (hi - lo) - unionLen(kids)
	}
	return out
}

func component(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[:i]
	}
	return name
}

func clip(lo, hi, min, max int64) (int64, int64) {
	if lo < min {
		lo = min
	}
	if hi > max {
		hi = max
	}
	return lo, hi
}

// unionLen is the total length covered by the intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	started := false
	for _, x := range iv {
		switch {
		case !started || x[0] > end:
			total += x[1] - x[0]
			end, started = x[1], true
		case x[1] > end:
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}
