package main

import "testing"

func TestFoldSelfTimes(t *testing.T) {
	for _, c := range []struct {
		name string
		tree []spanRec
		root int64
		self map[string]int64
	}{
		{
			name: "overlapping children count once",
			tree: []spanRec{
				{ID: "r", Name: "session/ask", Start: 0, End: 100},
				{ID: "a", Parent: "r", Name: "agent/A", Start: 10, End: 50},
				{ID: "b", Parent: "r", Name: "agent/B", Start: 30, End: 70},
			},
			root: 100,
			// The children cover [10,70): the root keeps 40; each agent
			// span has no children and keeps its own 40.
			self: map[string]int64{"session": 40, "agent": 80},
		},
		{
			name: "child outliving its parent and the root is clipped",
			tree: []spanRec{
				{ID: "r", Name: "session/ask", Start: 0, End: 100},
				{ID: "a", Parent: "r", Name: "agent/A", Start: 60, End: 140},
				{ID: "q", Parent: "a", Name: "relational/query", Start: 90, End: 160},
			},
			root: 100,
			// agent/A counts only [60,100), minus its child's [90,100).
			self: map[string]int64{"session": 60, "agent": 30, "relational": 10},
		},
		{
			name: "span with a missing parent hangs under the root",
			tree: []spanRec{
				{ID: "r", Name: "session/ask", Start: 0, End: 100},
				{ID: "m", Parent: "gone", Name: "memo/lookup", Start: 20, End: 30},
				{ID: "q", Parent: "m", Name: "relational/stmt", Start: 22, End: 26},
			},
			root: 100,
			self: map[string]int64{"session": 90, "memo": 6, "relational": 4},
		},
		{
			name: "nested children subtract from their own parent only",
			tree: []spanRec{
				{ID: "r", Name: "session/ask", Start: 0, End: 100},
				{ID: "c", Parent: "r", Name: "coordinator/plan", Start: 10, End: 90},
				{ID: "s", Parent: "c", Name: "scheduler/step", Start: 20, End: 80},
				{ID: "m", Parent: "s", Name: "memo/do", Start: 30, End: 40},
			},
			root: 100,
			self: map[string]int64{"session": 20, "coordinator": 20, "scheduler": 50, "memo": 10},
		},
	} {
		got := fold(c.tree)
		if got.RootNS != c.root || got.Spans != len(c.tree) {
			t.Errorf("%s: root %d spans %d, want %d and %d", c.name, got.RootNS, got.Spans, c.root, len(c.tree))
		}
		for comp, want := range c.self {
			if got.Self[comp] != want {
				t.Errorf("%s: self[%s] = %d, want %d", c.name, comp, got.Self[comp], want)
			}
		}
		if len(got.Self) != len(c.self) {
			t.Errorf("%s: components %v, want %v", c.name, got.Self, c.self)
		}
	}
	if got := fold(nil); got.RootNS != 0 || len(got.Self) != 0 {
		t.Errorf("fold(nil) = %+v, want zero", got)
	}
}

func TestUnionLen(t *testing.T) {
	if got := unionLen([][2]int64{{5, 9}, {0, 3}, {2, 6}, {20, 21}}); got != 10 {
		t.Errorf("unionLen = %d, want 10", got)
	}
}
