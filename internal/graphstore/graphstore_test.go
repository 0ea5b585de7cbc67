package graphstore

import (
	"errors"
	"testing"
)

// newTaxonomy builds a small job-title taxonomy:
//
//	engineering
//	├── data (data scientist, senior data scientist, data analyst)
//	└── software (software engineer, ml engineer)
//
// plus a "related" edge between data scientist and ml engineer.
func newTaxonomy(t testing.TB) *Graph {
	t.Helper()
	g := NewGraph()
	nodes := []struct {
		id, label, name string
	}{
		{"engineering", "category", "Engineering"},
		{"data", "category", "Data"},
		{"software", "category", "Software"},
		{"ds", "title", "Data Scientist"},
		{"sds", "title", "Senior Data Scientist"},
		{"da", "title", "Data Analyst"},
		{"swe", "title", "Software Engineer"},
		{"mle", "title", "ML Engineer"},
	}
	for _, n := range nodes {
		if err := g.AddNode(n.id, n.label, map[string]any{"name": n.name}); err != nil {
			t.Fatal(err)
		}
	}
	edges := [][2]string{
		{"engineering", "data"}, {"engineering", "software"},
		{"data", "ds"}, {"data", "sds"}, {"data", "da"},
		{"software", "swe"}, {"software", "mle"},
	}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1], "child", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge("ds", "mle", "related", nil); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAddAndGet(t *testing.T) {
	g := newTaxonomy(t)
	n, err := g.Node("ds")
	if err != nil {
		t.Fatal(err)
	}
	if n.Label != "title" || n.Props["name"] != "Data Scientist" {
		t.Fatalf("node = %+v", n)
	}
	nodes, edges := g.Stats()
	if nodes != 8 || edges != 8 {
		t.Fatalf("stats = %d nodes %d edges", nodes, edges)
	}
}

func TestAddErrors(t *testing.T) {
	g := newTaxonomy(t)
	if err := g.AddNode("ds", "title", nil); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("err = %v", err)
	}
	if err := g.AddEdge("ds", "missing", "x", nil); !errors.Is(err, ErrNodeNotFound) {
		t.Fatalf("err = %v", err)
	}
	if err := g.AddEdge("missing", "ds", "x", nil); !errors.Is(err, ErrNodeNotFound) {
		t.Fatalf("err = %v", err)
	}
	if _, err := g.Node("missing"); !errors.Is(err, ErrNodeNotFound) {
		t.Fatalf("err = %v", err)
	}
}

// TestNeighbors: a node's neighbours are a one-hop Traverse, after the start
// node it begins with.
func TestNeighbors(t *testing.T) {
	g := newTaxonomy(t)
	out, err := g.Traverse("data", "child", Out, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 || out[0] != "data" || out[1] != "da" || out[2] != "ds" || out[3] != "sds" {
		t.Fatalf("children = %v", out)
	}
	in, err := g.Traverse("ds", "child", In, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(in) != 2 || in[1] != "data" {
		t.Fatalf("parents = %v", in)
	}
	both, err := g.Traverse("ds", "", Both, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(both) != 3 { // ds, then data (in) and mle (out related)
		t.Fatalf("both = %v", both)
	}
	if _, err := g.Traverse("missing", "", Out, 1); !errors.Is(err, ErrNodeNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestTraverseSubtree(t *testing.T) {
	g := newTaxonomy(t)
	all, err := g.Traverse("engineering", "child", Out, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 8 {
		t.Fatalf("subtree = %v", all)
	}
	if all[0] != "engineering" {
		t.Fatalf("start not first: %v", all)
	}
	depth1, err := g.Traverse("engineering", "child", Out, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(depth1) != 3 { // engineering, data, software
		t.Fatalf("depth1 = %v", depth1)
	}
	depth0, err := g.Traverse("engineering", "child", Out, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(depth0) != 1 {
		t.Fatalf("depth0 = %v", depth0)
	}
	if _, err := g.Traverse("missing", "", Out, 1); !errors.Is(err, ErrNodeNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestTraverseHandlesCycles(t *testing.T) {
	g := NewGraph()
	for _, id := range []string{"a", "b", "c"} {
		if err := g.AddNode(id, "n", nil); err != nil {
			t.Fatal(err)
		}
	}
	_ = g.AddEdge("a", "b", "e", nil)
	_ = g.AddEdge("b", "c", "e", nil)
	_ = g.AddEdge("c", "a", "e", nil)
	out, err := g.Traverse("a", "e", Out, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("cycle traverse = %v", out)
	}
}

func TestFindNodes(t *testing.T) {
	g := newTaxonomy(t)
	hits := g.FindNodes("name", "data")
	if len(hits) != 4 { // Data category, Data Scientist, Senior DS, Data Analyst
		t.Fatalf("find = %v", hits)
	}
	hits = g.FindNodes("name", "SCIENTIST")
	if len(hits) != 2 {
		t.Fatalf("case-insensitive find = %v", hits)
	}
	if got := g.FindNodes("name", "zzz"); len(got) != 0 {
		t.Fatalf("no-match = %v", got)
	}
}
