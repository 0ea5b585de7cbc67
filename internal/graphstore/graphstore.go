// Package graphstore implements an embedded labeled property graph.
//
// In the blueprint architecture it plays the role of the enterprise's graph
// databases — most prominently the job-title taxonomy the data planner
// consults to expand "data scientist" into related titles (§V-G, Fig. 7).
//
// It is an in-memory source with a load-then-read life: workload.Build adds
// the nodes and edges before the System exists, and from then on the graph
// is only read — by dataplan's graph operator (FindNodes, Node, Traverse) and by
// DataRegistry.ImportGraph (Stats). Nothing mutates it after load, which is
// why it needs no DataRegistry.Touch on write, no WAL and no spans: a
// memoized step that declared the graph in its Reads cannot go stale.
package graphstore

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Common errors.
var (
	ErrNodeExists   = errors.New("graphstore: node already exists")
	ErrNodeNotFound = errors.New("graphstore: node not found")
)

// Node is a vertex with a label and properties.
type Node struct {
	ID    string
	Label string
	Props map[string]any
}

// Edge is a directed, labeled edge.
type Edge struct {
	From  string
	To    string
	Label string
	Props map[string]any
}

// Direction selects edge orientation for traversals.
type Direction int

const (
	// Out follows edges from the node.
	Out Direction = iota
	// In follows edges into the node.
	In
	// Both follows edges in either direction.
	Both
)

// Graph is a thread-safe directed property graph.
type Graph struct {
	mu    sync.RWMutex
	nodes map[string]*Node
	out   map[string][]*Edge
	in    map[string][]*Edge
	edges int
}

// NewGraph creates an empty graph.
func NewGraph() *Graph {
	return &Graph{
		nodes: make(map[string]*Node),
		out:   make(map[string][]*Edge),
		in:    make(map[string][]*Edge),
	}
}

// AddNode inserts a node.
func (g *Graph) AddNode(id, label string, props map[string]any) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.nodes[id]; ok {
		return fmt.Errorf("%w: %s", ErrNodeExists, id)
	}
	g.nodes[id] = &Node{ID: id, Label: label, Props: props}
	return nil
}

// AddEdge inserts a directed edge; both endpoints must exist.
func (g *Graph) AddEdge(from, to, label string, props map[string]any) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.nodes[from]; !ok {
		return fmt.Errorf("%w: %s", ErrNodeNotFound, from)
	}
	if _, ok := g.nodes[to]; !ok {
		return fmt.Errorf("%w: %s", ErrNodeNotFound, to)
	}
	e := &Edge{From: from, To: to, Label: label, Props: props}
	g.out[from] = append(g.out[from], e)
	g.in[to] = append(g.in[to], e)
	g.edges++
	return nil
}

// Node returns a node by id.
func (g *Graph) Node(id string) (Node, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n, ok := g.nodes[id]
	if !ok {
		return Node{}, fmt.Errorf("%w: %s", ErrNodeNotFound, id)
	}
	return *n, nil
}

// Stats reports node and edge counts.
func (g *Graph) Stats() (nodes, edges int) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.nodes), g.edges
}

// FindNodes returns nodes whose string property prop contains substr
// (case-insensitive), sorted by id.
func (g *Graph) FindNodes(prop, substr string) []Node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	needle := strings.ToLower(substr)
	var out []Node
	for _, n := range g.nodes {
		if v, ok := n.Props[prop]; ok {
			if s, ok := v.(string); ok && strings.Contains(strings.ToLower(s), needle) {
				out = append(out, *n)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Traverse performs a BFS from id following edges with the given label in
// the given direction, up to maxDepth hops (0 = only the start node).
// The start node is included. Results are in BFS order with ties sorted.
func (g *Graph) Traverse(id, label string, dir Direction, maxDepth int) ([]string, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if _, ok := g.nodes[id]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNodeNotFound, id)
	}
	visited := map[string]bool{id: true}
	out := []string{id}
	frontier := []string{id}
	for depth := 0; depth < maxDepth && len(frontier) > 0; depth++ {
		var next []string
		for _, cur := range frontier {
			var adj []string
			if dir == Out || dir == Both {
				for _, e := range g.out[cur] {
					if label == "" || e.Label == label {
						adj = append(adj, e.To)
					}
				}
			}
			if dir == In || dir == Both {
				for _, e := range g.in[cur] {
					if label == "" || e.Label == label {
						adj = append(adj, e.From)
					}
				}
			}
			sort.Strings(adj)
			for _, n := range adj {
				if !visited[n] {
					visited[n] = true
					out = append(out, n)
					next = append(next, n)
				}
			}
		}
		frontier = next
	}
	return out, nil
}
