package planner

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// fanOutPlan: s1 feeds s2, s3, s4 (independent), which all feed s5.
func fanOutPlan() *Plan {
	dep := func(from string) map[string]Binding {
		return map[string]Binding{"IN": {FromStep: from, FromParam: "OUT"}}
	}
	return &Plan{
		ID: "fan", Utterance: "x",
		Steps: []Step{
			{ID: "s1", Agent: "A"},
			{ID: "s2", Agent: "B", Bindings: dep("s1")},
			{ID: "s3", Agent: "C", Bindings: dep("s1")},
			{ID: "s4", Agent: "D", Bindings: dep("s1")},
			{ID: "s5", Agent: "E", Bindings: map[string]Binding{
				"X": {FromStep: "s2", FromParam: "OUT"},
				"Y": {FromStep: "s3", FromParam: "OUT"},
				"Z": {FromStep: "s4", FromParam: "OUT"},
			}},
		},
	}
}

func TestDepsDerivation(t *testing.T) {
	g, err := fanOutPlan().Graph()
	if err != nil {
		t.Fatal(err)
	}
	deps := g.Deps
	if _, ok := deps["s1"]; ok {
		t.Fatalf("s1 has no deps, got %v", deps["s1"])
	}
	for _, id := range []string{"s2", "s3", "s4"} {
		if !reflect.DeepEqual(deps[id], []string{"s1"}) {
			t.Fatalf("deps[%s] = %v", id, deps[id])
		}
	}
	if !reflect.DeepEqual(deps["s5"], []string{"s2", "s3", "s4"}) {
		t.Fatalf("deps[s5] = %v", deps["s5"])
	}
}

func TestWavesFanOut(t *testing.T) {
	g, err := fanOutPlan().Graph()
	if err != nil {
		t.Fatal(err)
	}
	waves := g.Waves
	want := [][]string{{"s1"}, {"s2", "s3", "s4"}, {"s5"}}
	if !reflect.DeepEqual(waves, want) {
		t.Fatalf("waves = %v, want %v", waves, want)
	}
}

func TestWavesIndependentSteps(t *testing.T) {
	p := &Plan{Steps: []Step{
		{ID: "a", Agent: "A"}, {ID: "b", Agent: "B"}, {ID: "c", Agent: "C"},
	}}
	g, err := p.Graph()
	if err != nil {
		t.Fatal(err)
	}
	waves := g.Waves
	if len(waves) != 1 || len(waves[0]) != 3 {
		t.Fatalf("independent steps must form one wave: %v", waves)
	}
}

// Forward references (a step listed before its producer) are valid DAGs now
// that the scheduler derives order from dependencies, not listing order.
func TestValidateAllowsForwardReferences(t *testing.T) {
	p := &Plan{Steps: []Step{
		{ID: "s2", Agent: "B", Bindings: map[string]Binding{"IN": {FromStep: "s1", FromParam: "OUT"}}},
		{ID: "s1", Agent: "A"},
	}}
	if err := p.Validate(); err != nil {
		t.Fatalf("forward reference rejected: %v", err)
	}
	g, err := p.Graph()
	if err != nil {
		t.Fatal(err)
	}
	waves := g.Waves
	want := [][]string{{"s1"}, {"s2"}}
	if !reflect.DeepEqual(waves, want) {
		t.Fatalf("waves = %v, want %v", waves, want)
	}
}

func TestValidateRejectsCycles(t *testing.T) {
	cyclic := &Plan{Steps: []Step{
		{ID: "s1", Agent: "A", Bindings: map[string]Binding{"IN": {FromStep: "s2", FromParam: "OUT"}}},
		{ID: "s2", Agent: "B", Bindings: map[string]Binding{"IN": {FromStep: "s1", FromParam: "OUT"}}},
	}}
	if err := cyclic.Validate(); err == nil {
		t.Fatal("cycle validated")
	}
	self := &Plan{Steps: []Step{
		{ID: "s1", Agent: "A", Bindings: map[string]Binding{"IN": {FromStep: "s1", FromParam: "OUT"}}},
	}}
	if err := self.Validate(); err == nil {
		t.Fatal("self-dependency validated")
	}
}

// randomPlan draws a plan of up to 7 steps: a random DAG (fan-out, fan-in,
// two inputs from one upstream step) listed in shuffled order, usually with
// one defect injected — a back edge or self-dependency (which may or may not
// close a cycle), an unknown or duplicate or empty id, a missing agent, or no
// steps at all. Whether the result is valid is for the checker to say.
func randomPlan(rng *rand.Rand) *Plan {
	n := 1 + rng.Intn(7)
	p := &Plan{ID: "rnd", Utterance: "u"}
	for i := 0; i < n; i++ {
		s := Step{ID: fmt.Sprintf("s%d", i), Agent: "A", Bindings: map[string]Binding{}}
		for k := 0; k < 3 && i > 0; k++ {
			if rng.Intn(2) == 0 {
				s.Bindings[fmt.Sprintf("IN_%d", k)] = Binding{FromStep: fmt.Sprintf("s%d", rng.Intn(i)), FromParam: "OUT"}
			}
		}
		p.Steps = append(p.Steps, s)
	}
	at := func() *Step { return &p.Steps[rng.Intn(n)] }
	switch rng.Intn(10) {
	case 0, 1: // an edge between any two steps, either direction, or a self-loop
		at().Bindings["BACK"] = Binding{FromStep: at().ID, FromParam: "OUT"}
	case 2:
		at().Bindings["GHOST"] = Binding{FromStep: "nowhere", FromParam: "OUT"}
	case 3:
		at().ID = at().ID
	case 4:
		at().ID = ""
	case 5:
		at().Agent = ""
	case 6:
		p.Steps = nil
	}
	rng.Shuffle(len(p.Steps), func(i, j int) { p.Steps[i], p.Steps[j] = p.Steps[j], p.Steps[i] })
	return p
}

// bruteGraph is the model Graph is held to: validity and every step's
// longest-path depth by plain recursion over the bindings, nothing shared
// with the Kahn loop. ok is false for a plan Validate must reject.
func bruteGraph(p *Plan) (deps map[string][]string, depth map[string]int, ok bool) {
	if len(p.Steps) == 0 {
		return nil, nil, false
	}
	ids := map[string]int{}
	for _, s := range p.Steps {
		if s.ID == "" || s.Agent == "" {
			return nil, nil, false
		}
		ids[s.ID]++
	}
	deps = map[string][]string{}
	for _, s := range p.Steps {
		if ids[s.ID] > 1 {
			return nil, nil, false
		}
		set := map[string]bool{}
		for _, b := range s.Bindings {
			if b.FromStep == "" {
				continue
			}
			if ids[b.FromStep] == 0 {
				return nil, nil, false
			}
			set[b.FromStep] = true
		}
		for d := range set {
			deps[s.ID] = append(deps[s.ID], d)
		}
		sort.Strings(deps[s.ID])
	}
	// A path longer than the plan has steps revisits one: a cycle.
	var walk func(id string, left int) (int, bool)
	walk = func(id string, left int) (int, bool) {
		if left == 0 {
			return 0, false
		}
		deepest := 0
		for _, d := range deps[id] {
			n, ok := walk(d, left-1)
			if !ok {
				return 0, false
			}
			deepest = max(deepest, n+1)
		}
		return deepest, true
	}
	depth = map[string]int{}
	for _, s := range p.Steps {
		n, ok := walk(s.ID, len(p.Steps))
		if !ok {
			return nil, nil, false
		}
		depth[s.ID] = n
	}
	return deps, depth, true
}

// Graph accepts exactly the plans the brute-force checker accepts, and for
// those its order is topological, its waves are the longest-path depths, and
// Deps and Children are the binding relation and its inverse.
func TestGraphMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	accepted, rejected := 0, 0
	for i := 0; i < 3000; i++ {
		p := randomPlan(rng)
		wantDeps, wantDepth, valid := bruteGraph(p)
		g, err := p.Graph()
		if (err == nil) != valid {
			t.Fatalf("plan %d: Graph err = %v, brute force says valid = %v\n%s", i, err, valid, p)
		}
		if verr := p.Validate(); (verr == nil) != valid {
			t.Fatalf("plan %d: Validate err = %v, brute force says valid = %v", i, verr, valid)
		}
		if !valid {
			rejected++
			continue
		}
		accepted++
		placed := map[string]int{}
		for w, wave := range g.Waves {
			for _, id := range wave {
				if _, twice := placed[id]; twice {
					t.Fatalf("plan %d: step %s placed twice in %v", i, id, g.Waves)
				}
				placed[id] = w
				if w != wantDepth[id] {
					t.Fatalf("plan %d: step %s in wave %d, longest-path depth %d\n%s", i, id, w, wantDepth[id], p)
				}
				for _, d := range g.Deps[id] {
					if dw, ok := placed[d]; !ok || dw >= w {
						t.Fatalf("plan %d: step %s (wave %d) is ordered before its dependency %s", i, id, w, d)
					}
				}
			}
		}
		if len(placed) != len(p.Steps) {
			t.Fatalf("plan %d: %d of %d steps ordered: %v", i, len(placed), len(p.Steps), g.Waves)
		}
		if len(g.Deps) != len(wantDeps) {
			t.Fatalf("plan %d: Deps = %v, want %v", i, g.Deps, wantDeps)
		}
		edges := 0
		for id, ds := range wantDeps {
			if !reflect.DeepEqual(g.Deps[id], ds) {
				t.Fatalf("plan %d: Deps[%s] = %v, want %v", i, id, g.Deps[id], ds)
			}
			for _, d := range ds {
				if !slices.Contains(g.Children[d], id) {
					t.Fatalf("plan %d: Children[%s] = %v lacks %s", i, d, g.Children[d], id)
				}
			}
			edges += len(ds)
		}
		for _, cs := range g.Children {
			edges -= len(cs)
		}
		if edges != 0 {
			t.Fatalf("plan %d: Children %v is not the inverse of Deps %v", i, g.Children, g.Deps)
		}
	}
	if accepted < 500 || rejected < 500 {
		t.Fatalf("generator is lopsided: %d accepted, %d rejected", accepted, rejected)
	}
}

// ReadyAt is the latest finish among a step's dependencies.
func TestReadyAt(t *testing.T) {
	g, err := fanOutPlan().Graph()
	if err != nil {
		t.Fatal(err)
	}
	finish := map[string]time.Duration{"s1": 5, "s2": 9, "s3": 30, "s4": 7}
	for step, want := range map[string]time.Duration{"s1": 0, "s2": 5, "s5": 30, "nope": 0} {
		if got := g.ReadyAt(step, finish); got != want {
			t.Fatalf("ReadyAt(%s) = %v, want %v", step, got, want)
		}
	}
}

func TestResolveBindings(t *testing.T) {
	p := &Plan{Utterance: "the ask"}
	outputs := map[string]map[string]any{"s1": {"OUT": 41, "NIL": nil}}
	output := func(step string) (map[string]any, bool) {
		out, ok := outputs[step]
		return out, ok
	}
	var calls []string
	upper := func(param, name, text string) (string, error) {
		calls = append(calls, param+"/"+name+"/"+text)
		return strings.ToUpper(text), nil
	}
	failing := func(param, name, text string) (string, error) { return "", errors.New("model down") }

	in := func(v any) map[string]any { return map[string]any{"P": v} }
	for _, tc := range []struct {
		name      string
		binding   Binding
		transform func(param, name, text string) (string, error)
		want      map[string]any
		wantErr   string // substring of the error; "" = none
	}{
		{name: "upstream output", binding: Binding{FromStep: "s1", FromParam: "OUT"}, want: in(41)},
		{name: "upstream output that is nil", binding: Binding{FromStep: "s1", FromParam: "NIL"}, want: in(nil)},
		{name: "upstream step not finished", binding: Binding{FromStep: "s2", FromParam: "OUT"}, wantErr: "step s2 output not available for P"},
		{name: "upstream param missing", binding: Binding{FromStep: "s1", FromParam: "OTHER"}, wantErr: "output s1.OTHER not produced"},
		{name: "literal", binding: Binding{Value: 3.5}, want: in(3.5)},
		{name: "nothing bound", binding: Binding{}, want: map[string]any{}},
		{name: "user text", binding: Binding{FromUserText: true}, want: in("the ask")},
		{name: "user text, no transform named", binding: Binding{FromUserText: true}, transform: failing, want: in("the ask")},
		{name: "user text through a transform", binding: Binding{FromUserText: true, Transform: "criteria"}, transform: upper, want: in("THE ASK")},
		{name: "transform named, none supplied", binding: Binding{FromUserText: true, Transform: "criteria"}, wantErr: `needs transform "criteria"`},
		{name: "transform fails", binding: Binding{FromUserText: true, Transform: "criteria"}, transform: failing, wantErr: "model down"},
	} {
		step := Step{ID: "s9", Agent: "A", Bindings: map[string]Binding{"P": tc.binding}}
		got, err := p.Resolve(step, output, tc.transform)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%s: inputs = %v (err %v), want %v", tc.name, got, err, tc.want)
		}
	}
	if want := []string{"P/criteria/the ask"}; !reflect.DeepEqual(calls, want) {
		t.Fatalf("transform calls = %v, want %v", calls, want)
	}

	// Every binding of a step resolves into one input map.
	step := Step{ID: "s9", Agent: "A", Bindings: map[string]Binding{
		"A": {FromStep: "s1", FromParam: "OUT"}, "B": {Value: "lit"}, "C": {FromUserText: true},
	}}
	got, err := p.Resolve(step, output, nil)
	if want := map[string]any{"A": 41, "B": "lit", "C": "the ask"}; err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("inputs = %v (err %v), want %v", got, err, want)
	}
}
