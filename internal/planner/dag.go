package planner

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// Graph is the one reading of a plan's shape: the dependency DAG its FromStep
// bindings imply, validated and topologically ordered. Plan.Graph derives it;
// Validate is that derivation's error, the coordinator derives it once per
// execution and hands the same value to the optimizer's projection and to its
// scheduler, so the two cannot disagree about which step waits for which.
// A Graph is not modified after derivation and describes the plan only while
// no step, ID or FromStep binding of it changes (reassigning a step's agent
// keeps it valid).
type Graph struct {
	// Waves is the topological order, wave by wave: wave 0 holds the steps
	// with no dependencies (in plan order), wave k+1 the steps whose
	// dependencies all lie in waves <= k (sorted by ID). Steps within one wave
	// are mutually independent, so a fan-out plan with N independent steps
	// yields a single wave of N — what the scheduler dispatches concurrently
	// and the critical-path projection reasons over.
	Waves [][]string
	// Deps maps a step to the sorted, deduplicated IDs of the steps whose
	// outputs it consumes. Steps absent from it have no dependencies.
	Deps map[string][]string
	// Children is the inverse relation: the steps, in plan order, that
	// consume a step's outputs.
	Children map[string][]string
}

// Graph validates the plan and derives its dependency DAG: every step named
// and assigned, no duplicate IDs, every FromStep binding resolving to a plan
// step, and no dependency cycle. Steps need not be listed in topological
// order — execution order comes from the graph, not the listing.
func (p *Plan) Graph() (Graph, error) {
	if len(p.Steps) == 0 {
		return Graph{}, fmt.Errorf("planner: empty plan")
	}
	indeg := make(map[string]int, len(p.Steps)) // its keys are the plan's step IDs
	for _, s := range p.Steps {
		if s.ID == "" || s.Agent == "" {
			return Graph{}, fmt.Errorf("planner: step missing id or agent")
		}
		if _, dup := indeg[s.ID]; dup {
			return Graph{}, fmt.Errorf("planner: duplicate step id %q", s.ID)
		}
		indeg[s.ID] = 0
	}
	g := Graph{Deps: map[string][]string{}, Children: map[string][]string{}}
	for _, s := range p.Steps {
		var ds []string
		for param, b := range s.Bindings {
			if b.FromStep == "" {
				continue
			}
			if _, ok := indeg[b.FromStep]; !ok {
				return Graph{}, fmt.Errorf("planner: step %s input %s depends on %q which is not a plan step", s.ID, param, b.FromStep)
			}
			if !slices.Contains(ds, b.FromStep) {
				ds = append(ds, b.FromStep)
			}
		}
		if len(ds) == 0 {
			continue
		}
		sort.Strings(ds)
		g.Deps[s.ID] = ds
		indeg[s.ID] = len(ds)
		for _, d := range ds {
			g.Children[d] = append(g.Children[d], s.ID)
		}
	}

	var frontier []string
	for _, s := range p.Steps { // plan order keeps waves deterministic
		if indeg[s.ID] == 0 {
			frontier = append(frontier, s.ID)
		}
	}
	placed := 0
	for len(frontier) > 0 {
		g.Waves = append(g.Waves, frontier)
		placed += len(frontier)
		var next []string
		for _, id := range frontier {
			for _, child := range g.Children[id] {
				indeg[child]--
				if indeg[child] == 0 {
					next = append(next, child)
				}
			}
		}
		sort.Strings(next)
		frontier = next
	}
	if placed != len(p.Steps) {
		var stuck []string
		for _, s := range p.Steps {
			if indeg[s.ID] > 0 {
				stuck = append(stuck, s.ID)
			}
		}
		return Graph{}, fmt.Errorf("planner: dependency cycle among steps %v", stuck)
	}
	return g, nil
}

// ReadyAt returns when the step's dependencies have all finished — the step's
// own start time on the plan's critical path — given the finish time of every
// step placed so far: the latest among its dependencies, zero with none. The
// optimizer's projection (over registered latencies) and the scheduler's
// commit (over reported ones) both place a step with it.
func (g Graph) ReadyAt(step string, finish map[string]time.Duration) time.Duration {
	var at time.Duration
	for _, d := range g.Deps[step] {
		at = max(at, finish[d])
	}
	return at
}

// Resolve materializes the step's bindings into the inputs its agent
// receives: an upstream step's output parameter by reference, a literal
// directly, and the user's utterance — through transform when the binding
// names one. output reports a step's outputs once they are known; transform
// runs the named transformation for one input parameter. The coordinator
// passes the outputs of completed steps and a transform that runs the data
// planner and charges the budget; the optimizer's projection passes the
// outputs of expected memo hits and no transform, so a binding that needs
// execution — an upstream step that will actually run, a transform — is an
// error there: the step's inputs are not knowable before it runs.
func (p *Plan) Resolve(s Step, output func(step string) (map[string]any, bool), transform func(param, name, text string) (string, error)) (map[string]any, error) {
	inputs := make(map[string]any, len(s.Bindings))
	for param, b := range s.Bindings {
		switch {
		case b.FromStep != "":
			out, ok := output(b.FromStep)
			if !ok {
				return nil, fmt.Errorf("step %s output not available for %s", b.FromStep, param)
			}
			v, ok := out[b.FromParam]
			if !ok {
				return nil, fmt.Errorf("output %s.%s not produced", b.FromStep, b.FromParam)
			}
			inputs[param] = v
		case b.FromUserText:
			text := p.Utterance
			if b.Transform != "" {
				if transform == nil {
					return nil, fmt.Errorf("input %s needs transform %q run", param, b.Transform)
				}
				var err error
				if text, err = transform(param, b.Transform, text); err != nil {
					return nil, err
				}
			}
			inputs[param] = text
		case b.Value != nil:
			inputs[param] = b.Value
		}
	}
	return inputs, nil
}
