package planner

import (
	"fmt"
	"slices"
	"time"
)

// Graph is the one reading of a plan's shape: the dependency DAG its FromStep
// bindings imply, validated and topologically ordered. Plan.Graph derives it;
// Validate is that derivation's error, the coordinator derives it once per
// execution and hands the same value to the optimizer's projection and to its
// scheduler, so the two cannot disagree about which step waits for which.
// A step is named by its position in Plan.Steps, so whoever walks the graph
// keeps its per-step state in a slice of len(Plan.Steps).
// A Graph is not modified after derivation and describes the plan only while
// no step, ID or FromStep binding of it changes (reassigning a step's agent
// keeps it valid).
type Graph struct {
	// Waves is the topological order, wave by wave: wave 0 holds the steps
	// with no dependencies, wave k+1 the steps whose dependencies all lie in
	// waves <= k, each wave in plan order. Steps within one wave are mutually
	// independent, so a fan-out plan with N independent steps yields a single
	// wave of N — what the scheduler dispatches concurrently and the
	// critical-path projection reasons over.
	Waves [][]int
	// Deps holds, for each step, the sorted, deduplicated positions of the
	// steps whose outputs it consumes (none for a step without dependencies).
	Deps [][]int
	// Children is the inverse relation: the steps, in plan order, that
	// consume a step's outputs.
	Children [][]int
}

// Graph validates the plan and derives its dependency DAG: every step named
// and assigned, no duplicate IDs, every FromStep binding resolving to a plan
// step, and no dependency cycle. Steps need not be listed in topological
// order — execution order comes from the graph, not the listing. A plan is a
// handful of steps, so a step ID is looked up by a scan of the plan (Index),
// not through a map.
func (p *Plan) Graph() (Graph, error) {
	n := len(p.Steps)
	if n == 0 {
		return Graph{}, fmt.Errorf("planner: empty plan")
	}
	for i, s := range p.Steps {
		if s.ID == "" || s.Agent == "" {
			return Graph{}, fmt.Errorf("planner: step missing id or agent")
		}
		if p.Index(s.ID) != i {
			return Graph{}, fmt.Errorf("planner: duplicate step id %q", s.ID)
		}
	}
	g := Graph{Deps: make([][]int, n), Children: make([][]int, n)}
	waiting := make([]int, n) // dependencies not yet placed in a wave
	for i, s := range p.Steps {
		var ds []int
		for param, b := range s.Bindings {
			if b.FromStep == "" {
				continue
			}
			d := p.Index(b.FromStep)
			if d < 0 {
				return Graph{}, fmt.Errorf("planner: step %s input %s depends on %q which is not a plan step", s.ID, param, b.FromStep)
			}
			if !slices.Contains(ds, d) {
				ds = append(ds, d)
			}
		}
		slices.Sort(ds)
		g.Deps[i] = ds
		waiting[i] = len(ds)
		for _, d := range ds {
			g.Children[d] = append(g.Children[d], i)
		}
	}

	// order has room for every step, so each wave is a window of it that no
	// later append moves.
	order := make([]int, 0, n)
	for i := range p.Steps {
		if waiting[i] == 0 {
			order = append(order, i)
		}
	}
	for start := 0; start < len(order); {
		end := len(order)
		g.Waves = append(g.Waves, order[start:end:end])
		for _, i := range order[start:end] {
			for _, child := range g.Children[i] {
				waiting[child]--
				if waiting[child] == 0 {
					order = append(order, child)
				}
			}
		}
		slices.Sort(order[end:])
		start = end
	}
	if len(order) != n {
		var stuck []string
		for i, s := range p.Steps {
			if waiting[i] > 0 {
				stuck = append(stuck, s.ID)
			}
		}
		return Graph{}, fmt.Errorf("planner: dependency cycle among steps %v", stuck)
	}
	return g, nil
}

// ReadyAt returns when step i's dependencies have all finished — the step's
// own start time on the plan's critical path — given the finish time of every
// step placed so far, by position: the latest among its dependencies, zero
// with none. The optimizer's projection (over registered latencies) and the
// scheduler's commit (over reported ones) both place a step with it.
func (g Graph) ReadyAt(i int, finish []time.Duration) time.Duration {
	var at time.Duration
	for _, d := range g.Deps[i] {
		at = max(at, finish[d])
	}
	return at
}

// Resolve materializes the step's bindings into the inputs its agent
// receives: an upstream step's output parameter by reference, a literal
// directly, and the user's utterance — through transform when the binding
// names one. output reports a step's outputs once they are known; transform
// runs the named transformation for one input parameter; a step whose inputs
// the plan fixes (Step.InputsFixed) calls neither, so both may be nil. The
// coordinator resolves such a step once, before the optimizer's projection,
// and the projection and the scheduler share those inputs. Any other step the
// scheduler resolves when it is ready, over the outputs of completed steps and
// with a transform that runs the data planner and charges the budget; the
// projection resolves it over the outputs of expected memo hits and with no
// transform, so a binding that needs execution — an upstream step that will
// actually run, a transform — is an error there: the step's inputs are not
// knowable before it runs.
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
