package planner

import "fmt"

// IncrementalPlan implements the paper's dynamic planning mode (§V-F: "the
// plan can also be dynamic and incremental, meaning it evolves step by step
// rather than being predetermined in its entirety"). Instead of fixing the
// whole DAG up front, each step's agent is re-selected from the registry at
// the moment the step is reached, so registry updates (new agents, usage-
// boosted embeddings) between steps influence the plan. Feedback can veto an
// agent for the remainder of the plan, modelling the paper's adaptive
// planner learning from per-plan feedback.
type IncrementalPlan struct {
	tp        *TaskPlanner
	utterance string
	intent    string
	subtasks  []SubTask
	pos       int
	steps     []Step
	vetoed    []string
}

// PlanIncremental starts a dynamic plan for the utterance: the intent and
// sub-task template are fixed, agent selection is deferred.
func (tp *TaskPlanner) PlanIncremental(utterance string) (*IncrementalPlan, error) {
	intent, subtasks := tp.classify(utterance)
	if len(subtasks) == 0 {
		return nil, fmt.Errorf("planner: no template for intent %q", intent)
	}
	return &IncrementalPlan{
		tp:        tp,
		utterance: utterance,
		intent:    intent,
		subtasks:  subtasks,
	}, nil
}

// Intent returns the classified intent.
func (ip *IncrementalPlan) Intent() string { return ip.intent }

// Remaining reports how many steps have not been emitted yet.
func (ip *IncrementalPlan) Remaining() int { return len(ip.subtasks) - ip.pos }

// Done reports whether every step has been emitted.
func (ip *IncrementalPlan) Done() bool { return ip.pos >= len(ip.subtasks) }

// Veto excludes an agent from selection for the remaining steps (adaptive
// feedback, e.g. after a failure or a user thumbs-down).
func (ip *IncrementalPlan) Veto(agentName string) {
	ip.vetoed = append(ip.vetoed, agentName)
}

// Next selects the agent for the upcoming sub-task *now* — the first of its
// Candidates with the vetoed agents excluded — and returns the wired step.
// It returns false when the plan is complete.
func (ip *IncrementalPlan) Next() (Step, bool, error) {
	if ip.Done() {
		return Step{}, false, nil
	}
	step, err := ip.tp.pick(ip.pos, ip.subtasks[ip.pos], ip.steps, ip.vetoed...)
	if err != nil {
		return Step{}, false, err
	}
	ip.pos++
	ip.steps = append(ip.steps, step)
	return step, true, nil
}

// Materialize returns the steps emitted so far as a static Plan (for the
// coordinator or for presenting to the user mid-flight).
func (ip *IncrementalPlan) Materialize() *Plan {
	return &Plan{
		ID:        fmt.Sprintf("plan-inc-%d", ip.tp.nextID.Add(1)),
		Utterance: ip.utterance,
		Intent:    ip.intent,
		Steps:     append([]Step(nil), ip.steps...),
		Explanation: []string{
			"incremental plan: agents selected step-by-step",
			fmt.Sprintf("emitted %d/%d steps", ip.pos, len(ip.subtasks)),
		},
	}
}
