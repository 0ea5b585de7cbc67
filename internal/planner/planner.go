// Package planner implements the blueprint's task planner (§V-F, Fig. 6):
// it interprets a user utterance, decomposes it into sub-tasks according to
// intent templates, selects an agent for each sub-task by searching the
// agent registry, and wires agent outputs to downstream inputs, producing a
// declarative plan DAG that the task coordinator executes.
//
// As the paper prescribes, the planner is itself an agent: AsAgent wraps it
// so it listens to user utterances on streams and publishes its plan as
// plan-tagged data for the coordinator.
package planner

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync/atomic"

	"blueprint/internal/llm"
	"blueprint/internal/nlq"
	"blueprint/internal/registry"
)

// Binding describes where one input parameter's value comes from.
type Binding struct {
	// FromStep/FromParam wire an upstream step's output parameter.
	FromStep  string `json:"from_step,omitempty"`
	FromParam string `json:"from_param,omitempty"`
	// FromUserText binds the original utterance (optionally transformed).
	FromUserText bool `json:"from_user_text,omitempty"`
	// Transform names a data-planner transformation to apply (e.g.
	// "criteria" extraction: PROFILER.CRITERIA <- USER.TEXT, §V-G).
	Transform string `json:"transform,omitempty"`
	// Value is a literal binding.
	Value any `json:"value,omitempty"`
}

// Step is one node of a task plan: a sub-task assigned to an agent.
type Step struct {
	// ID names the step within the plan ("s1", "s2", ...).
	ID string `json:"id"`
	// Agent is the registry name of the selected agent.
	Agent string `json:"agent"`
	// Task is the sub-task description that selected the agent.
	Task string `json:"task"`
	// Bindings wire each input parameter.
	Bindings map[string]Binding `json:"bindings,omitempty"`
	// Score is the registry match score (transparency).
	Score float64 `json:"score,omitempty"`
}

// Plan is a task plan DAG. The DAG edges are implied by the FromStep bindings
// (Graph derives them); the planner lists steps in execution order, but no
// consumer depends on the listing order.
type Plan struct {
	// ID identifies the plan instance.
	ID string `json:"id"`
	// Utterance is the originating user request.
	Utterance string `json:"utterance"`
	// Intent is the classified intent driving template selection.
	Intent string `json:"intent"`
	// Steps are the plan nodes in execution order.
	Steps []Step `json:"steps"`
	// Explanation narrates planning decisions.
	Explanation []string `json:"explanation,omitempty"`
}

// Validate checks plan well-formedness — what deriving the plan's Graph
// checks: every step named and assigned, no duplicate IDs, every FromStep
// binding resolving to a plan step, and the dependencies forming a DAG. A
// caller that goes on to use the plan's shape calls Graph and keeps the value.
func (p *Plan) Validate() error {
	_, err := p.Graph()
	return err
}

// Step returns the step with the given id.
func (p *Plan) Step(id string) (Step, bool) {
	for _, s := range p.Steps {
		if s.ID == id {
			return s, true
		}
	}
	return Step{}, false
}

// String renders the plan DAG.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TaskPlan %s intent=%s %q\n", p.ID, p.Intent, p.Utterance)
	for _, s := range p.Steps {
		fmt.Fprintf(&b, "  %s: %s (%s)\n", s.ID, s.Agent, s.Task)
		for param, bind := range s.Bindings {
			switch {
			case bind.FromStep != "":
				fmt.Fprintf(&b, "    %s <- %s.%s\n", param, bind.FromStep, bind.FromParam)
			case bind.FromUserText:
				t := ""
				if bind.Transform != "" {
					t = " via " + bind.Transform
				}
				fmt.Fprintf(&b, "    %s <- USER.TEXT%s\n", param, t)
			default:
				fmt.Fprintf(&b, "    %s <- %v\n", param, bind.Value)
			}
		}
	}
	return b.String()
}

// Clone returns a copy of the plan that shares no step, binding map or
// explanation with it. Binding values are copied as they are: a literal is
// never written through.
func (p *Plan) Clone() *Plan {
	cp := *p
	cp.Steps = slices.Clone(p.Steps)
	for i := range cp.Steps {
		cp.Steps[i].Bindings = maps.Clone(cp.Steps[i].Bindings)
	}
	cp.Explanation = slices.Clone(p.Explanation)
	return &cp
}

// ToJSON renders the plan as the generic JSON object it becomes in a
// write-ahead log: what a recovered stream or an external producer hands
// FromJSON.
func (p *Plan) ToJSON() map[string]any {
	raw, _ := json.Marshal(p)
	var m map[string]any
	_ = json.Unmarshal(raw, &m)
	return m
}

// FromJSON reads a plan from a stream payload. Within a process a plan
// travels typed — the payload is the *Plan its producer published, which is
// shared with the stream's history and so copied, never handed on — and only
// a payload that has been through a log (a map) is decoded.
func FromJSON(v any) (*Plan, error) {
	switch p := v.(type) {
	case *Plan:
		if p == nil {
			return nil, fmt.Errorf("planner: nil plan")
		}
		return p.Clone(), nil
	case Plan:
		return p.Clone(), nil
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var p Plan
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, err
	}
	return &p, nil
}

// SubTask is one templated sub-task within an intent.
type SubTask struct {
	// Description is the registry search text for agent selection.
	Description string
	// Transform names the user-text transform when the selected agent's
	// text input is fed from the utterance.
	Transform string
}

// Templates maps intent -> ordered sub-tasks. The defaults implement the
// paper's flows; applications may override (the planner is "ad hoc" and
// configurable, §IV).
type Templates map[string][]SubTask

// DefaultTemplates returns the case-study templates: the Fig. 6 pipeline for
// job search, and the Fig. 10 chain for open-ended queries.
func DefaultTemplates() Templates {
	return Templates{
		"job_search": {
			{Description: "collect job seeker profile information from the user", Transform: "criteria"},
			{Description: "match the job seeker profile with available job listings"},
			{Description: "present the matched jobs to the end user"},
		},
		"open_query": {
			{Description: "translate a natural language question into a database query"},
			{Description: "execute a database query against the enterprise databases"},
			{Description: "summarize and explain query results for the user"},
		},
		"summarize": {
			{Description: "summarize entity details for the user"},
		},
		"rank": {
			{Description: "rank and score candidates or jobs by match quality"},
			{Description: "present the matched jobs to the end user"},
		},
		"career_advice": {
			{Description: "provide career advice and skill recommendations"},
		},
		"profile": {
			{Description: "collect job seeker profile information from the user", Transform: "criteria"},
		},
		"smalltalk": {
			{Description: "present the matched jobs to the end user"},
		},
	}
}

// TaskPlanner produces task plans from utterances. It is safe for
// concurrent use: sessions share one planner, and the coordinator's
// concurrent services may plan and replan in parallel.
type TaskPlanner struct {
	reg       *registry.AgentRegistry
	model     *llm.Model
	templates Templates
	nextID    atomic.Int64
}

// New creates a task planner over an agent registry. The model classifies
// intents; templates default to DefaultTemplates when nil.
func New(reg *registry.AgentRegistry, model *llm.Model, templates Templates) *TaskPlanner {
	if templates == nil {
		templates = DefaultTemplates()
	}
	return &TaskPlanner{reg: reg, model: model, templates: templates}
}

// Plan interprets the utterance and produces a task plan.
func (tp *TaskPlanner) Plan(utterance string) (*Plan, error) {
	intent, _ := tp.model.Classify(utterance, nlq.StandardIntents)
	subtasks, ok := tp.templates[intent]
	if !ok || len(subtasks) == 0 {
		subtasks = tp.templates["open_query"]
		intent = "open_query"
	}
	plan := &Plan{
		ID:        fmt.Sprintf("plan-%d", tp.nextID.Add(1)),
		Utterance: utterance,
		Intent:    intent,
	}
	plan.Explanation = append(plan.Explanation, "intent: "+intent)

	for i, st := range subtasks {
		hits := tp.reg.FindForTask(st.Description, 3)
		if len(hits) == 0 {
			return nil, fmt.Errorf("planner: no agent found for sub-task %q", st.Description)
		}
		chosen := hits[0]
		step := Step{
			ID:       fmt.Sprintf("s%d", i+1),
			Agent:    chosen.Spec.Name,
			Task:     st.Description,
			Score:    chosen.Score,
			Bindings: map[string]Binding{},
		}
		tp.wire(&step, chosen.Spec, plan, st)
		plan.Steps = append(plan.Steps, step)
		plan.Explanation = append(plan.Explanation,
			fmt.Sprintf("sub-task %q -> agent %s (score %.3f)", st.Description, chosen.Spec.Name, chosen.Score))
		_ = tp.reg.RecordUsage(chosen.Spec.Name, st.Description)
	}
	return plan, plan.Validate()
}

// wire connects the step's inputs: earlier outputs by parameter name first,
// then the user utterance for text inputs, leaving optional inputs unbound
// (Fig. 6 "connecting input and output parameters of agents").
func (tp *TaskPlanner) wire(step *Step, spec registry.AgentSpec, plan *Plan, st SubTask) {
	for _, in := range spec.Inputs {
		bound := false
		for i := len(plan.Steps) - 1; i >= 0 && !bound; i-- {
			prev := plan.Steps[i]
			prevSpec, err := tp.reg.Get(prev.Agent)
			if err != nil {
				continue
			}
			for _, out := range prevSpec.Outputs {
				if strings.EqualFold(out.Name, in.Name) {
					step.Bindings[in.Name] = Binding{FromStep: prev.ID, FromParam: out.Name}
					bound = true
					break
				}
			}
		}
		if bound {
			continue
		}
		if strings.EqualFold(in.Type, "text") {
			step.Bindings[in.Name] = Binding{FromUserText: true, Transform: st.Transform}
			continue
		}
		// Non-text unbound inputs: optional ones stay unbound; required ones
		// get the user text with a transform hint so the coordinator asks
		// the data planner (§V-H).
		if !in.Optional {
			step.Bindings[in.Name] = Binding{FromUserText: true, Transform: "derive:" + in.Name}
		}
	}
}

// Replan produces an alternative plan after a step failed: the failed
// step's agent is replaced with the registry's next-best candidate (§V-H:
// the coordinator "could potentially trigger the task planner to replan").
func (tp *TaskPlanner) Replan(p *Plan, failedStepID string) (*Plan, error) {
	step, ok := p.Step(failedStepID)
	if !ok {
		return nil, fmt.Errorf("planner: unknown step %q", failedStepID)
	}
	hits := tp.reg.FindForTask(step.Task, 5)
	var alt *registry.AgentHit
	for i := range hits {
		if !strings.EqualFold(hits[i].Spec.Name, step.Agent) {
			alt = &hits[i]
			break
		}
	}
	if alt == nil {
		return nil, fmt.Errorf("planner: no alternative agent for step %q (%s)", failedStepID, step.Task)
	}
	np := &Plan{
		ID:        fmt.Sprintf("plan-%d", tp.nextID.Add(1)),
		Utterance: p.Utterance,
		Intent:    p.Intent,
		Steps:     make([]Step, len(p.Steps)),
	}
	copy(np.Steps, p.Steps)
	for i := range np.Steps {
		if np.Steps[i].ID == failedStepID {
			np.Steps[i].Agent = alt.Spec.Name
			np.Steps[i].Score = alt.Score
		}
	}
	np.Explanation = append(append([]string{}, p.Explanation...),
		fmt.Sprintf("replan: step %s reassigned %s -> %s", failedStepID, step.Agent, alt.Spec.Name))
	return np, np.Validate()
}
