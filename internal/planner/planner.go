// Package planner implements the blueprint's task planner (§V-F, Fig. 6):
// it interprets a user utterance, decomposes it into sub-tasks according to
// intent templates, selects an agent for each sub-task by searching the
// agent registry, and wires agent outputs to downstream inputs, producing a
// declarative plan DAG that the task coordinator executes.
//
// One rule, Candidates, decides which agents may take a step: Plan and
// IncrementalPlan.Next take its first candidate for a new step, Replan its
// first for a failed step with the failed agent excluded, and the
// optimizer's AssignAgents weighs all of them. A step that already has an
// agent is only ever handed to one that takes the step's bound inputs and
// returns that agent's outputs.
//
// As the paper prescribes, the planner is itself an agent: AsAgent wraps it
// so it listens to user utterances on streams and publishes its plan as
// plan-tagged data for the coordinator.
package planner

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync/atomic"

	"blueprint/internal/durability"
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

// Index returns the position in Steps of the step with the given id, -1 when
// the plan has none: how a step ID becomes the index Graph names steps by.
func (p *Plan) Index(id string) int {
	for i := range p.Steps {
		if p.Steps[i].ID == id {
			return i
		}
	}
	return -1
}

// InputsFixed reports whether the plan alone determines the step's inputs:
// every binding is a literal or the untransformed utterance, so Resolve needs
// neither an upstream step's output nor a transform, and gives the same
// inputs before the plan runs as while it runs.
func (s Step) InputsFixed() bool {
	for _, b := range s.Bindings {
		if b.FromStep != "" || (b.FromUserText && b.Transform != "") {
			return false
		}
	}
	return true
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

func init() { durability.RegisterValue(durability.TagPlan, appendPlan, decodePlan) }

// appendPlan writes a plan as the durability value codec logs it: its
// header, its steps, each step's bindings in name order with a literal as a
// value of the codec, and its explanation; a nil slice or map and an empty
// one each recover as themselves.
func appendPlan(b []byte, p *Plan) ([]byte, error) {
	if p == nil {
		return b, fmt.Errorf("planner: nil plan")
	}
	b = durability.AppendString(b, p.ID)
	b = durability.AppendString(b, p.Utterance)
	b = durability.AppendString(b, p.Intent)
	b = durability.AppendOptCount(b, len(p.Steps), p.Steps == nil)
	var err error
	for _, s := range p.Steps {
		b = durability.AppendString(b, s.ID)
		b = durability.AppendString(b, s.Agent)
		b = durability.AppendString(b, s.Task)
		b = durability.AppendFloat(b, s.Score)
		b = durability.AppendOptCount(b, len(s.Bindings), s.Bindings == nil)
		for _, param := range slices.Sorted(maps.Keys(s.Bindings)) {
			bind := s.Bindings[param]
			b = durability.AppendString(b, param)
			b = durability.AppendString(b, bind.FromStep)
			b = durability.AppendString(b, bind.FromParam)
			b = durability.AppendBool(b, bind.FromUserText)
			b = durability.AppendString(b, bind.Transform)
			if b, err = durability.AppendValue(b, bind.Value); err != nil {
				return b, fmt.Errorf("planner: step %s binding %s: %w", s.ID, param, err)
			}
		}
	}
	return durability.AppendStrings(b, p.Explanation), nil
}

// decodePlan reads what appendPlan wrote.
func decodePlan(d *durability.Dec) *Plan {
	p := &Plan{ID: d.String(), Utterance: d.String(), Intent: d.String()}
	if n := d.OptCount(); n >= 0 {
		p.Steps = make([]Step, n)
	}
	for i := range p.Steps {
		s := &p.Steps[i]
		s.ID, s.Agent, s.Task, s.Score = d.String(), d.String(), d.String(), d.Float()
		n := d.OptCount()
		if n >= 0 {
			s.Bindings = make(map[string]Binding, n)
		}
		for range max(n, 0) {
			param := d.String()
			s.Bindings[param] = Binding{
				FromStep: d.String(), FromParam: d.String(), FromUserText: d.Bool(),
				Transform: d.String(), Value: d.Value(),
			}
		}
	}
	p.Explanation = d.Strings()
	return p
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
	intent, subtasks := tp.classify(utterance)
	plan := &Plan{
		ID:          fmt.Sprintf("plan-%d", tp.nextID.Add(1)),
		Utterance:   utterance,
		Intent:      intent,
		Explanation: []string{"intent: " + intent},
	}
	for i, st := range subtasks {
		step, err := tp.pick(i, st, plan.Steps)
		if err != nil {
			return nil, err
		}
		plan.Steps = append(plan.Steps, step)
		plan.Explanation = append(plan.Explanation,
			fmt.Sprintf("sub-task %q -> agent %s (score %.3f)", st.Description, step.Agent, step.Score))
	}
	return plan, plan.Validate()
}

// classify picks the utterance's intent among nlq.StandardIntents and returns
// it with its template's sub-tasks; an intent without a template is
// open_query.
func (tp *TaskPlanner) classify(utterance string) (string, []SubTask) {
	intent, _ := tp.model.Classify(utterance, nlq.StandardIntents)
	if len(tp.templates[intent]) == 0 {
		intent = "open_query"
	}
	return intent, tp.templates[intent]
}

// pick makes step i of a plan whose earlier steps are prior: the first of
// the sub-task's Candidates, bar the excluded agents, wired to prior's
// outputs and recorded as the agent's usage.
func (tp *TaskPlanner) pick(i int, st SubTask, prior []Step, exclude ...string) (Step, error) {
	hits := Candidates(tp.reg, Step{Task: st.Description}, exclude...)
	if len(hits) == 0 {
		return Step{}, fmt.Errorf("planner: no agent found for sub-task %q", st.Description)
	}
	h := hits[0]
	step := Step{
		ID:       fmt.Sprintf("s%d", i+1),
		Agent:    h.Spec.Name,
		Task:     st.Description,
		Score:    h.Score,
		Bindings: map[string]Binding{},
	}
	tp.wire(&step, h.Spec, prior, st)
	_ = tp.reg.RecordUsage(h.Spec.Name, st.Description)
	return step, nil
}

// candidateK is how many registry hits, after the exclusions, any pick of a
// step's agent weighs.
const candidateK = 5

// Candidates is the one rule for which agents may take a step, best first.
// It searches the registry for step.Task and drops the excluded agents
// first, so the pick acts as if they were not registered. A remaining hit is
// kept only if it scores at least 0.8 × the best remaining hit — relevance
// is never traded away — and, when the step already has an agent, only if it
// takes every input the step binds, leaves none of its required inputs
// unbound, and returns every output the step's agent declares: such a
// substitute runs on the step's bindings as they are, and the steps
// downstream find the outputs they are wired to.
func Candidates(reg *registry.AgentRegistry, step Step, exclude ...string) []registry.AgentHit {
	hits := slices.DeleteFunc(reg.FindForTask(step.Task, candidateK+len(exclude)), func(h registry.AgentHit) bool {
		return slices.ContainsFunc(exclude, func(name string) bool { return strings.EqualFold(name, h.Spec.Name) })
	})
	hits = hits[:min(len(hits), candidateK)]
	if len(hits) == 0 {
		return nil
	}
	floor := min(hits[0].Score, 0.8*hits[0].Score) // the best hit clears it whatever its sign
	var current registry.AgentSpec
	if step.Agent != "" {
		current, _ = reg.Get(step.Agent) // an unregistered agent declares no outputs
	}
	return slices.DeleteFunc(hits, func(h registry.AgentHit) bool {
		return h.Score < floor || step.Agent != "" && !substitutes(h.Spec, step, current)
	})
}

// substitutes reports whether spec can take step in place of its agent,
// current: it takes every bound input, has every required input bound and
// returns every output current declares.
func substitutes(spec registry.AgentSpec, step Step, current registry.AgentSpec) bool {
	for param := range step.Bindings {
		if !hasParam(spec.Inputs, param) {
			return false
		}
	}
	for _, in := range spec.Inputs {
		if _, bound := step.Bindings[in.Name]; !bound && !in.Optional {
			return false
		}
	}
	for _, out := range current.Outputs {
		if !hasParam(spec.Outputs, out.Name) {
			return false
		}
	}
	return true
}

func hasParam(params []registry.ParamSpec, name string) bool {
	return slices.ContainsFunc(params, func(p registry.ParamSpec) bool { return p.Name == name })
}

// wire connects the step's inputs: earlier outputs by parameter name first,
// then the user utterance for text inputs, leaving optional inputs unbound
// (Fig. 6 "connecting input and output parameters of agents").
func (tp *TaskPlanner) wire(step *Step, spec registry.AgentSpec, prior []Step, st SubTask) {
	for _, in := range spec.Inputs {
		bound := false
		for i := len(prior) - 1; i >= 0 && !bound; i-- {
			prev := prior[i]
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

// Replan picks a substitute for a step whose agent failed (§V-H: the
// coordinator "could potentially trigger the task planner to replan"): the
// first of the step's Candidates with the failed agent excluded, so the
// substitute takes the step's inputs and returns its outputs. The returned
// step keeps the failed step's ID, task and bindings; only its agent and
// score change. With no candidate, Replan fails and so does the step.
func (tp *TaskPlanner) Replan(p *Plan, failedStepID string) (Step, error) {
	at := p.Index(failedStepID)
	if at < 0 {
		return Step{}, fmt.Errorf("planner: unknown step %q", failedStepID)
	}
	step := p.Steps[at]
	hits := Candidates(tp.reg, step, step.Agent)
	if len(hits) == 0 {
		return Step{}, fmt.Errorf("planner: no alternative agent for step %q (%s)", failedStepID, step.Task)
	}
	step.Agent, step.Score = hits[0].Spec.Name, hits[0].Score
	return step, nil
}
