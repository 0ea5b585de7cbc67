package planner

import (
	"slices"
	"testing"

	"blueprint/internal/registry"
)

// TestCandidatesRule checks the one rule for which agents may take a step,
// one case per clause. Every case registers OLD, the step's agent, beside the
// case's own agents and — unless it plans a new step — excludes OLD, as a
// replan does.
func TestCandidatesRule(t *testing.T) {
	const task = "triage incoming support tickets by urgency"
	ticket := registry.ParamSpec{Name: "TICKET", Type: "text"}
	label := registry.ParamSpec{Name: "LABEL", Type: "text"}
	spec := func(name, desc string, in, out []registry.ParamSpec) registry.AgentSpec {
		return registry.AgentSpec{Name: name, Description: desc, Inputs: in, Outputs: out}
	}
	old := spec("OLD", task, []registry.ParamSpec{ticket}, []registry.ParamSpec{label})
	good := spec("GOOD", task+" quickly", []registry.ParamSpec{ticket}, []registry.ParamSpec{label})
	weak := spec("WEAK", "triage hospital patients arriving at an emergency ward", []registry.ParamSpec{ticket}, []registry.ParamSpec{label})
	replaced := Step{ID: "s1", Agent: "OLD", Task: task, Bindings: map[string]Binding{"TICKET": {FromUserText: true}}}

	cases := []struct {
		name    string
		agents  []registry.AgentSpec
		step    Step
		exclude []string
		want    []string
	}{
		{"excluded agent is dropped", []registry.AgentSpec{good}, replaced, []string{"old"}, []string{"GOOD"}},
		{"below the floor of the best remaining hit", []registry.AgentSpec{good, weak}, replaced, []string{"OLD"}, []string{"GOOD"}},
		{"bound input not taken", []registry.AgentSpec{
			spec("NO_TICKET", task, []registry.ParamSpec{{Name: "BODY", Type: "text", Optional: true}}, []registry.ParamSpec{label}),
		}, replaced, []string{"OLD"}, nil},
		{"required input left unbound", []registry.AgentSpec{
			spec("NEEDS_HISTORY", task, []registry.ParamSpec{ticket, {Name: "HISTORY", Type: "rows"}}, []registry.ParamSpec{label}),
		}, replaced, []string{"OLD"}, nil},
		{"output of the replaced agent missing", []registry.AgentSpec{
			spec("SCORER", task, []registry.ParamSpec{ticket}, []registry.ParamSpec{{Name: "SCORE", Type: "json"}}),
		}, replaced, []string{"OLD"}, nil},
		{"unbound optional input passes", []registry.AgentSpec{
			spec("MAYBE_HISTORY", task, []registry.ParamSpec{ticket, {Name: "HISTORY", Type: "rows", Optional: true}},
				[]registry.ParamSpec{label, {Name: "SCORE", Type: "json"}}),
		}, replaced, []string{"OLD"}, []string{"MAYBE_HISTORY"}},
		{"a new step has no inputs or outputs to keep", []registry.AgentSpec{
			spec("SCORER", task, []registry.ParamSpec{ticket}, []registry.ParamSpec{{Name: "SCORE", Type: "json"}}),
		}, Step{Task: task}, []string{"OLD"}, []string{"SCORER"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := registry.NewAgentRegistry()
			for _, s := range append([]registry.AgentSpec{old}, tc.agents...) {
				if err := reg.Register(s); err != nil {
					t.Fatal(err)
				}
			}
			var got []string
			for _, h := range Candidates(reg, tc.step, tc.exclude...) {
				got = append(got, h.Spec.Name)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("candidates = %v, want %v (hits %v)", got, tc.want, scores(reg.FindForTask(task, 10)))
			}
		})
	}

	// The floor case holds only if WEAK is a hit that scores under the floor.
	reg := registry.NewAgentRegistry()
	for _, s := range []registry.AgentSpec{good, weak} {
		if err := reg.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	hits := reg.FindForTask(task, 10)
	if len(hits) != 2 || hits[0].Spec.Name != "GOOD" || hits[1].Score >= 0.8*hits[0].Score {
		t.Fatalf("floor case premise: hits %v, want WEAK under 0.8 x GOOD", scores(hits))
	}
}

func scores(hits []registry.AgentHit) map[string]float64 {
	m := make(map[string]float64, len(hits))
	for _, h := range hits {
		m[h.Spec.Name] = h.Score
	}
	return m
}
