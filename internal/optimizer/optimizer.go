// Package optimizer implements the blueprint's multi-objective optimizer
// (§IV: "performs multi-objective optimization over task and data plans").
//
// The optimizer scores candidates — model tiers, alternative data plans,
// alternative agents for a task-plan step — on three QoS axes (cost,
// latency, accuracy), normalizing cost and latency within the candidate set
// so weights are scale-free. Hard limits (the budget) filter infeasible
// candidates first; the weighted score ranks the rest. A Pareto helper
// exposes the non-dominated frontier for ablation benchmarks.
//
// Plan projection is cache-aware: EstimatePlanWithMemo walks the plan's one
// graph (planner.Graph, the value the scheduler executes) and prices steps
// whose results are resident in the coordinator's memoization store at zero
// cost/latency, chaining expected hits through the DAG, so warm repeated
// asks are admitted at their true residual cost.
package optimizer

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"blueprint/internal/budget"
	"blueprint/internal/dataplan"
	"blueprint/internal/llm"
	"blueprint/internal/memo"
	"blueprint/internal/planner"
	"blueprint/internal/registry"
)

// ErrInfeasible is returned when no candidate satisfies the limits.
var ErrInfeasible = errors.New("optimizer: no feasible candidate")

// Objectives weight the three QoS axes. Higher accuracy is better; lower
// cost and latency are better. Weights need not sum to one.
type Objectives struct {
	CostWeight     float64
	LatencyWeight  float64
	AccuracyWeight float64
}

// DefaultObjectives balances the three axes equally.
func DefaultObjectives() Objectives {
	return Objectives{CostWeight: 1, LatencyWeight: 1, AccuracyWeight: 1}
}

// CheapestObjectives minimizes cost only (the FrugalGPT-style baseline).
func CheapestObjectives() Objectives { return Objectives{CostWeight: 1} }

// BestObjectives maximizes accuracy only.
func BestObjectives() Objectives { return Objectives{AccuracyWeight: 1} }

// Candidate is one option under consideration.
type Candidate struct {
	// ID names the candidate (model name, plan strategy, agent name).
	ID string
	// Cost in dollars, Latency, Accuracy in [0,1] are the projections.
	Cost     float64
	Latency  time.Duration
	Accuracy float64
	// Payload carries the underlying object.
	Payload any
}

// Choose filters candidates by the limits and returns the feasible one with
// the highest weighted score. Ties break by lower cost, then by ID for
// determinism.
func Choose(cands []Candidate, obj Objectives, limits budget.Limits) (Candidate, error) {
	feasible := make([]Candidate, 0, len(cands))
	for _, c := range cands {
		if limits.MaxCost > 0 && c.Cost > limits.MaxCost {
			continue
		}
		if limits.MaxLatency > 0 && c.Latency > limits.MaxLatency {
			continue
		}
		if limits.MinAccuracy > 0 && c.Accuracy > 0 && c.Accuracy < limits.MinAccuracy {
			continue
		}
		feasible = append(feasible, c)
	}
	if len(feasible) == 0 {
		return Candidate{}, fmt.Errorf("%w among %d candidates", ErrInfeasible, len(cands))
	}
	scores := Scores(feasible, obj)
	best := 0
	for i := 1; i < len(feasible); i++ {
		if scores[i] > scores[best] ||
			(scores[i] == scores[best] && feasible[i].Cost < feasible[best].Cost) ||
			(scores[i] == scores[best] && feasible[i].Cost == feasible[best].Cost && feasible[i].ID < feasible[best].ID) {
			best = i
		}
	}
	return feasible[best], nil
}

// Scores computes the weighted score of each candidate with cost and
// latency min-max normalized within the set.
func Scores(cands []Candidate, obj Objectives) []float64 {
	if len(cands) == 0 {
		return nil
	}
	minC, maxC := cands[0].Cost, cands[0].Cost
	minL, maxL := cands[0].Latency, cands[0].Latency
	for _, c := range cands[1:] {
		if c.Cost < minC {
			minC = c.Cost
		}
		if c.Cost > maxC {
			maxC = c.Cost
		}
		if c.Latency < minL {
			minL = c.Latency
		}
		if c.Latency > maxL {
			maxL = c.Latency
		}
	}
	normC := func(v float64) float64 {
		if maxC == minC {
			return 0
		}
		return (v - minC) / (maxC - minC)
	}
	normL := func(v time.Duration) float64 {
		if maxL == minL {
			return 0
		}
		return float64(v-minL) / float64(maxL-minL)
	}
	out := make([]float64, len(cands))
	for i, c := range cands {
		out[i] = obj.AccuracyWeight*c.Accuracy - obj.CostWeight*normC(c.Cost) - obj.LatencyWeight*normL(c.Latency)
	}
	return out
}

// Pareto returns the non-dominated candidates (lower cost, lower latency,
// higher accuracy), sorted by cost ascending.
func Pareto(cands []Candidate) []Candidate {
	var out []Candidate
	for i, c := range cands {
		dominated := false
		for j, d := range cands {
			if i == j {
				continue
			}
			if d.Cost <= c.Cost && d.Latency <= c.Latency && d.Accuracy >= c.Accuracy &&
				(d.Cost < c.Cost || d.Latency < c.Latency || d.Accuracy > c.Accuracy) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cost != out[j].Cost {
			return out[i].Cost < out[j].Cost
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// ChooseModelTier picks an LLM tier for a task of approximately taskTokens
// tokens: each config becomes a candidate with cost and latency scaled by
// the token count.
func ChooseModelTier(configs []llm.Config, taskTokens int, obj Objectives, limits budget.Limits) (llm.Config, error) {
	if taskTokens <= 0 {
		taskTokens = 100
	}
	cands := make([]Candidate, 0, len(configs))
	for _, cfg := range configs {
		cands = append(cands, Candidate{
			ID:       cfg.Name,
			Cost:     float64(taskTokens) / 1000 * cfg.CostPer1K,
			Latency:  cfg.BaseLatency + time.Duration(taskTokens)*cfg.PerToken,
			Accuracy: cfg.Accuracy,
			Payload:  cfg,
		})
	}
	chosen, err := Choose(cands, obj, limits)
	if err != nil {
		return llm.Config{}, err
	}
	return chosen.Payload.(llm.Config), nil
}

// ChooseDataPlan picks among alternative data plans using their estimates
// (§V-G: optimizing the overall plan under cost/performance/quality
// constraints).
func ChooseDataPlan(plans []*dataplan.Plan, obj Objectives, limits budget.Limits) (*dataplan.Plan, error) {
	cands := make([]Candidate, 0, len(plans))
	for _, p := range plans {
		cands = append(cands, Candidate{
			ID:       p.Strategy,
			Cost:     p.Est.Cost,
			Latency:  p.Est.Latency,
			Accuracy: p.Est.Accuracy,
			Payload:  p,
		})
	}
	chosen, err := Choose(cands, obj, limits)
	if err != nil {
		return nil, err
	}
	return chosen.Payload.(*dataplan.Plan), nil
}

// AssignAgents revisits every step of a task plan and, among the agents
// planner.Candidates admits for the step — close to the best match for its
// sub-task, taking the step's bound inputs and returning its agent's
// outputs — picks the one optimizing the objectives (the per-step greedy
// assignment of §IV's task-plan optimization). Steps keep their original
// agent when it remains the best choice. Returns the number of
// reassignments.
func AssignAgents(p *planner.Plan, reg *registry.AgentRegistry, obj Objectives, limits budget.Limits) (int, error) {
	changed := 0
	for i := range p.Steps {
		hits := planner.Candidates(reg, p.Steps[i])
		cands := make([]Candidate, 0, len(hits))
		for _, h := range hits {
			cands = append(cands, Candidate{
				ID:       h.Spec.Name,
				Cost:     h.Spec.QoS.CostPerCall,
				Latency:  h.Spec.QoS.Latency,
				Accuracy: h.Spec.QoS.Accuracy,
				Payload:  h.Spec,
			})
		}
		chosen, err := Choose(cands, obj, limits)
		if err != nil {
			continue // keep original assignment when nothing feasible
		}
		if chosen.ID != p.Steps[i].Agent {
			p.Steps[i].Agent = chosen.ID
			changed++
			p.Explanation = append(p.Explanation,
				fmt.Sprintf("optimizer: step %s reassigned to %s", p.Steps[i].ID, chosen.ID))
		}
	}
	return changed, nil
}

// StepIdentity is what one plan step is before it runs: its agent's registry
// entry, read once, and — for a step whose inputs the plan fixes
// (planner.Step.InputsFixed) — those inputs, with their memo key when the
// agent is Cacheable and a memo store is configured. The coordinator
// identifies a plan's steps once per execution (IdentifyPlan), prices the
// plan with the identities (EstimatePlanWithMemo) and runs each step under
// its own; a step whose inputs come from upstream or through a transform is
// resolved and keyed (WithInputs) when the scheduler has them. Only a replan
// identifies an agent again: the alternative's.
type StepIdentity struct {
	Known     bool                // the agent is registered; the fields below are its entry's
	Name      string              // registry name
	Version   int                 // registry version, part of the memo key
	Cacheable bool                // results are a function of inputs and reads
	Reads     []string            // data assets whose updates invalidate its results
	QoS       registry.QoSProfile // projected cost, latency and accuracy; freshness
	Inputs    map[string]any      // the resolved inputs, shared and read-only; nil until they are known
	Key       memo.Key            // valid when Keyed
	Keyed     bool                // the step's result lives in the memo store under Key
}

// Identify reads the agent's registry entry into an identity with no inputs
// and no key; an unregistered agent is the zero identity.
func Identify(reg *registry.AgentRegistry, agent string) StepIdentity {
	spec, err := reg.Get(agent)
	if err != nil {
		return StepIdentity{}
	}
	return StepIdentity{Known: true, Name: spec.Name, Version: spec.Version,
		Cacheable: spec.Cacheable, Reads: spec.Reads, QoS: spec.QoS}
}

// IdentifyPlan identifies every step of p, by position in p.Steps: each
// agent's entry, and the inputs — keyed in m — of each step whose inputs the
// plan fixes.
func IdentifyPlan(p *planner.Plan, reg *registry.AgentRegistry, m *memo.Store) []StepIdentity {
	ids := make([]StepIdentity, len(p.Steps))
	for i, s := range p.Steps {
		ids[i] = Identify(reg, s.Agent)
		if s.InputsFixed() {
			inputs, _ := p.Resolve(s, nil, nil) // a fixed step reads no output and runs no transform
			ids[i] = ids[i].WithInputs(inputs, m)
		}
	}
	return ids
}

// WithInputs returns the identity with its inputs resolved and, for a
// Cacheable agent with a memo store m, keyed: the one rule that makes a
// step's memo key. Inputs that cannot be canonicalized leave it unkeyed.
func (id StepIdentity) WithInputs(inputs map[string]any, m *memo.Store) StepIdentity {
	id.Inputs = inputs
	if id.Cacheable && m != nil {
		if key, err := memo.ComputeKey(id.Name, id.Version, inputs); err == nil {
			id.Key, id.Keyed = key, true
		}
	}
	return id
}

// EstimatePlanWithMemo projects a task plan's cost, latency and accuracy from
// the registered QoS profiles — the projection the coordinator hands to the
// budget before execution (§V-H "along with an initial budget and projected
// costs estimated by the optimizer"). g is the plan's graph (Plan.Graph) and
// ids its steps' identities (IdentifyPlan, with the same m): the coordinator
// passes the values its scheduler executes, so the projection and the
// execution order the same DAG and key a step the same way.
//
// Cost sums over every step and accuracy multiplies through, but latency is
// the critical path over the dependency DAG: steps in the same topological
// wave execute concurrently under the coordinator's scheduler, so a fan-out
// plan's projected latency is its longest dependency chain, not the sum of
// all steps. Without this, parallel plans would be falsely rejected as over a
// latency budget they comfortably meet.
//
// The projection is priced against a memoization snapshot: steps whose
// results are already cached contribute zero cost and zero critical-path
// latency, so a warm plan is projected at its true residual cost instead of
// the cold sum — cache-aware planning. A nil store gives the cold projection.
//
// Hit projection chains through the DAG: a step's memo key needs its
// concrete inputs. A step whose inputs the plan fixes comes keyed in ids; any
// other is projectable when Plan.Resolve can bind every input without
// executing anything — the cached outputs of upstream steps that are
// themselves expected hits. Model-dependent transforms and outputs of steps
// that must execute stay unpredictable and are conservatively priced as
// misses.
func EstimatePlanWithMemo(p *planner.Plan, g planner.Graph, ids []StepIdentity, m *memo.Store) (cost float64, latency time.Duration, accuracy float64, expectedHits int) {
	accuracy = 1.0
	var latBuf [8]time.Duration
	var hitBuf [8]map[string]any
	stepLat := sized(latBuf[:], len(p.Steps))
	hitOutputs := sized(hitBuf[:], len(p.Steps)) // an expected hit's outputs, nil for any other step
	expectedHit := func(step string) (map[string]any, bool) {
		out := hitOutputs[p.Index(step)]
		return out, out != nil
	}

	// Wave order, so upstream expected-hit outputs are available when
	// downstream keys are computed.
	for _, wave := range g.Waves {
		for _, i := range wave {
			id := ids[i]
			if !id.Known {
				continue
			}
			if id.QoS.Accuracy > 0 {
				accuracy *= id.QoS.Accuracy
			}
			if m != nil && id.Cacheable {
				if id.Inputs == nil {
					if inputs, err := p.Resolve(p.Steps[i], expectedHit, nil); err == nil {
						id = id.WithInputs(inputs, m)
					}
				}
				if id.Keyed {
					if e, ok := m.Peek(id.Key); ok {
						expectedHits++
						hitOutputs[i] = e.Outputs
						continue
					}
				}
			}
			cost += id.QoS.CostPerCall
			stepLat[i] = id.QoS.Latency
		}
	}
	latency = CriticalPath(g, stepLat)
	return cost, latency, accuracy, expectedHits
}

// CriticalPath computes the longest dependency chain through the plan's
// graph, weighting each step by stepLat, indexed by position: every step
// finishes its own latency after its dependencies have (Graph.ReadyAt), and
// the plan finishes with its last step.
func CriticalPath(g planner.Graph, stepLat []time.Duration) time.Duration {
	var finBuf [8]time.Duration
	finish := sized(finBuf[:], len(stepLat))
	var longest time.Duration
	for _, wave := range g.Waves {
		for _, i := range wave {
			finish[i] = g.ReadyAt(i, finish) + stepLat[i]
			longest = max(longest, finish[i])
		}
	}
	return longest
}

// sized returns n zero values: the first n of buf when they fit — buf is a
// fresh array of the caller's that does not escape, so a plan of a few steps
// is walked without a heap allocation — and a new slice otherwise.
func sized[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}
