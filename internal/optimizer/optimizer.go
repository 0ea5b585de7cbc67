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

// AssignAgents revisits every step of a task plan and, among the registry's
// top matches for the step's sub-task, picks the agent optimizing the
// objectives (the per-step greedy assignment of §IV's task-plan
// optimization). Steps keep their original agent when it remains the best
// choice. Returns the number of reassignments.
func AssignAgents(p *planner.Plan, reg *registry.AgentRegistry, obj Objectives, limits budget.Limits) (int, error) {
	changed := 0
	for i := range p.Steps {
		hits := reg.FindForTask(p.Steps[i].Task, 5)
		if len(hits) == 0 {
			continue
		}
		// Relevance gate: only consider candidates close to the best match,
		// so QoS never trades away capability.
		top := hits[0].Score
		cands := make([]Candidate, 0, len(hits))
		for _, h := range hits {
			if h.Score < top*0.8 {
				continue
			}
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

// EstimatePlanWithMemo projects a task plan's cost, latency and accuracy from
// the registered QoS profiles — the projection the coordinator hands to the
// budget before execution (§V-H "along with an initial budget and projected
// costs estimated by the optimizer"). g is the plan's graph (Plan.Graph): the
// coordinator passes the value its scheduler executes, so the projection and
// the execution order the same DAG.
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
// concrete inputs, so a step is projectable when Plan.Resolve can bind every
// input without executing anything — literal values, the raw utterance, or
// the cached outputs of an upstream step that is itself an expected hit.
// Model-dependent transforms and outputs of steps that must execute stay
// unpredictable and are conservatively priced as misses.
func EstimatePlanWithMemo(p *planner.Plan, g planner.Graph, reg *registry.AgentRegistry, m *memo.Store) (cost float64, latency time.Duration, accuracy float64, expectedHits int) {
	accuracy = 1.0
	stepLat := make(map[string]time.Duration, len(p.Steps))
	// Made here although only a hit writes it: it does not escape, so here it
	// lives on the stack; made inside the loop, on the first hit, it is a heap
	// allocation per projection of a warm plan.
	hitOutputs := make(map[string]map[string]any)
	expectedHit := func(step string) (map[string]any, bool) {
		out, ok := hitOutputs[step]
		return out, ok
	}

	// Wave order, so upstream expected-hit outputs are available when
	// downstream keys are computed.
	for _, wave := range g.Waves {
		for _, id := range wave {
			s, _ := p.Step(id)
			spec, err := reg.Get(s.Agent)
			if err != nil {
				continue
			}
			if spec.QoS.Accuracy > 0 {
				accuracy *= spec.QoS.Accuracy
			}
			if m != nil && spec.Cacheable {
				if inputs, err := p.Resolve(s, expectedHit, nil); err == nil {
					if key, err := memo.ComputeKey(spec.Name, spec.Version, inputs); err == nil {
						if e, ok := m.Peek(key); ok {
							expectedHits++
							stepLat[s.ID] = 0
							hitOutputs[s.ID] = e.Outputs
							continue
						}
					}
				}
			}
			cost += spec.QoS.CostPerCall
			stepLat[s.ID] = spec.QoS.Latency
		}
	}
	latency = CriticalPath(g, stepLat)
	return cost, latency, accuracy, expectedHits
}

// CriticalPath computes the longest dependency chain through the plan's
// graph, weighting each step by stepLat (steps absent from the map weigh
// zero): every step finishes its own latency after its dependencies have
// (Graph.ReadyAt), and the plan finishes with its last step.
func CriticalPath(g planner.Graph, stepLat map[string]time.Duration) time.Duration {
	finish := make(map[string]time.Duration, len(stepLat))
	var longest time.Duration
	for _, wave := range g.Waves {
		for _, id := range wave {
			finish[id] = g.ReadyAt(id, finish) + stepLat[id]
			longest = max(longest, finish[id])
		}
	}
	return longest
}
