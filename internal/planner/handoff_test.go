package planner

import (
	"fmt"
	"reflect"
	"testing"

	"blueprint/internal/memo"
)

// handoffPlan has every kind of binding, with literals of the types agents
// bind (an int job id, a string, a nested object).
func handoffPlan() *Plan {
	return &Plan{
		ID: "ae-summarize-7", Utterance: "summarize job 7", Intent: "summarize",
		Steps: []Step{
			{ID: "s1", Agent: "SUMMARIZER", Task: "summarize applicants", Score: 0.75, Bindings: map[string]Binding{
				"JOB_ID": {Value: 7},
				"STYLE":  {Value: "short"},
				"OPTS":   {Value: map[string]any{"limit": 3, "fields": []any{"name", "status"}}},
			}},
			{ID: "s2", Agent: "PRESENTER", Task: "present", Bindings: map[string]Binding{
				"SUMMARY": {FromStep: "s1", FromParam: "SUMMARY"},
				"TEXT":    {FromUserText: true, Transform: "criteria"},
			}},
			{ID: "s3", Agent: "LOGGER", Task: "no inputs"},
		},
		Explanation: []string{"intent: summarize"},
	}
}

// literals returns the inputs a step's literal bindings resolve to.
func literals(s Step) map[string]any {
	in := map[string]any{}
	for param, b := range s.Bindings {
		if b.Value != nil {
			in[param] = b.Value
		}
	}
	return in
}

// A plan handed over typed is the plan its JSON form decodes to, field for
// field — only numbers differ in type (7 stays an int typed, comes back a
// float64 decoded) — and a step's memo key is the same on both roads, so
// what one run memoized the other still hits, also across a restart.
func TestFromJSONTypedEqualsDecoded(t *testing.T) {
	p := handoffPlan()
	decoded, err := FromJSON(p.ToJSON())
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string]any{"*Plan": p, "Plan": *p} {
		typed, err := FromJSON(payload)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(typed, p) {
			t.Fatalf("%s: FromJSON changed the plan:\n%+v\n%+v", name, typed, p)
		}
		if typed.ID != decoded.ID || typed.Utterance != decoded.Utterance || typed.Intent != decoded.Intent ||
			!reflect.DeepEqual(typed.Explanation, decoded.Explanation) || len(typed.Steps) != len(decoded.Steps) {
			t.Fatalf("%s: header differs: %+v vs %+v", name, typed, decoded)
		}
		for i, ts := range typed.Steps {
			ds := decoded.Steps[i]
			if ts.ID != ds.ID || ts.Agent != ds.Agent || ts.Task != ds.Task || ts.Score != ds.Score || len(ts.Bindings) != len(ds.Bindings) {
				t.Fatalf("%s: step %d differs: %+v vs %+v", name, i, ts, ds)
			}
			for param, tb := range ts.Bindings {
				db := ds.Bindings[param]
				tv, dv := tb.Value, db.Value
				tb.Value, db.Value = nil, nil
				if tb != db {
					t.Fatalf("%s: binding %s.%s differs: %+v vs %+v", name, ts.ID, param, tb, db)
				}
				// A literal is the same value up to its JSON form.
				if fmt.Sprint(tv) != fmt.Sprint(dv) {
					t.Fatalf("%s: literal %s.%s differs: %v vs %v", name, ts.ID, param, tv, dv)
				}
			}
			tk, err := memo.ComputeKey(ts.Agent, 1, literals(ts))
			if err != nil {
				t.Fatal(err)
			}
			dk, err := memo.ComputeKey(ds.Agent, 1, literals(ds))
			if err != nil {
				t.Fatal(err)
			}
			if tk != dk {
				t.Fatalf("%s: step %s has memo key %s typed and %s decoded", name, ts.ID, tk, dk)
			}
		}
	}
	if v := decoded.Steps[0].Bindings["JOB_ID"].Value; v != float64(7) {
		t.Fatalf("decoded JOB_ID = %#v, want float64(7): the decode road is not being taken", v)
	}
	if _, err := FromJSON((*Plan)(nil)); err == nil {
		t.Fatal("FromJSON accepted a nil *Plan")
	}
}

// What FromJSON returns shares no mutable state with the payload: the
// payload stays in the stream's history, and a reader may rewrite the plan it
// decoded (optimizer.AssignAgents reassigns steps in place).
func TestFromJSONCopies(t *testing.T) {
	p := handoffPlan()
	got, err := FromJSON(p)
	if err != nil {
		t.Fatal(err)
	}
	got.Steps[0].Agent = "OTHER"
	got.Steps[0].Bindings["JOB_ID"] = Binding{Value: 8}
	got.Steps = append(got.Steps, Step{ID: "s4", Agent: "X"})
	got.Explanation[0] = "rewritten"
	if !reflect.DeepEqual(p, handoffPlan()) {
		t.Fatalf("writing to FromJSON's plan changed the payload: %+v", p)
	}
}

var sinkPlan *Plan

// BenchmarkPlanHandoff is one plan crossing one in-process stream hop, the
// consumer's side of it: typed (a copy) against what it replaced, the JSON
// object form (struct -> bytes -> map at the producer, map -> bytes -> struct
// here), which a recovered log still takes.
func BenchmarkPlanHandoff(b *testing.B) {
	p := handoffPlan()
	b.Run("typed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var payload any = p
			sinkPlan, _ = FromJSON(payload)
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var payload any = p.ToJSON()
			sinkPlan, _ = FromJSON(payload)
		}
	})
}
