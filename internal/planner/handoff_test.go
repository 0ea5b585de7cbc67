package planner

import (
	"fmt"
	"reflect"
	"testing"

	"blueprint/internal/durability"
	"blueprint/internal/memo"
)

// handoffPlan has every kind of binding, with literals of the types agents
// bind (an int job id, a string, a nested object), and a step with no
// binding map.
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

// logged is what the durability value codec recovers of a value: what a
// stream or memo log gives back after a restart.
func logged(t testing.TB, v any) any {
	t.Helper()
	b, err := durability.AppendValue(nil, v)
	if err != nil {
		t.Fatal(err)
	}
	d := durability.NewDec(b)
	out := d.Value()
	if d.Err() != nil || d.Len() != 0 {
		t.Fatalf("%T decoded with %v and %d bytes left", v, d.Err(), d.Len())
	}
	return out
}

// A logged plan recovers as the *Plan that was logged, field for field: an
// int literal stays an int, a nil binding map stays nil, and only a literal
// that is a generic map comes back with JSON's types. So a step's memo key
// is the same before and after a restart.
func TestPlanRecoversTyped(t *testing.T) {
	p := handoffPlan()
	got, ok := logged(t, p).(*Plan)
	if !ok {
		t.Fatalf("a logged plan recovers as a %T", logged(t, p))
	}
	want := handoffPlan()
	want.Steps[0].Bindings["OPTS"] = Binding{Value: map[string]any{"limit": 3.0, "fields": []any{"name", "status"}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the plan recovered as\n%#v\nwant\n%#v", got, want)
	}
	for i, s := range p.Steps {
		tk, err := memo.ComputeKey(s.Agent, 1, literals(s))
		if err != nil {
			t.Fatal(err)
		}
		if rk, _ := memo.ComputeKey(s.Agent, 1, literals(got.Steps[i])); rk != tk {
			t.Fatalf("step %s has memo key %s live and %s recovered", s.ID, tk, rk)
		}
	}
	planned, err := New(hrRegistry(t), perfectModel(), nil).Plan("I am looking for a data scientist position.")
	if err != nil {
		t.Fatal(err)
	}
	if back := logged(t, planned); !reflect.DeepEqual(back, planned) {
		t.Fatalf("a planned plan recovered as\n%#v\nwant\n%#v", back, planned)
	}
	if _, err := durability.AppendValue(nil, (*Plan)(nil)); err == nil {
		t.Fatal("a nil *Plan was logged")
	}
}

// A plan is the plan its JSON form decodes to, field for field — only
// numbers differ in type (7 stays an int typed, comes back a float64
// decoded) — and a step's memo key is the same on both roads, so what one
// run memoized the other still hits.
func TestFromJSONTypedEqualsDecoded(t *testing.T) {
	p := handoffPlan()
	decoded := planFromJSON(t, p)
	if !reflect.DeepEqual(p, handoffPlan()) {
		t.Fatalf("encoding the plan changed it: %+v", p)
	}
	if p.ID != decoded.ID || p.Utterance != decoded.Utterance || p.Intent != decoded.Intent ||
		!reflect.DeepEqual(p.Explanation, decoded.Explanation) || len(p.Steps) != len(decoded.Steps) {
		t.Fatalf("header differs: %+v vs %+v", p, decoded)
	}
	for i, ts := range p.Steps {
		ds := decoded.Steps[i]
		if ts.ID != ds.ID || ts.Agent != ds.Agent || ts.Task != ds.Task || ts.Score != ds.Score || len(ts.Bindings) != len(ds.Bindings) {
			t.Fatalf("step %d differs: %+v vs %+v", i, ts, ds)
		}
		for param, tb := range ts.Bindings {
			db := ds.Bindings[param]
			tv, dv := tb.Value, db.Value
			tb.Value, db.Value = nil, nil
			if tb != db {
				t.Fatalf("binding %s.%s differs: %+v vs %+v", ts.ID, param, tb, db)
			}
			// A literal is the same value up to its JSON form.
			if fmt.Sprint(tv) != fmt.Sprint(dv) {
				t.Fatalf("literal %s.%s differs: %v vs %v", ts.ID, param, tv, dv)
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
			t.Fatalf("step %s has memo key %s typed and %s decoded", ts.ID, tk, dk)
		}
	}
	if v := decoded.Steps[0].Bindings["JOB_ID"].Value; v != float64(7) {
		t.Fatalf("decoded JOB_ID = %#v, want float64(7): the decode road is not being taken", v)
	}
}

var sinkPlan any

// BenchmarkPlanHandoff is one plan crossing one stream hop, the consumer's
// side of it, through a log: encoded, then decoded as recovery decodes it. In
// process the coordinator runs the published plan itself, and copies nothing.
func BenchmarkPlanHandoff(b *testing.B) {
	p := handoffPlan()
	b.Run("log", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, _ = durability.AppendValue(buf[:0], p)
			sinkPlan = durability.NewDec(buf).Value()
		}
	})
}
