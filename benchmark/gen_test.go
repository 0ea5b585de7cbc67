package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func testWorld() *world {
	w := &world{
		Cities: []string{"Austin", "New York", "San Jose", "Seattle"},
		Titles: []string{"Backend Engineer", "Data Scientist", "Product Manager"},
	}
	for id := 1; id <= 400; id++ {
		w.Apps = append(w.Apps, appRef{ID: id, Job: 1 + id%150, Status: statuses[id%len(statuses)]})
	}
	return w
}

func requests(t *testing.T, sp spec, seed int64, client int) []byte {
	t.Helper()
	sessions, asks := sp.sized(1.0/8, false, 2)
	ops, err := generate(sp, seed, client, 2, sessions, asks, testWorld())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(ops)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, sp := range specs {
		a, b := requests(t, sp, 7, 0), requests(t, sp, 7, 0)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different request lists", sp.Name)
		}
		if bytes.Equal(a, requests(t, sp, 8, 0)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request list", sp.Name)
		}
		if bytes.Equal(a, requests(t, sp, 7, 1)) {
			t.Errorf("%s: clients 0 and 1 gave the same request list", sp.Name)
		}
	}
}

func TestGeneratorShapesAndPartition(t *testing.T) {
	w := testWorld()
	for _, sp := range specs {
		sessions, asks := sp.sized(1.0/8, false, 2)
		for client := 0; client < 2; client++ {
			ops, err := generate(sp, 3, client, 2, sessions, asks, w)
			if err != nil {
				t.Fatal(err)
			}
			shapes, kinds := map[string]int{}, map[string]int{}
			perSession := map[int]int{}
			for _, o := range ops {
				kinds[o.Kind]++
				if knownWrong[o.Text] {
					t.Errorf("%s: generated a known wrong answer: %q", sp.Name, o.Text)
				}
				if o.Kind == opAsk {
					shapes[o.Shape]++
					perSession[o.Session]++
				}
				// A writing workload keeps every job a client asks or writes
				// about in the client's own half.
				if sp.WriteEvery > 0 && o.Job != 0 && (o.Job-1)%2 != client {
					t.Errorf("%s: client %d touches job %d of the other client", sp.Name, client, o.Job)
				}
			}
			if kinds[opAsk] != sessions/2*asks {
				t.Errorf("%s: %d asks, want %d", sp.Name, kinds[opAsk], sessions/2*asks)
			}
			for s, n := range perSession {
				if n != asks {
					t.Errorf("%s: session %d got %d asks, want %d", sp.Name, s, n, asks)
				}
			}
			if sp.CreateTimed != (kinds[opCreate] == sessions/2) || (!sp.CreateTimed && kinds[opCreate] != 0) {
				t.Errorf("%s: %d timed creates", sp.Name, kinds[opCreate])
			}
			if sp.WriteEvery > 0 && kinds[opWrite] != kinds[opAsk]/sp.WriteEvery {
				t.Errorf("%s: %d writes for %d asks", sp.Name, kinds[opWrite], kinds[opAsk])
			}
			nlq := shapes[shapeCount] + shapes[shapeGroupBy] + shapes[shapeSearch]
			plan := shapes[shapeSummarize] + shapes[shapeRank]
			switch sp.Content {
			case contentNLQ:
				if plan != 0 {
					t.Errorf("%s: %d planned asks in an NLQ workload", sp.Name, plan)
				}
			case contentPlan:
				if nlq != 0 {
					t.Errorf("%s: %d NLQ asks in a planned workload", sp.Name, nlq)
				}
			case contentEven:
				if d := nlq - plan; d < -1 || d > 1 {
					t.Errorf("%s: mix is %d NLQ to %d planned, want even", sp.Name, nlq, plan)
				}
			}
		}
	}
}

func TestAnchorCity(t *testing.T) {
	w := testWorld()
	for region, want := range map[string]string{"SF bay area": "", "seattle area": "Seattle", "new york metro": "New York"} {
		if got := w.anchorCity(region); got != want {
			t.Errorf("anchorCity(%q) = %q, want %q", region, got, want)
		}
	}
}
