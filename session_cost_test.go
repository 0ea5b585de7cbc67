package blueprint

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"blueprint/internal/agent"
	"blueprint/internal/obs"
	"blueprint/internal/streams"
)

// A new session holds what starting it touched: the five streams the session
// manager and the agents' announcements write (user, event, control, session,
// display) — an agent's own output stream comes into being with its first
// output — 17 subscriptions, 17 goroutines, and the paper-visible
// ENTER_SESSION / ADD_AGENT pair of each of the eleven standard agents. With
// DataDir, every stream created and every message appended is one log record
// and nothing else is logged.
func TestNewSessionHoldsWhatItTouched(t *testing.T) {
	sys, err := New(Config{ModelAccuracy: 1.0, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	stats := sys.Store.StatsSnapshot
	before, goroutines, appends := stats(), runtime.NumGoroutine(), sys.DurabilityStats().Appends

	sess, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	after := stats()
	if got := after.StreamsCreated - before.StreamsCreated; got != 5 {
		t.Errorf("StartSession created %d streams, want 5", got)
	}
	if got := after.Subscriptions - before.Subscriptions; got != 17 {
		t.Errorf("StartSession holds %d subscriptions, want 17", got)
	}
	if got := runtime.NumGoroutine() - goroutines; got != 17 {
		t.Errorf("StartSession started %d goroutines, want 17", got)
	}
	ops := map[string]int{}
	msgs, err := sys.Store.ReadAll(agent.SessionStream(sess.ID))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		ops[m.Directive.Op]++
	}
	if n := len(StandardAgents); ops[streams.OpEnterSession] != n || ops[streams.OpAddAgent] != n || len(msgs) != 2*n {
		t.Errorf("session stream holds %v, want %d ENTER_SESSION and %d ADD_AGENT", ops, n, n)
	}

	sess.Close()
	closed := stats()
	logged := (closed.StreamsCreated - before.StreamsCreated) + (closed.MessagesAppended - before.MessagesAppended)
	if got := int64(sys.DurabilityStats().Appends - appends); got != logged {
		t.Errorf("StartSession and Close logged %d records, want one for each of the %d streams and messages", got, logged)
	}

	// A planned ask creates the output streams of the agents on its path,
	// and no others.
	sess, err = sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Ask("Summarize the applicants for job 3", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	awaitPlanResults(t, sess, 1)
	var outs []string
	for _, info := range sys.Store.List(sess.ID) {
		if strings.HasSuffix(info.ID, ":out") {
			outs = append(outs, info.ID)
		}
	}
	if len(outs) == 0 || len(outs) >= len(StandardAgents) {
		t.Errorf("after one planned ask %d agents have an output stream (%v), want only those that published", len(outs), outs)
	}
}

// Each planned ask runs exactly one plan: the Agentic Employer tags both of
// its outputs "plan", and the JOB_ID beside the PLAN must neither run as one
// nor count as one.
func TestPlannedAskRunsOnePlan(t *testing.T) {
	sys := newSystem(t)
	plans := func() float64 { return obs.Default.Snapshot()["blueprint_plans_total"] }
	for _, ask := range []struct {
		name string
		do   func(*Session) (string, error)
	}{
		{"click", func(s *Session) (string, error) {
			return s.Click(map[string]any{"action": "select_job", "job_id": 5}, 10*time.Second)
		}},
		{"summarize", func(s *Session) (string, error) { return s.Ask("Summarize the applicants for job 7", 10*time.Second) }},
		{"rank", func(s *Session) (string, error) { return s.Ask("Rank the top candidates for job 12", 10*time.Second) }},
		{"advice", func(s *Session) (string, error) {
			return s.Ask("What career advice do you have for becoming a data scientist?", 10*time.Second)
		}},
	} {
		t.Run(ask.name, func(t *testing.T) {
			sess, err := sys.StartSession("")
			if err != nil {
				t.Fatal(err)
			}
			before := plans()
			if _, err := ask.do(sess); err != nil {
				t.Fatal(err)
			}
			awaitPlanResults(t, sess, 1)
			sess.Close() // drains whatever the service still runs
			if got := len(sess.PlanResults()); got != 1 {
				t.Errorf("the ask left %d plan results, want 1", got)
			}
			if got := plans() - before; got != 1 {
				t.Errorf("blueprint_plans_total grew by %v, want 1", got)
			}
		})
	}
}
