package blueprint

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"blueprint/internal/agent"
	"blueprint/internal/hragents"
	"blueprint/internal/obs"
	"blueprint/internal/session"
	"blueprint/internal/streams"
)

// A new session holds what starting it touched: the five streams the session
// manager creates (user, event, control, session, display) — an agent's own
// output stream comes into being with its first output — one ADD_AGENT
// record naming the eleven standard agents in spawn order, and — the agents
// and the coordinator service being deployed already, another session live —
// no subscription and no goroutine. Close leaves none of it: the session's
// streams are dropped, with one drop record. With DataDir, every stream
// created and every message appended is one log record, the drop one more,
// and nothing else is logged.
func TestNewSessionHoldsWhatItTouched(t *testing.T) {
	sys, err := New(Config{ModelAccuracy: 1.0, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.StartSession(""); err != nil { // deploys the standard agents
		t.Fatal(err)
	}
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
	if got := after.Subscriptions - before.Subscriptions; got != 0 {
		t.Errorf("StartSession holds %d subscriptions, want 0", got)
	}
	if got := runtime.NumGoroutine() - goroutines; got != 0 {
		t.Errorf("StartSession started %d goroutines, want 0", got)
	}
	record := func(i int, op string, names []string) {
		t.Helper()
		msgs, err := sys.Store.ReadAll(session.SessionStream(sess.ID))
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) != i+1 {
			t.Fatalf("session stream holds %d messages, want %d", len(msgs), i+1)
		}
		if m := msgs[i]; m.Directive.Op != op || m.Payload != strings.Join(names, "\n") {
			t.Errorf("session stream message %d is %s %q, want %s %q", i, m.Directive.Op, m.Payload, op, names)
		}
	}
	record(0, streams.OpAddAgent, StandardAgents)

	sess.Close()
	if left := sys.Store.List(sess.ID); len(left) != 0 {
		t.Errorf("Close left %d streams of %s: %+v", len(left), sess.ID, left)
	}
	closed := stats()
	logged := (closed.StreamsCreated - before.StreamsCreated) + (closed.MessagesAppended - before.MessagesAppended)
	if got := int64(sys.DurabilityStats().Appends - appends); got != logged+1 || logged != 6 {
		t.Errorf("StartSession and Close logged %d records, want 7: one for each of the %d streams and messages, and the drop", got, logged)
	}

	// A planned ask creates the output streams of the agents that published
	// on its path — the intent classifier's, and the agentic employer's,
	// whose plan the coordinator runs — and no other: the plan's steps
	// report their outputs, so no stream is named for the plan.
	sess, err = sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	started := map[string]bool{}
	for _, info := range sys.Store.List(sess.ID) {
		started[info.ID] = true
	}
	if _, err := sess.Ask("Summarize the applicants for job 3", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	awaitPlanResults(t, sess, 1)
	var added []string
	for _, info := range sys.Store.List(sess.ID) {
		if !started[info.ID] {
			added = append(added, info.ID)
		}
	}
	slices.Sort(added)
	want := []string{agent.OutputStream(sess.ID, hragents.AgenticEmployer), agent.OutputStream(sess.ID, hragents.IntentClassifier)}
	if !slices.Equal(added, want) {
		t.Errorf("after one planned ask the session holds the new streams %v, want %v", added, want)
	}
}

// Idle conversations are cheap to keep: 512 sessions started beside a live one
// retain their streams, their one membership record and a seat in the
// coordinator service each — not eleven agent instances, nor a coordinator of
// their own — and no goroutine. The heap ceiling is above what that takes
// (about 5 KB) and a sixth of what a session held when every one instantiated
// the agents (48 KB of heap, 64 KB of stack, 17 goroutines); the stack one is
// half a goroutine's smallest stack, so a goroutine a session fails it.
func TestIdleSessionsStayCheap(t *testing.T) {
	sys, err := New(Config{ModelAccuracy: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.StartSession(""); err != nil {
		t.Fatal(err)
	}
	read := func() (m runtime.MemStats) {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m
	}
	const sessions = 512
	before, goroutines, start := read(), runtime.NumGoroutine(), time.Now()
	for i := 0; i < sessions; i++ {
		if _, err := sys.StartSession(""); err != nil {
			t.Fatal(err)
		}
	}
	took := time.Since(start)
	after := read()
	heapKB := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / 1024 / sessions
	stackKB := (float64(after.StackInuse) - float64(before.StackInuse)) / 1024 / sessions
	t.Logf("%d idle sessions: %.1f KB of heap, %.1f KB of stack and %.2f goroutines each, started in %.1f us each",
		sessions, heapKB, stackKB, float64(runtime.NumGoroutine()-goroutines)/sessions, float64(took.Microseconds())/sessions)
	if heapKB > 8 {
		t.Errorf("an idle session retains %.1f KB of heap, want at most 8", heapKB)
	}
	if stackKB > 1 {
		t.Errorf("an idle session holds %.1f KB of stack, want at most 1", stackKB)
	}
}

// Each planned ask runs exactly one plan: the Agentic Employer's one PLAN
// output, tagged "plan", runs once and counts once, whether the ask is a
// click, a summarize, a rank or a request for advice.
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

// BenchmarkStartSessionBesideLive is what one more conversation costs a
// process that already holds 512: StartSession and Close of a session whose
// agents are deployed — it joins them and leaves — with the goroutines and
// subscriptions each of the 512 live sessions holds reported beside it.
func BenchmarkStartSessionBesideLive(b *testing.B) {
	sys, err := New(Config{ModelAccuracy: 1.0})
	if err != nil {
		b.Fatal(err)
	}
	// Closed after the timer has stopped: closing the 512 is not the measured work.
	b.Cleanup(sys.Close)
	if _, err := sys.StartSession(""); err != nil { // deploys the standard agents
		b.Fatal(err)
	}
	const live = 512
	goroutines, subs := runtime.NumGoroutine(), sys.Store.StatsSnapshot().Subscriptions
	for i := 0; i < live; i++ {
		if _, err := sys.StartSession(""); err != nil {
			b.Fatal(err)
		}
	}
	goroutinesEach := float64(runtime.NumGoroutine()-goroutines) / live
	subsEach := float64(sys.Store.StatsSnapshot().Subscriptions-subs) / live
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := sys.StartSession("")
		if err != nil {
			b.Fatal(err)
		}
		sess.Close()
	}
	b.ReportMetric(goroutinesEach, "goroutines/session")
	b.ReportMetric(subsEach, "subscriptions/session")
}
