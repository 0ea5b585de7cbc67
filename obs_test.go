package blueprint

import (
	"context"
	"strings"
	"testing"
	"time"

	"blueprint/internal/obs"
	"blueprint/internal/resilience"
)

// TestAskProducesSpanTree is the end-to-end observability acceptance test:
// one Ask through the full stack must yield a span tree with at least four
// distinct components, every child's parent present, and the cross-stream
// token hop (coordinator -> directive -> agent runtime) intact.
func TestAskProducesSpanTree(t *testing.T) {
	sys, err := New(Config{ModelAccuracy: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sess, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// A summarize intent exercises the whole chain: session root, the
	// Agentic Employer's plan, the coordinator service, scheduler, memo
	// and the Summarizer agent's relational statements.
	t0 := time.Now()
	if _, err := sess.Ask("Summarize the applicants for job 3", 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// The tracer is process-global and session IDs restart per System, so
	// the ring may hold spans from other tests' sessions with the same ID;
	// only spans started by this test's ask are in scope.
	ours := func(all []obs.SpanData) []obs.SpanData {
		var out []obs.SpanData
		for _, sp := range all {
			if !sp.Start.Before(t0) {
				out = append(out, sp)
			}
		}
		return out
	}

	// The plan span records just after the display answer is delivered;
	// poll briefly for the full tree.
	want := []string{"session", "coordinator", "scheduler", "memo", "agent", "relational"}
	var spans []obs.SpanData
	deadline := time.Now().Add(2 * time.Second)
	for {
		spans = ours(obs.Spans.Session(sess.ID))
		components := map[string]bool{}
		for _, sp := range spans {
			components[sp.Component] = true
		}
		ok := true
		for _, c := range want {
			ok = ok && components[c]
		}
		if ok || time.Now().After(deadline) {
			for _, c := range want {
				if !components[c] {
					t.Fatalf("span tree missing component %q (got %v)\n%s",
						c, components, obs.RenderTree(spans))
				}
			}
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Structural checks: exactly the asked root, and every parent resolves.
	byID := map[uint64]obs.SpanData{}
	roots := 0
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	for _, sp := range spans {
		if sp.Parent == 0 {
			roots++
			if sp.Component != "session" || sp.Name != "ask" {
				t.Fatalf("root span = %s/%s, want session/ask", sp.Component, sp.Name)
			}
			continue
		}
		if _, ok := byID[sp.Parent]; !ok {
			t.Fatalf("span %s/%s has dangling parent %d", sp.Component, sp.Name, sp.Parent)
		}
	}
	if roots != 1 {
		t.Fatalf("roots = %d, want 1", roots)
	}

	// The cross-stream hop: the Summarizer's agent span must be parented
	// under the scheduler step that directed it, not floated to the root.
	foundHop := false
	for _, sp := range spans {
		if sp.Component == "agent" && strings.Contains(spanAttr(sp, "invocation"), "summarize") {
			parent := byID[sp.Parent]
			if parent.Component == "scheduler" {
				foundHop = true
			}
		}
	}
	if !foundHop {
		t.Fatalf("no agent span parented under a scheduler step:\n%s", obs.RenderTree(spans))
	}
}

func spanAttr(sp obs.SpanData, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// BenchmarkGovernedAskRecording prices the event log and the flight recorder
// on the ask path: a memo-warm governed ask with both off, and with events
// recorded at debug and exemplars captured past the default threshold.
func BenchmarkGovernedAskRecording(b *testing.B) {
	prevLevel, prevThreshold := obs.Events.Level(), obs.SlowAsks.Threshold()
	defer func() {
		obs.Events.SetLevel(prevLevel)
		obs.SlowAsks.SetThreshold(prevThreshold)
	}()
	for _, mode := range []struct {
		name      string
		level     obs.Level
		threshold time.Duration
	}{{"off", obs.LevelOff, -1}, {"on", obs.LevelDebug, obs.DefaultSlowThreshold}} {
		b.Run(mode.name, func(b *testing.B) {
			sys, err := New(Config{Governor: resilience.GovernorConfig{MaxConcurrent: 8}})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			sess, err := sys.StartSession("")
			if err != nil {
				b.Fatal(err)
			}
			obs.Events.SetLevel(mode.level)
			obs.SlowAsks.SetThreshold(mode.threshold)
			const utterance = "Summarize the applicants for job 3"
			for i := 0; i < 3; i++ { // the first ask fills the step memo
				if _, err := sess.GovernedAsk(context.Background(), "default", utterance, 10*time.Second); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.GovernedAsk(context.Background(), "default", utterance, 10*time.Second); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
