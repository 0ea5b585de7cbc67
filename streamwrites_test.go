package blueprint

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"blueprint/internal/agent"
	"blueprint/internal/coordinator"
	"blueprint/internal/hragents"
	"blueprint/internal/streams"
)

// writeClass groups the messages TestStreamWrites finds: the stream's role
// (its id without the session prefix), the sender, the kind, the directive's
// op and the tags.
type writeClass struct {
	role, sender, kind, op, tags string
}

// streamWritesKept is the allow-list of TestStreamWrites: a class of message
// that no reader in the program consumes, kept for the reader named beside it.
// An entry no unread message falls under fails the test.
var streamWritesKept = map[writeClass]string{
	{role: hragents.QuerySummarizer + ":out", sender: hragents.QuerySummarizer, kind: "data", tags: "SUMMARY summary"}: "the last hop of Fig. 10 (fig10Pattern)",
	{role: "display", sender: "coordinator", kind: "data", tags: "result"}:                                             "a plan's result shown after the displaying agent's answer: benchmark/unit.go's awaitResult waits for it",
}

// TestStreamWrites is the rule "a message is written only if something reads
// it", checked on the writes of six asks — a count, a per-city group-by, a
// job search, a summarize, a rank and a click — each run twice, cold and then
// memo-warm, in one session of a System with DataDir. A message is read when:
//   - data or an event: a deployed agent's ListenFilter matches it, or the
//     coordinator service reads it as a plan (coordinator.ReadsPlan);
//   - an EXECUTE_AGENT or ABORT: the agent it addresses is deployed;
//   - an AGENT_DONE or AGENT_ERROR: an EXECUTE_AGENT of the session named its
//     invocation, so its caller awaits it;
//   - a display message: it is the first one of its ask, the ask's answer;
//   - a session-stream record: recovery replays it (Members).
//
// Any other message fails the test unless its class is in streamWritesKept.
// Under -v the test logs every class with its count and readers, and what
// each pass wrote: messages, DataDir records and log bytes.
func TestStreamWrites(t *testing.T) {
	sys := newDurableSystem(t, t.TempDir())
	defer sys.Close()
	sess, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ask := func(text string) func() (string, error) {
		return func() (string, error) { return sess.Ask(text, 10*time.Second) }
	}
	asks := []func() (string, error){
		ask("How many jobs are in San Francisco?"),
		ask("How many jobs are there per city?"),
		ask("I am looking for a data scientist position in SF bay area."),
		ask("Summarize the applicants for job 3"),
		ask("Rank the applicants for job 3"),
		func() (string, error) {
			return sess.Click(map[string]any{"action": "select_job", "job_id": 5}, 10*time.Second)
		},
	}
	const plansPerPass = 3 // the summarize, the rank and the click
	for pass := 1; pass <= 2; pass++ {
		msgs, log := len(sess.History()), sys.DurabilityStats()
		for i, do := range asks {
			if _, err := do(); err != nil {
				t.Fatalf("pass %d, ask %d: %v", pass, i+1, err)
			}
		}
		awaitPlanResults(t, sess, pass*plansPerPass)
		now := sys.DurabilityStats()
		t.Logf("pass %d: %d messages, %d DataDir records, %d log bytes", pass,
			len(sess.History())-msgs, now.Appends-log.Appends, now.AppendedBytes-log.AppendedBytes)
	}

	members := sess.Members()
	var listens []streams.Filter
	for _, name := range members {
		spec, err := sys.AgentRegistry.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if f, ok := agent.ListenFilter(spec); ok {
			listens = append(listens, f)
		}
	}
	history := sess.History()
	awaited := map[string]bool{}
	for _, m := range history {
		if d := m.Directive; d != nil && d.Op == streams.OpExecuteAgent {
			awaited[d.Invocation] = true
		}
	}
	answered := map[uint64]bool{}
	reader := func(m *streams.Message, role string) string {
		switch d := m.Directive; {
		case role == "session":
			return "recovery"
		case role == "display":
			if m.Ask == 0 || answered[m.Ask] {
				return ""
			}
			answered[m.Ask] = true
			return "answer"
		case d != nil && (d.Op == streams.OpExecuteAgent || d.Op == streams.OpAbort):
			if slices.Contains(members, d.Agent) || (d.Op == streams.OpAbort && d.Agent == "") {
				return "addressee"
			}
		case d != nil && (d.Op == agent.OpAgentDone || d.Op == agent.OpAgentError):
			if awaited[d.Invocation] {
				return "caller"
			}
		case m.Kind == streams.Data || m.Kind == streams.Event:
			if coordinator.ReadsPlan(m) {
				return "coordinator"
			}
			for _, f := range listens {
				if f.Matches(m) {
					return "listener"
				}
			}
		}
		return ""
	}

	type tally struct {
		n, unread int
		readers   map[string]bool
	}
	classes := map[writeClass]*tally{}
	for i := range history {
		m := &history[i]
		c := writeClass{
			role:   strings.TrimPrefix(m.Stream, sess.ID+":"),
			sender: m.Sender, kind: m.Kind.String(), tags: strings.Join(m.Tags, " "),
		}
		if m.Directive != nil {
			c.op = m.Directive.Op
		}
		tl := classes[c]
		if tl == nil {
			tl = &tally{readers: map[string]bool{}}
			classes[c] = tl
		}
		tl.n++
		if r := reader(m, c.role); r != "" {
			tl.readers[r] = true
		} else {
			tl.unread++
		}
	}
	keys := slices.SortedFunc(maps.Keys(classes), func(a, b writeClass) int {
		return strings.Compare(fmt.Sprint(a), fmt.Sprint(b))
	})
	var failures []string
	t.Logf("%-24s %-18s %-7s %-14s %-18s %4s %6s  %s", "stream", "sender", "kind", "op", "tags", "n", "unread", "read by")
	for _, c := range keys {
		tl := classes[c]
		t.Logf("%-24s %-18s %-7s %-14s %-18s %4d %6d  %s", c.role, c.sender, c.kind, c.op, c.tags, tl.n, tl.unread,
			strings.Join(slices.Sorted(maps.Keys(tl.readers)), ","))
		if _, kept := streamWritesKept[c]; tl.unread > 0 && !kept {
			failures = append(failures, fmt.Sprintf("%+v: %d of %d messages have no reader", c, tl.unread, tl.n))
		}
	}
	for c, why := range streamWritesKept {
		if tl := classes[c]; tl == nil || tl.unread == 0 {
			failures = append(failures, fmt.Sprintf("%+v: on the allow-list (%s) but no unread message is of the class", c, why))
		}
	}
	for _, f := range failures {
		t.Error(f)
	}
}
