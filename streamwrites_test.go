package blueprint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"blueprint/internal/agent"
	"blueprint/internal/coordinator"
	"blueprint/internal/hragents"
	"blueprint/internal/obs"
	"blueprint/internal/streams"
	"blueprint/internal/trace"
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
//   - a display message: it is the first one of its ask, its answer or its
//     failure;
//   - a session-stream record: recovery replays it (Members).
//
// Any other message fails the test unless its class is in streamWritesKept.
// Under -v the test logs every class with its count and readers, and what
// each pass wrote: messages, DataDir records and log bytes.
//
// Then the census of reads after the answer, which decides what a session
// may release (obs.KeptAsks): the program's readers of stored messages are
// found in its source and must each be in historyReaders, which says how far
// back each reaches; each class is logged with the readers that reach it
// once its ask has answered, and the test fails unless the classes only
// observability and the snapshot reach are on streams held to the horizon
// and the rest on a stream that keeps all. Last, the evidence: past the
// horizon (obs.KeptAsks asks more) the six asks answer as in the second pass
// and Members is unchanged, with the first passes' messages released.
func TestStreamWrites(t *testing.T) {
	sys := newDurableSystem(t, t.TempDir())
	defer sys.Close()
	sess, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	asks := sixAsks(sess)
	answers := make([]string, len(asks)) // the second pass's, memo-warm
	for pass := 1; pass <= 2; pass++ {
		msgs, log := len(sess.History()), sys.DurabilityStats()
		for i, do := range asks {
			ans, err := do()
			if err != nil {
				t.Fatalf("pass %d, ask %d: %v", pass, i+1, err)
			}
			answers[i] = ans
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
		c := classOf(m, sess.ID)
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

	afterAnswer(t, sys, sess, history, keys)

	// Past the horizon: what the first passes wrote may go, and nothing the
	// session does later needs it.
	for i := 0; i < obs.KeptAsks; i++ {
		if _, err := sess.Ask("How many jobs are in San Francisco?", 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for i, do := range asks {
		if ans, err := do(); err != nil || ans != answers[i] {
			t.Errorf("past the horizon, ask %d answered %q (%v), where the second pass answered %q", i+1, ans, err, answers[i])
		}
	}
	awaitPlanResults(t, sess, 3*plansPerPass)
	if got := sess.Members(); !slices.Equal(got, members) { // as before the horizon
		t.Errorf("past the horizon, Members = %v, was %v", got, members)
	}
	t.Logf("past the horizon: %d messages of %s released", sess.Released(), sess.ID)
	if sess.Released() == 0 {
		t.Errorf("%d asks past the first passes released nothing", obs.KeptAsks)
	}
}

// sixAsks are the asks TestStreamWrites checks, on one session: a count, a
// per-city group-by, a job search, a summarize and a rank of job 3, and a
// click on job 5. The last plansPerPass of them each run a plan.
func sixAsks(sess *Session) []func() (string, error) {
	ask := func(text string) func() (string, error) {
		return func() (string, error) { return sess.Ask(text, 10*time.Second) }
	}
	return []func() (string, error){
		ask("How many jobs are in San Francisco?"),
		ask("How many jobs are there per city?"),
		ask("I am looking for a data scientist position in SF bay area."),
		ask("Summarize the applicants for job 3"),
		ask("Rank the applicants for job 3"),
		func() (string, error) {
			return sess.Click(map[string]any{"action": "select_job", "job_id": 5}, 10*time.Second)
		},
	}
}

// plansPerPass counts the sixAsks that run a plan: the summarize, the rank
// and the click.
const plansPerPass = 3

// Each step of trace.Flow renders as its whole payload truncated to 60
// runes, though a long payload (a ROWS result) is rendered only as far as
// the cut (streams.Message.PayloadHead): on the six asks of TestStreamWrites,
// every step's Payload equals obs.Truncate(PayloadString(), 60) of its
// message, an AGENT_DONE report's outputs standing for its payload.
func TestFlowStepsRenderTheirPayloadsHead(t *testing.T) {
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
	for i, do := range sixAsks(sess) {
		if _, err := do(); err != nil {
			t.Fatalf("ask %d: %v", i+1, err)
		}
	}
	awaitPlanResults(t, sess, plansPerPass)
	history, flow := sys.Store.History(sess.ID), trace.Flow(sys.Store, sess.ID)
	if len(flow) != len(history) {
		t.Fatalf("%d flow steps of %d messages", len(flow), len(history))
	}
	rows := 0
	for i, m := range history {
		if d := m.Directive; d != nil && d.Op == agent.OpAgentDone && d.Outputs != nil {
			m.Payload = d.Outputs
		}
		if _, ok := m.Payload.(*hragents.QueryRows); ok {
			rows++
		}
		if want := obs.Truncate(m.PayloadString(), 60); flow[i].Payload != want {
			t.Errorf("step %d (%s %s) renders\n%s\nnot\n%s", i, m.Sender, m.Stream, flow[i].Payload, want)
		}
	}
	t.Logf("%d steps, %d of them ROWS results", len(flow), rows)
	if rows == 0 {
		t.Error("no ROWS step among the six asks")
	}
}

// historyReader is one of the program's reads of stored messages: the
// streams it reads, what it reaches of a message whose ask has answered, and
// why.
type historyReader struct {
	role string // the stream it reads, by its id without the session prefix; "" for every stream of the scope
	// reach is "own ask" for none of an answered ask's messages, "observe"
	// for every kept one, shown to an operator or a test, and "state" for
	// every one, which the program's own state is rebuilt from.
	reach string
	why   string
}

// historyReaders is the census of reads after the answer: every function of
// the program, outside benchmark/ and internal/streams, that calls a
// stream store's History, Read or ReadAll, a replaying Subscribe or a
// SubscribeFrom. TestStreamWrites parses the program for them, and fails on
// one missing here or an entry that makes no such call. Beside them, the
// durability engine's snapshot writes every kept message, through the
// store's durability.Loggable Snapshot.
var historyReaders = map[string]historyReader{
	"agent.AwaitDone":              {"control", "own ask", "replays the session's reports and takes only its own invocation's; an answered ask's invocations are done, and an invocation id is never used twice"},
	"session.Session.awaitDisplay": {"display", "own ask", "an ask's answer wait resumes at DisplayLen, read before the ask posted, and passes over other asks' messages"},
	"session.Session.Members":      {"session", "state", "replays every membership record"},
	"session.Session.Display":      {"display", "observe", "every kept display message; only tests call it (censusKept)"},
	"session.Session.History":      {"", "observe", "every kept message of the scope"},
	"trace.Flow":                   {"", "observe", "every kept message of the scope (bpctl ask, GET /sessions/{id}/flow)"},
}

// classOf is the class of a message of the session.
func classOf(m *streams.Message, session string) writeClass {
	c := writeClass{
		role:   strings.TrimPrefix(m.Stream, session+":"),
		sender: m.Sender, kind: m.Kind.String(), tags: strings.Join(m.Tags, " "),
	}
	if m.Directive != nil {
		c.op = m.Directive.Op
	}
	return c
}

// afterAnswer is TestStreamWrites' census of reads after the answer, over
// the classes (keys) of the six asks' messages (history).
func afterAnswer(t *testing.T, sys *System, sess *Session, history []streams.Message, keys []writeClass) {
	t.Helper()
	found := historyReadCalls(t)
	for fn := range found {
		if _, ok := historyReaders[fn]; !ok {
			t.Errorf("%s reads stored messages (%s) but is not in historyReaders", fn, found[fn])
		}
	}
	for fn, r := range historyReaders {
		if found[fn] == "" {
			t.Errorf("historyReaders: %s reads no stored message", fn)
		}
		t.Logf("history reader %-30s %-8s reaches %-7s %s: %s", fn, r.role, r.reach, found[fn], r.why)
	}

	// The "own ask" readers select by ids an answered ask no longer waits
	// on: each display message names its ask, and each invocation id is
	// named by one EXECUTE_AGENT.
	invocations := map[string]int{}
	for i := range history {
		m := &history[i]
		if m.Stream == agent.DisplayStream(sess.ID) && m.Ask == 0 {
			t.Errorf("display message %s names no ask: another ask's wait could not pass it over", m.ID)
		}
		if d := m.Directive; d != nil && d.Op == streams.OpExecuteAgent {
			if invocations[d.Invocation]++; invocations[d.Invocation] > 1 {
				t.Errorf("invocation %s was started twice: a report wait could take an answered ask's report", d.Invocation)
			}
		}
	}

	// Each class, with the readers that reach it after its answer. A class
	// that only observability reaches may be released; the stream of one the
	// program's state is rebuilt from must keep all.
	n := map[writeClass]int{}
	for i := range history {
		n[classOf(&history[i], sess.ID)]++
	}
	t.Logf("%-24s %-18s %-7s %-14s %-18s %4s  %s", "stream", "sender", "kind", "op", "tags", "n", "read after the answer by")
	for _, c := range keys {
		var readers []string
		needed := false // by the program's state
		for fn, r := range historyReaders {
			if r.reach != "own ask" && (r.role == "" || r.role == c.role) {
				readers = append(readers, fn)
				needed = needed || r.reach == "state"
			}
		}
		slices.Sort(readers)
		readers = append(readers, "snapshot")
		t.Logf("%-24s %-18s %-7s %-14s %-18s %4d  %s", c.role, c.sender, c.kind, c.op, c.tags, n[c], strings.Join(readers, ","))
		info, err := sys.Store.Info(sess.ID + ":" + c.role)
		if err != nil {
			t.Fatal(err)
		}
		keepsAll := slices.Contains(info.Tags, streams.TagKeepAll)
		if needed != keepsAll {
			t.Errorf("%+v: read after the answer by %v, but its stream keeps all: %t", c, readers, keepsAll)
		}
	}
}

// historyReadCalls parses the program's Go outside benchmark/ and
// internal/streams and returns each function that reads stored messages,
// with the calls it makes: History, Read, ReadAll, Subscribe with replay
// true, SubscribeFrom, called on something other than a package.
func historyReadCalls(t *testing.T) map[string]string {
	t.Helper()
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	reads := map[string]bool{"History": true, "Read": true, "ReadAll": true, "Subscribe": true, "SubscribeFrom": true}
	fset := token.NewFileSet()
	found := map[string]string{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata" || rel == "benchmark" || rel == "internal/streams") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || isTestFile(path) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		packages := map[string]bool{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			packages[name] = true
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn := f.Name.Name + "." + recvName(fd) + fd.Name.Name
			ast.Inspect(fd, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !reads[sel.Sel.Name] {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && packages[x.Name] {
					return true // io.ReadAll and the like
				}
				if sel.Sel.Name == "Subscribe" {
					if replay, ok := call.Args[len(call.Args)-1].(*ast.Ident); !ok || replay.Name != "true" {
						return true // no replay: only what is appended after it
					}
				}
				found[fn] = strings.TrimSpace(found[fn] + " " + sel.Sel.Name)
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}
