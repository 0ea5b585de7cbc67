package trace

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"blueprint/internal/agent"
	"blueprint/internal/hragents"
	"blueprint/internal/obs"
	"blueprint/internal/registry"
	"blueprint/internal/relational"
	"blueprint/internal/streams"
)

func buildFlow(t *testing.T) (*streams.Store, []Step) {
	t.Helper()
	s := streams.NewStore()
	t.Cleanup(func() { s.Close() })
	if _, err := s.CreateStream("sess:user", streams.StreamInfo{Session: "sess"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateStream("sess:control", streams.StreamInfo{Session: "sess"}); err != nil {
		t.Fatal(err)
	}
	msgs := []streams.Message{
		{Stream: "sess:user", Kind: streams.Data, Sender: "user", Tags: []string{"utterance"}, Payload: "hello"},
		{Stream: "sess:user", Kind: streams.Data, Sender: "IC", Tags: []string{"intent"}, Payload: map[string]any{"intent": "open_query"}},
		{Stream: "sess:control", Kind: streams.Control, Sender: "coordinator",
			Directive: &streams.Directive{Op: streams.OpExecuteAgent, Agent: "SQL"}},
		{Stream: "sess:user", Kind: streams.Data, Sender: "SQL", Tags: []string{"ROWS"}, Payload: strings.Repeat("x", 100)},
	}
	for _, m := range msgs {
		if _, err := s.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	return s, Flow(s, "sess")
}

func TestFlowExtraction(t *testing.T) {
	_, flow := buildFlow(t)
	if len(flow) != 4 {
		t.Fatalf("flow = %d steps", len(flow))
	}
	if flow[2].Op != streams.OpExecuteAgent || flow[2].Agent != "SQL" {
		t.Fatalf("control step = %+v", flow[2])
	}
	if len(flow[3].Payload) != 63 { // truncated to 60 + "..."
		t.Fatalf("payload not truncated: %d", len(flow[3].Payload))
	}
	for i := 1; i < len(flow); i++ {
		if flow[i].TS <= flow[i-1].TS {
			t.Fatal("flow not ordered")
		}
	}
}

func TestFlowTruncationIsRuneSafe(t *testing.T) {
	s := streams.NewStore()
	t.Cleanup(func() { s.Close() })
	if _, err := s.CreateStream("sess:user", streams.StreamInfo{Session: "sess"}); err != nil {
		t.Fatal(err)
	}
	// 4-byte runes positioned so a byte slice at 60 would land mid-rune.
	payload := strings.Repeat("x", 59) + strings.Repeat("\U0001F600", 4)
	if _, err := s.Append(streams.Message{
		Stream: "sess:user", Kind: streams.Data, Sender: "user", Payload: payload,
	}); err != nil {
		t.Fatal(err)
	}
	flow := Flow(s, "sess")
	got := flow[0].Payload
	if !strings.HasSuffix(got, "...") {
		t.Fatalf("long payload not truncated: %q", got)
	}
	if !utf8.ValidString(got) {
		t.Fatalf("truncation split a rune: %q", got)
	}
}

// An AGENT_DONE report renders its invocation's outputs as its payload,
// truncated as a data payload is — the declared ones: EXTRA, which would sort
// first, is not among them; the directive that started it renders none.
func TestFlowRendersReportOutputs(t *testing.T) {
	s := streams.NewStore()
	t.Cleanup(func() { s.Close() })
	a := agent.New(registry.AgentSpec{
		Name:    "LONG",
		Inputs:  []registry.ParamSpec{{Name: "N", Type: "number"}},
		Outputs: []registry.ParamSpec{{Name: "OUT", Type: "text"}},
	}, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		return agent.Outputs{Values: map[string]any{"OUT": strings.Repeat("y", 100), "EXTRA": 1}}, nil
	})
	inst, err := agent.Attach(s, "sess", a, agent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	if err := agent.Execute(s, "sess", "LONG", map[string]any{"N": 1}, "", "inv"); err != nil {
		t.Fatal(err)
	}
	if d := agent.AwaitDone(s, "sess", "inv"); d == nil || d.Op != agent.OpAgentDone {
		t.Fatalf("report = %+v", d)
	}
	var reports []Step
	for _, st := range Flow(s, "sess") {
		switch st.Op {
		case agent.OpAgentDone:
			reports = append(reports, st)
		case streams.OpExecuteAgent:
			if st.Payload != "" {
				t.Errorf("EXECUTE_AGENT rendered %q", st.Payload)
			}
		}
	}
	if len(reports) != 1 {
		t.Fatalf("%d reports in the flow, want 1", len(reports))
	}
	want := `{"OUT":"` + strings.Repeat("y", 60-len(`{"OUT":"`)) + "..."
	if got := reports[0].Payload; got != want {
		t.Errorf("report carrying outputs rendered %q, want %q", got, want)
	}
}

// A failure record renders its error as its payload, as a report carrying
// outputs renders them, and so does an ABORT: the flow of a failed ask says
// why it failed, and that of an aborted plan why it stopped.
func TestFlowRendersFailureCause(t *testing.T) {
	s := streams.NewStore()
	t.Cleanup(func() { s.Close() })
	a := agent.New(registry.AgentSpec{
		Name:    "FAILER",
		Inputs:  []registry.ParamSpec{{Name: "N", Type: "number"}},
		Outputs: []registry.ParamSpec{{Name: "OUT", Type: "text"}},
	}, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		return agent.Outputs{}, errors.New("no such column \"nope\"")
	})
	inst, err := agent.Attach(s, "sess", a, agent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	reports := s.Subscribe(agent.ReportFilter("sess"), false)
	defer reports.Cancel()
	if err := agent.Execute(s, "sess", "FAILER", map[string]any{"N": 1}, "", "inv"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if d, err := agent.AwaitReport(ctx, reports, "inv"); err != nil || d.Op != agent.OpAgentError {
		t.Fatalf("report = %+v (%v)", d, err)
	}
	if _, err := s.Append(streams.Message{
		Stream: agent.DisplayStream("sess"), Kind: streams.Control, Sender: "coordinator",
		Directive: &streams.Directive{Op: agent.OpAgentError, Agent: "FAILER", Error: "step q: " + strings.Repeat("x", 80)},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(streams.Message{
		Stream: agent.ControlStream("sess"), Kind: streams.Control, Sender: "coordinator",
		Directive: &streams.Directive{Op: streams.OpAbort, Error: "budget: cost 0.31 over limit 0.30"},
	}); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, st := range Flow(s, "sess") {
		if st.Op == agent.OpAgentError || st.Op == streams.OpAbort {
			got = append(got, st.Payload)
		}
	}
	want := []string{`no such column "nope"`, "step q: " + strings.Repeat("x", 60-len("step q: ")) + "...", "budget: cost 0.31 over limit 0.30"}
	if !slices.Equal(got, want) {
		t.Fatalf("failure records rendered %q, want %q", got, want)
	}
}

func TestMatchSequence(t *testing.T) {
	_, flow := buildFlow(t)
	pattern := []Matcher{
		{Sender: "user", Tag: "utterance", Kind: streams.Data},
		{Sender: "IC", Tag: "intent", Kind: streams.Data},
		{Op: streams.OpExecuteAgent, Agent: "SQL", Kind: streams.Control},
		{Sender: "SQL", Kind: streams.Data},
	}
	idx, ok := MatchSequence(flow, pattern)
	if !ok || len(idx) != 4 {
		t.Fatalf("sequence not matched: %v %v\n%s", idx, ok, Render(flow))
	}
	// Order matters: reversed pattern must fail.
	rev := []Matcher{pattern[3], pattern[0]}
	if _, ok := MatchSequence(flow, rev); ok {
		t.Fatal("reversed pattern matched")
	}
	// Missing sender fails.
	if _, ok := MatchSequence(flow, []Matcher{{Sender: "ghost", AnyKind: true}}); ok {
		t.Fatal("ghost matched")
	}
	// AnyKind matches across kinds.
	if _, ok := MatchSequence(flow, []Matcher{{Sender: "coordinator", AnyKind: true}}); !ok {
		t.Fatal("AnyKind failed")
	}
}

func TestSendersAndCounts(t *testing.T) {
	_, flow := buildFlow(t)
	senders := Senders(flow)
	want := []string{"user", "IC", "coordinator", "SQL"}
	if len(senders) != len(want) {
		t.Fatalf("senders = %v", senders)
	}
	for i := range want {
		if senders[i] != want[i] {
			t.Fatalf("senders = %v, want %v", senders, want)
		}
	}
	bySender := CountBySender(flow)
	if bySender["user"] != 1 || bySender["SQL"] != 1 {
		t.Fatalf("bySender = %v", bySender)
	}
}

func TestRender(t *testing.T) {
	_, flow := buildFlow(t)
	out := Render(flow)
	for _, want := range []string{"user", "EXECUTE_AGENT(SQL)", "tags=[utterance]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// A ROWS step renders only as much of its result as its 60 runes need: as a
// payload and as an AGENT_DONE report's outputs it reads as the whole
// rendering truncated, whatever the row count, and a 4 000-row step costs no
// more than a 4-row one plus 1 KB.
func TestFlowRendersOnlyTheHead(t *testing.T) {
	wide := func(n int) *hragents.QueryRows {
		q := &hragents.QueryRows{Columns: []string{"id", "title", "city"}, SQL: "SELECT id, title, city FROM jobs WHERE title <> '<none>'"}
		for i := 0; i < n; i++ {
			q.Rows = append(q.Rows, relational.Row{relational.NewInt(int64(i)), relational.NewString("Data <Scientist> é"), relational.NewString("SF")})
		}
		return q
	}
	narrow := func(n int) *hragents.QueryRows { // seven bytes a row: the head needs several
		q := &hragents.QueryRows{Columns: []string{"n"}, SQL: "SELECT n FROM t"}
		for i := 0; i < n; i++ {
			q.Rows = append(q.Rows, relational.Row{relational.NewInt(int64(i % 10))})
		}
		return q
	}
	flowOf := func(payloads ...*hragents.QueryRows) (*streams.Store, []Step) {
		s := streams.NewStore()
		t.Cleanup(func() { s.Close() })
		for _, id := range []string{"sess:user", "sess:control"} {
			if _, err := s.CreateStream(id, streams.StreamInfo{Session: "sess"}); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range payloads {
			for _, m := range []streams.Message{
				{Stream: "sess:user", Kind: streams.Data, Sender: "SQLEXECUTOR", Tags: []string{"ROWS"}, Payload: q},
				{Stream: "sess:control", Kind: streams.Control, Sender: "SQLEXECUTOR",
					Directive: &streams.Directive{Op: agent.OpAgentDone, Outputs: map[string]any{"ROWS": q, "n": len(q.Rows)}}},
			} {
				if _, err := s.Append(m); err != nil {
					t.Fatal(err)
				}
			}
		}
		return s, Flow(s, "sess")
	}

	var all []*hragents.QueryRows
	for _, n := range []int{0, 1, 2, 3, 4, 5, 8, 9, 17, 400, 4000} {
		all = append(all, wide(n), narrow(n))
	}
	_, flow := flowOf(all...)
	for i, step := range flow {
		q := all[i/2]
		m := streams.Message{Payload: q}
		if i%2 == 1 {
			m.Payload = map[string]any{"ROWS": q, "n": len(q.Rows)}
		}
		if want := obs.Truncate(m.PayloadString(), 60); step.Payload != want {
			t.Errorf("step %d (%d rows) renders\n%s\nnot\n%s", i, len(q.Rows), step.Payload, want)
		}
	}

	allocated := func(rows int) uint64 {
		s, _ := flowOf(wide(rows))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		const runs = 50
		for i := 0; i < runs; i++ {
			Flow(s, "sess")
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	few, many := allocated(4), allocated(4000)
	t.Logf("a flow of a ROWS payload and its report allocates %d B at 4 rows, %d B at 4 000", few, many)
	if many > few+1024 {
		t.Errorf("a 4 000-row step allocates %d B, a 4-row one %d B: more than 1 KB apart", many, few)
	}
}
