package trace

import (
	"strings"
	"testing"
	"unicode/utf8"

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
