package streams

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"blueprint/internal/durability"
)

const testSubID = 4

func openDurableStore(t testing.TB, dir string) (*Store, *durability.Engine) {
	t.Helper()
	s := NewStore()
	eng, err := durability.Open(dir, durability.Options{DisableFsync: true, FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(testSubID, "streams", s); err != nil {
		t.Fatal(err)
	}
	s.SetDurable(eng.Logger(testSubID).Append)
	if err := eng.Recover(); err != nil {
		t.Fatal(err)
	}
	return s, eng
}

func publishN(t testing.TB, s *Store, stream string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.Publish(Message{
			Stream: stream, Sender: "tester", Payload: map[string]any{"i": i},
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// payloadI extracts the "i" counter a publishN message carries, tolerating
// the JSON round trip (numbers decode as float64).
func payloadI(m Message) string {
	p, ok := m.Payload.(map[string]any)
	if !ok {
		return fmt.Sprintf("bad payload %T", m.Payload)
	}
	return fmt.Sprint(p["i"])
}

func TestEngineReplayRecoversStreams(t *testing.T) {
	dir := t.TempDir()
	s, eng := openDurableStore(t, dir)
	publishN(t, s, "chat", 20)
	if err := s.CloseStream("done-stream", "tester"); err == nil {
		t.Fatal("closing a missing stream should fail") // sanity
	}
	if _, err := s.Publish(Message{Stream: "done-stream", Sender: "tester", Payload: map[string]any{"x": 1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseStream("done-stream", "tester"); err != nil {
		t.Fatal(err)
	}
	mustCreate(t, s, "conv", StreamInfo{Session: "s:9", Creator: "ui", Tags: []string{"conversation"}})
	mustAppend(t, s, Message{Stream: "conv", Kind: Data, Sender: "user", Payload: "I am looking for a data scientist position"})
	last := mustAppend(t, s, Message{Stream: "conv", Kind: Control, Sender: "ic", Directive: &Directive{Op: OpExecuteAgent, Agent: "nl2q"}})
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, eng2 := openDurableStore(t, dir)
	defer eng2.Close()
	defer s2.Close()
	conv, err := s2.Info("conv")
	if err != nil {
		t.Fatal(err)
	}
	if conv.Session != "s:9" || conv.Creator != "ui" || len(conv.Tags) != 1 || conv.Len != 2 {
		t.Fatalf("recovered stream info = %+v", conv)
	}
	convMsgs, err := s2.ReadAll("conv")
	if err != nil {
		t.Fatal(err)
	}
	if got := convMsgs[0].PayloadString(); got != "I am looking for a data scientist position" {
		t.Fatalf("recovered payload = %q", got)
	}
	if d := convMsgs[1].Directive; d == nil || d.Op != OpExecuteAgent || d.Agent != "nl2q" {
		t.Fatalf("recovered directive = %+v", d)
	}
	msgs, err := s2.ReadAll("chat")
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 20 {
		t.Fatalf("recovered %d messages, want 20", len(msgs))
	}
	for i, m := range msgs {
		if payloadI(m) != fmt.Sprint(i) {
			t.Fatalf("message %d payload = %v", i, payloadI(m))
		}
	}
	info, err := s2.Info("done-stream")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Closed {
		t.Fatal("EOS state lost across recovery")
	}
	// The logical clock must continue past the recovered history — no
	// reused TS.
	m, err := s2.Publish(Message{Stream: "chat", Sender: "tester", Payload: map[string]any{"i": 20}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Seq != 20 {
		t.Fatalf("post-recovery Seq = %d, want 20", m.Seq)
	}
	if m.TS <= last.TS {
		t.Fatalf("clock did not resume: new TS %d <= recovered %d", m.TS, last.TS)
	}
	holders := 0
	for _, h := range s2.History("") {
		if h.TS == m.TS {
			holders++
		}
	}
	if holders != 1 {
		t.Fatalf("TS %d is held by %d messages after recovery, want 1", m.TS, holders)
	}
	if _, err := s2.Append(Message{Stream: "done-stream", Payload: "late"}); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("append to a recovered closed stream: err = %v, want ErrStreamClosed", err)
	}
}

func TestEngineSnapshotPlusTailReplay(t *testing.T) {
	dir := t.TempDir()
	s, eng := openDurableStore(t, dir)
	publishN(t, s, "chat", 10)
	if err := eng.Snapshot(); err != nil {
		t.Fatal(err)
	}
	publishN(t, s, "chat", 5) // the post-snapshot tail
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, eng2 := openDurableStore(t, dir)
	defer eng2.Close()
	defer s2.Close()
	msgs, err := s2.ReadAll("chat")
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 15 {
		t.Fatalf("recovered %d messages (snapshot 10 + tail 5), want 15", len(msgs))
	}
	for i, m := range msgs {
		if m.Seq != int64(i) {
			t.Fatalf("message %d has Seq %d after snapshot+replay (duplicate or gap)", i, m.Seq)
		}
	}
}

func TestSnapshotRestoreRoundTripDirect(t *testing.T) {
	s := NewStore()
	defer s.Close()
	publishN(t, s, "a", 3)
	publishN(t, s, "b", 2)
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	defer s2.Close()
	if err := s2.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	for stream, want := range map[string]int{"a": 3, "b": 2} {
		msgs, err := s2.ReadAll(stream)
		if err != nil || len(msgs) != want {
			t.Fatalf("stream %s: %d messages (err %v), want %d", stream, len(msgs), err, want)
		}
	}
	if got := s2.StatsSnapshot(); got.MessagesAppended != 5 {
		t.Fatalf("restored stats count %d appends, want 5", got.MessagesAppended)
	}
}

func TestEngineTornTailPrefixForStreams(t *testing.T) {
	dir := t.TempDir()
	s, eng := openDurableStore(t, dir)
	publishN(t, s, "chat", 30)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	seg := filepath.Join(dir, "wal-00000001.log")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()*2/3); err != nil {
		t.Fatal(err)
	}
	s2, eng2 := openDurableStore(t, dir)
	msgs, err := s2.ReadAll("chat")
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) == 0 || len(msgs) >= 30 {
		t.Fatalf("recovered %d messages from a 2/3 log, want a proper prefix", len(msgs))
	}
	for i, m := range msgs {
		if payloadI(m) != fmt.Sprint(i) {
			t.Fatalf("message %d is not the committed prefix: %v", i, payloadI(m))
		}
	}

	// The torn tail is truncated, so what the next run appends lands at a
	// valid record boundary and a third run recovers it.
	if _, err := s2.Publish(Message{Stream: "chat", Sender: "tester", Payload: map[string]any{"i": "after"}}); err != nil {
		t.Fatal(err)
	}
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, eng3 := openDurableStore(t, dir)
	defer eng3.Close()
	defer s3.Close()
	again, err := s3.ReadAll("chat")
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(msgs)+1 || payloadI(again[len(again)-1]) != "after" {
		t.Fatalf("third run recovered %d messages, want the %d-message prefix plus the append after it", len(again), len(msgs))
	}
}

// TestSinkFailureLeavesStoreUnchanged: a mutation whose log record the sink
// refuses did not happen — nothing stored, counted or delivered — and the
// retry takes the place the failed call would have had.
func TestSinkFailureLeavesStoreUnchanged(t *testing.T) {
	s := NewStore()
	defer s.Close()
	fail := false
	var logged int
	s.SetDurable(func([]byte) error {
		if fail {
			fail = false
			return errors.New("disk full")
		}
		logged++
		return nil
	})

	fail = true
	if _, err := s.CreateStream("chat", StreamInfo{}); err == nil {
		t.Fatal("CreateStream succeeded over a failing sink")
	}
	if _, err := s.Info("chat"); !errors.Is(err, ErrStreamNotFound) {
		t.Fatalf("failed CreateStream left the stream registered: err = %v", err)
	}
	if got := s.StatsSnapshot(); got.StreamsCreated != 0 || len(s.List("")) != 0 {
		t.Fatalf("failed CreateStream was counted: %+v, list %v", got, s.List(""))
	}
	created, err := s.CreateStream("chat", StreamInfo{})
	if err != nil {
		t.Fatalf("retried CreateStream: %v", err) // not ErrStreamExists
	}
	first := mustAppend(t, s, Message{Stream: "chat", Payload: "one"})

	sub := s.Subscribe(Filter{Streams: []string{"chat"}}, false)
	defer sub.Cancel()
	before := s.StatsSnapshot()
	fail = true
	if _, err := s.Append(Message{Stream: "chat", Payload: "lost"}); err == nil {
		t.Fatal("Append succeeded over a failing sink")
	}
	if info, _ := s.Info("chat"); info.Len != 1 || info.Closed {
		t.Fatalf("failed Append changed the stream: %+v", info)
	}
	if msgs, _ := s.ReadAll("chat"); len(msgs) != 1 || msgs[0].PayloadString() != "one" {
		t.Fatalf("failed Append is in the history: %+v", msgs)
	}
	if after := s.StatsSnapshot(); after != before {
		t.Fatalf("failed Append moved the counters: %+v -> %+v", before, after)
	}

	// A failed EOS must not close the stream either.
	fail = true
	if err := s.CloseStream("chat", "tester"); err == nil {
		t.Fatal("CloseStream succeeded over a failing sink")
	}
	second := mustAppend(t, s, Message{Stream: "chat", Payload: "two"})
	if second.Seq != 1 || second.TS != first.TS+1 || first.TS != created.CreatedTS+1 {
		t.Fatalf("retry after failures: Seq %d TS %d (first TS %d, created %d), want the failed calls to have claimed nothing",
			second.Seq, second.TS, first.TS, created.CreatedTS)
	}
	// The subscriber sees the retry first: the failed message was never delivered.
	if got := recvTimeout(t, sub.C()); got.TS != second.TS {
		t.Fatalf("subscriber received %q (TS %d), want the retry at TS %d", got.PayloadString(), got.TS, second.TS)
	}
	if logged != 3 {
		t.Fatalf("sink accepted %d records, want 3 (create, one, two)", logged)
	}
}

// TestRecoveryKeepsBytes: every string a stream or message holds comes back
// byte for byte, valid UTF-8 or not, whether recovery replays the log or
// restores a snapshot (encoding/json would turn "\xff" into U+FFFD, and the
// stream "s\xff" would no longer be found) — and a message's Ask, which names
// an ask of the process that wrote it, comes back as 0.
func TestRecoveryKeepsBytes(t *testing.T) {
	for _, viaSnapshot := range []bool{false, true} {
		name := map[bool]string{false: "replay", true: "restore"}[viaSnapshot]
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, eng := openDurableStore(t, dir)
			mustCreate(t, s, "s\xff", StreamInfo{Session: "x\xfe:y\xff", Tags: []string{"t\xff"}, Creator: "c\xfe"})
			mustAppend(t, s, Message{Stream: "s\xff", Sender: "a\xff", Tags: []string{"t\xff", ""}, Param: "q\xfe", Payload: "p\xff", Ask: 7})
			mustAppend(t, s, Message{Stream: "s\xff", Sender: "a\xff", Payload: ""})
			mustAppend(t, s, Message{Stream: "s\xff", Kind: Control, Directive: &Directive{Op: "o\xff", Agent: "g\xfe"}, Ask: 1 << 63})
			wantInfo, wantHist := s.List(""), s.History("")
			// An ask id is not logged: the recovered messages have Ask 0.
			if wantHist[0].Ask != 7 || wantHist[2].Ask != 1<<63 {
				t.Fatalf("the live history lost its ask ids: %+v", wantHist)
			}
			for i := range wantHist {
				wantHist[i].Ask = 0
			}
			if viaSnapshot {
				if err := eng.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			s.Close()

			s2, eng2 := openDurableStore(t, dir)
			defer eng2.Close()
			defer s2.Close()
			if rec := eng2.Stats().Recovery; rec.SnapshotRestored != viaSnapshot || (viaSnapshot && rec.ReplayedRecords != 0) {
				t.Fatalf("recovery took the wrong path: %+v", rec)
			}
			if _, err := s2.Info("s\xff"); err != nil {
				t.Fatalf("Info of the recovered stream: %v", err)
			}
			if got := s2.List(""); !reflect.DeepEqual(got, wantInfo) {
				t.Fatalf("recovered streams %+v, want %+v", got, wantInfo)
			}
			got := s2.History("")
			if !reflect.DeepEqual(got, wantHist) {
				t.Fatalf("recovered history:\n%+v\nwant\n%+v", got, wantHist)
			}
			if got[1].Payload != "" {
				t.Fatalf("an empty string payload recovered as %#v", got[1].Payload)
			}
		})
	}
}

// directiveOfEachOp is one directive of each op the program speaks, every
// typed field its op uses set to a value the old float-millisecond path
// would not have kept exactly. Input and output values are strings or what
// encoding/json decodes into, as recovery returns them.
func directiveOfEachOp() []Directive {
	return []Directive{{
		Op: OpExecuteAgent, Agent: "SQLEXECUTOR", Invocation: "plan-1-q-7", ReplyStream: "session:1:SQLEXECUTOR:out",
		Inputs: map[string]any{"SQL": "SELECT id FROM jobs WHERE city = 'Zürich'", "LIMIT": 25.0, "OPTS": map[string]any{"cached": true, "hint": nil}},
		Parent: 1<<63 | 12345, Deadline: 1_790_000_000_123_456_789,
	}, {
		Op: "AGENT_DONE", Agent: "SQLEXECUTOR", Invocation: "plan-1-q-7",
		Cost: math.Nextafter(0.3, 1), Accuracy: math.Copysign(0, -1), Latency: 1_234_567,
		Outputs: map[string]any{"ROWS": []any{"a", 1.5, map[string]any{"id": 3.0}}, "TEXT": "3 rows\x00\xff"},
	}, {
		Op: "AGENT_DONE", Agent: "QUERY_SUMMARIZER", Invocation: "QUERY_SUMMARIZER-4", Outputs: map[string]any{},
		Cost: math.SmallestNonzeroFloat64, Accuracy: 0.95, Latency: 1,
	}, {
		Op: "AGENT_ERROR", Agent: "SQLEXECUTOR", Invocation: "plan-1-q-8", Error: "relational: no such column \"nope\" (at 7)",
	}, {
		Op: OpAbort, Agent: "SQLEXECUTOR", Invocation: "plan-1-q-8",
	}, {
		Op: OpAbort, Reason: "budget: cost 0.31 over limit 0.30",
	}}
}

// TestDirectivesRecoverExactly: one directive of each op, logged and
// recovered by replay and by a snapshot's restore, comes back field for
// field — floats bit for bit, latency and deadline to the nanosecond, and
// every input and output value.
func TestDirectivesRecoverExactly(t *testing.T) {
	for _, viaSnapshot := range []bool{false, true} {
		name := map[bool]string{false: "replay", true: "restore"}[viaSnapshot]
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, eng := openDurableStore(t, dir)
			mustCreate(t, s, "session:1:control", StreamInfo{Session: "session:1"})
			want := directiveOfEachOp()
			for i := range want {
				mustAppend(t, s, Message{Stream: "session:1:control", Kind: Control, Sender: "coordinator", Directive: &want[i]})
			}
			if viaSnapshot {
				if err := eng.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			s.Close()

			s2, eng2 := openDurableStore(t, dir)
			defer eng2.Close()
			defer s2.Close()
			if rec := eng2.Stats().Recovery; rec.SnapshotRestored != viaSnapshot {
				t.Fatalf("recovery took the wrong path: %+v", rec)
			}
			got, err := s2.ReadAll("session:1:control")
			if err != nil || len(got) != len(want) {
				t.Fatalf("recovered %d messages (%v), want %d", len(got), err, len(want))
			}
			for i, m := range got {
				d, w := m.Directive, &want[i]
				if d == nil || !reflect.DeepEqual(*d, *w) ||
					math.Float64bits(d.Cost) != math.Float64bits(w.Cost) ||
					math.Float64bits(d.Accuracy) != math.Float64bits(w.Accuracy) {
					t.Fatalf("%s recovered as\n%#v\nwant\n%#v", w.Op, d, w)
				}
			}
		})
	}
}

// legacyAppendRecord builds the append record a log written before messages
// lost their ids holds: the header the store assigned — Seq, TS, the message
// number n and the message's session — then body, as appendBody writes it.
func legacyAppendRecord(seq, ts, n int64, session string, body []byte) []byte {
	b := durability.AppendUvarint([]byte{recAppend}, uint64(seq))
	b = durability.AppendUvarint(b, uint64(ts))
	b = durability.AppendUvarint(b, uint64(n))
	return append(durability.AppendString(b, session), body...)
}

// TestOlderAppendRecordReplays: an append record, as logs written before
// messages lost their ids hold, still replays. Its message number is
// dropped, and so is its session, which here names another scope than its
// stream's: the replayed message is its stream's, in History and in Drop.
func TestOlderAppendRecordReplays(t *testing.T) {
	s := NewStore()
	defer s.Close()
	mustCreate(t, s, "session:1:chat", StreamInfo{Session: "session:1"})
	body, err := appendBody(nil, &Message{Stream: "session:1:chat", Sender: "user", Tags: []string{"utterance"}, Payload: "hello"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(legacyAppendRecord(0, 2, 41, "session:9", body)); err != nil {
		t.Fatal(err)
	}
	got, _ := s.ReadAll("session:1:chat")
	if len(got) != 1 || got[0].Session != "session:1" || got[0].Seq != 0 || got[0].TS != 2 || got[0].Payload != "hello" || got[0].Sender != "user" {
		t.Fatalf("the append record replayed as %+v", got)
	}
	if h := s.History("session:9"); len(h) != 0 {
		t.Fatalf("the record's own session holds %+v", h)
	}
	if h := s.History("session:1"); len(h) != 1 {
		t.Fatalf("the stream's session holds %d messages, want 1", len(h))
	}
	if next := mustAppend(t, s, Message{Stream: "session:1:chat", Payload: "again"}); next.Seq != 1 || next.TS != 3 {
		t.Fatalf("the append after replay took Seq %d TS %d, want 1 and 3", next.Seq, next.TS)
	}
	if err := s.Drop("session:1"); err != nil {
		t.Fatal(err)
	}
	if n := len(s.History("")); n != 0 {
		t.Fatalf("%d messages outlive the drop of their stream's session", n)
	}
}

// TestUntypedDirectiveRecordFailsRecovery: an append record whose directive
// is Op, Agent and a JSON args map (tag 1), or typed fields behind a mask
// (tag 2), as logs held them before, is refused by name, not read as the
// typed fields.
func TestUntypedDirectiveRecordFailsRecovery(t *testing.T) {
	s := NewStore()
	defer s.Close()
	mustCreate(t, s, "session:1:control", StreamInfo{Session: "session:1"})
	for tag, rest := range map[byte][]byte{
		1: durability.AppendString(nil, `{"invocation_id":"p-s1","inputs":{"SQL":"SELECT 1"}}`),
		2: durability.AppendString([]byte{1}, "p-s1"), // the mask naming the invocation, then it
	} {
		rec := appendHeader(nil, 0, 2)
		rec = durability.AppendString(rec, "session:1:control")
		rec = durability.AppendVarint(rec, int64(Control))
		rec = durability.AppendStrings(rec, nil)
		rec = durability.AppendString(rec, "coordinator")
		rec = durability.AppendString(rec, "")
		rec = append(rec, 0, tag) // a nil payload, then the directive's tag
		rec = durability.AppendString(durability.AppendString(rec, OpExecuteAgent), "SQLEXECUTOR")
		want := fmt.Sprintf("unknown directive tag %#x", tag)
		if err := s.Apply(append(rec, rest...)); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Apply of a directive record under tag %d: err = %v, want it refused by its tag", tag, err)
		}
	}
	if info, _ := s.Info("session:1:control"); info.Len != 0 {
		t.Fatalf("the refused record was stored: %+v", info)
	}
}

// recordingSink keeps a copy of every record it is handed (the store reuses
// its buffer once the sink returns).
type recordingSink struct {
	mu   sync.Mutex
	recs [][]byte
}

func (r *recordingSink) log(rec []byte) error {
	r.mu.Lock()
	r.recs = append(r.recs, bytes.Clone(rec))
	r.mu.Unlock()
	return nil
}

func (r *recordingSink) records() [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recs
}

// jsonRoundTrip is what encoding/json makes of v: what a recovered JSON
// payload holds.
func jsonRoundTrip(t testing.TB, v any) any {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out any
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// shapedMessage is the i-th of three rotating shapes: a string payload, a
// rows-shaped map and an EXECUTE_AGENT directive with inputs.
func shapedMessage(stream, sender string, i int) Message {
	m := Message{Stream: stream, Sender: sender, Tags: []string{sender}}
	switch i % 3 {
	case 0:
		m.Payload = fmt.Sprintf("%s says %d", sender, i)
	case 1:
		m.Tags = append(m.Tags, "ROWS")
		m.Payload = map[string]any{
			"columns": []string{"id", "title"},
			"rows":    []map[string]any{{"id": i, "title": "data engineer"}, {"id": i + 1, "title": "analyst"}},
			"sql":     "SELECT id, title FROM jobs WHERE id > ?",
		}
	case 2:
		m.Kind = Control
		m.Directive = &Directive{Op: OpExecuteAgent, Agent: "SQLEXECUTOR", Invocation: sender, Inputs: map[string]any{"SQL": sender, "n": i}}
	}
	return m
}

// TestHeaderAndBodyBelongToOneMessage: with the body of a record encoded
// before the store lock and its header under it, concurrent appends to
// shared streams still log each message whole and in each stream's Seq
// order — replaying the log gives the same history, message for message.
func TestHeaderAndBodyBelongToOneMessage(t *testing.T) {
	s := NewStore()
	defer s.Close()
	sink := &recordingSink{}
	s.SetDurable(sink.log)
	shared := []string{"shared:a", "shared:b"}
	own := []string{"own:0", "own:1"}
	mustCreate(t, s, shared[0], StreamInfo{Session: "session:1", Tags: []string{"conversation"}})
	mustCreate(t, s, shared[1], StreamInfo{Session: "session:1"})
	mustCreate(t, s, own[0], StreamInfo{Session: "session:2", Creator: "g0"})
	mustCreate(t, s, own[1], StreamInfo{})

	const goroutines, appends = 8, 500
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sender := fmt.Sprintf("g%d", g)
			for i := 0; i < appends; i++ {
				stream := shared[i%2]
				if g < 2 && i%4 == 3 {
					stream = own[g] // goroutines 0 and 1 alone write the other two
				}
				m := shapedMessage(stream, sender, i)
				if i%5 == 0 {
					m.Session = "session:1:" + sender // not stored: the stream's is stamped
				}
				if _, err := s.Append(m); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	replayed := NewStore()
	defer replayed.Close()
	recs := sink.records()
	if want := 4 + goroutines*appends; len(recs) != want {
		t.Fatalf("sink holds %d records, want %d", len(recs), want)
	}
	for i, rec := range recs {
		if err := replayed.Apply(rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	live, got := s.History(""), replayed.History("")
	if len(got) != len(live) {
		t.Fatalf("replay holds %d messages, the store %d", len(got), len(live))
	}
	for i := range live {
		want := live[i]
		// A generic map payload recovers with JSON's types; a string and a
		// directive's string and int inputs recover as themselves.
		if _, isMap := want.Payload.(map[string]any); isMap {
			want.Payload = jsonRoundTrip(t, want.Payload)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("message %d replays as\n%+v\nthe store holds\n%+v", i, got[i], want)
		}
	}
	if !reflect.DeepEqual(replayed.List(""), s.List("")) {
		t.Fatalf("replayed streams %+v, the store's %+v", replayed.List(""), s.List(""))
	}
}

// TestSetDurableMidRunLogsWhatFollows: a sink attached while producers
// append is handed every message stored after SetDurable returned — the
// logged messages are exactly a suffix of the history by timestamp,
// whichever side of the attach a producer encoded on.
func TestSetDurableMidRunLogsWhatFollows(t *testing.T) {
	s := NewStore()
	defer s.Close()
	for _, id := range []string{"a", "b"} {
		mustCreate(t, s, id, StreamInfo{Session: "session:1"})
	}
	var (
		attached atomic.Bool
		appended atomic.Int64
		mustLog  sync.Map // TSs appended after SetDurable returned
		wg       sync.WaitGroup
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, afterAttach := 0, 0; afterAttach < 200; i++ {
				after := attached.Load()
				m, err := s.Append(shapedMessage([]string{"a", "b"}[i%2], fmt.Sprintf("g%d", g), i))
				if err != nil {
					t.Error(err)
					return
				}
				appended.Add(1)
				if after {
					mustLog.Store(m.TS, true)
					afterAttach++
				}
			}
		}(g)
	}
	for appended.Load() < 600 { // the producers get going without a sink
		runtime.Gosched()
	}
	sink := &recordingSink{}
	s.SetDurable(sink.log)
	attached.Store(true)
	wg.Wait()

	logged := map[int64]bool{}
	for _, rec := range sink.records() {
		r, err := decodeRecord(rec)
		if err != nil || r.typ != recMessage {
			t.Fatalf("sink was handed %q (%v)", rec, err)
		}
		logged[r.msg.TS] = true
	}
	mustLog.Range(func(ts, _ any) bool {
		if !logged[ts.(int64)] {
			t.Errorf("message at TS %d was appended after SetDurable returned and is not in the log", ts)
		}
		return true
	})
	hist := s.History("")
	first := len(hist) - len(logged)
	for i, m := range hist {
		if logged[m.TS] != (i >= first) {
			t.Fatalf("the log holds %d messages, not the last %d of the history: message %d (TS %d) logged=%v",
				len(logged), len(logged), i, m.TS, logged[m.TS])
		}
	}
}

// TestParentFormatRecordFailsRecovery: a log written by the JSON record
// format this one replaced is refused by name, not skipped.
func TestParentFormatRecordFailsRecovery(t *testing.T) {
	dir := t.TempDir()
	eng, err := durability.Open(dir, durability.Options{DisableFsync: true, FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Append(testSubID, []byte(`{"t":"create","stream":{"id":"chat","closed":false,"len":0,"created_ts":1}}`)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	s := NewStore()
	defer s.Close()
	eng2, err := durability.Open(dir, durability.Options{DisableFsync: true, FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Register(testSubID, "streams", s); err != nil {
		t.Fatal(err)
	}
	err = eng2.Recover()
	if err == nil || !strings.Contains(err.Error(), "replay streams record") {
		t.Fatalf("Recover over a JSON stream record: err = %v, want it refused as a streams record", err)
	}
	if len(s.List("")) != 0 {
		t.Fatalf("the refused record created %+v", s.List(""))
	}
}

// TestDropForgetsScope: Drop forgets the streams of a scope, sub-scopes
// included and nothing else, as one log record written first — a refused
// record drops nothing — and hands out no timestamp again. A
// subscription naming only dropped streams ends with the Drop; one that also
// names a kept stream, or selects by scope, stays. A stream of the scope
// created anew starts at Seq 0, and it recovers exactly
// even from the worst overlap of snapshot and log: a snapshot taken after the
// reopen, with every record ever logged replayed on top of it.
func TestDropForgetsScope(t *testing.T) {
	s := NewStore()
	defer s.Close()
	var sink recordingSink
	fail := false
	s.SetDurable(func(rec []byte) error {
		if fail {
			fail = false
			return errors.New("disk full")
		}
		return sink.log(rec)
	})
	for _, id := range []string{"session:1:user", "session:1:profile:user", "session:10:user", "other"} {
		session, _ := strings.CutSuffix(id, ":user")
		if _, err := s.CreateStream(id, StreamInfo{Session: session}); err != nil {
			t.Fatal(err)
		}
		publishN(t, s, id, 3)
	}
	dropped := s.Subscribe(Filter{Streams: []string{"session:1:user", "session:1:profile:user"}}, false)
	straddling := s.Subscribe(Filter{Streams: []string{"session:1:user", "session:10:user"}}, false)
	scoped := s.Subscribe(Filter{Session: "session:1"}, false)
	defer straddling.Cancel()
	defer scoped.Cancel()
	ended := func(sub *Subscription) bool {
		select {
		case _, ok := <-sub.C():
			return !ok
		default:
			return false
		}
	}
	fail = true
	if err := s.Drop("session:1"); err == nil {
		t.Fatal("Drop succeeded over a failing sink")
	}
	if n := len(s.List("session:1")); n != 2 {
		t.Fatalf("a refused Drop left %d streams of session:1, want 2", n)
	}
	if ended(dropped) {
		t.Fatal("a refused Drop ended a subscription")
	}
	last := mustAppend(t, s, Message{Stream: "other", Payload: "before"})
	if err := s.Drop("session:1"); err != nil {
		t.Fatal(err)
	}
	if !ended(dropped) || ended(straddling) || ended(scoped) {
		t.Fatalf("after Drop: ended %v, %v, %v; want only the subscription to dropped streams alone ended", ended(dropped), ended(straddling), ended(scoped))
	}
	var kept []string
	for _, info := range s.List("") {
		kept = append(kept, info.ID)
	}
	if want := []string{"session:10:user", "other"}; !reflect.DeepEqual(kept, want) {
		t.Fatalf("after Drop the store lists %v, want %v", kept, want)
	}
	if msgs := s.History("session:1"); len(msgs) != 0 {
		t.Fatalf("after Drop the scope's history holds %d messages", len(msgs))
	}

	if _, err := s.CreateStream("session:1:user", StreamInfo{Session: "session:1"}); err != nil {
		t.Fatal(err)
	}
	publishN(t, s, "session:1:user", 2)
	var snap bytes.Buffer
	if err := s.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	publishN(t, s, "session:1:user", 1)
	live, _ := s.ReadAll("session:1:user")
	if first := live[0]; first.Seq != 0 || first.TS <= last.TS {
		t.Fatalf("the re-created stream's first message is Seq %d TS %d, after TS %d", first.Seq, first.TS, last.TS)
	}

	re := NewStore()
	defer re.Close()
	if err := re.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	for _, rec := range sink.records() {
		if err := re.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := re.ReadAll("session:1:user")
	render := func(msgs []Message) (out []string) {
		for _, m := range msgs {
			out = append(out, fmt.Sprintf("seq=%d ts=%d i=%s", m.Seq, m.TS, payloadI(m)))
		}
		return out
	}
	if !reflect.DeepEqual(render(got), render(live)) {
		t.Fatalf("the re-created stream recovered as %q, live %q", render(got), render(live))
	}
	if n := len(re.List("session:1")); n != 1 {
		t.Fatalf("recovery holds %d streams of session:1, want the re-created one", n)
	}
}

// A stored message names its stream and its session with the stream's own
// strings, not with the ones its producer built for the call: appended live,
// replayed from the log and restored from a snapshot alike.
func TestStoredMessagesShareTheStreamsStrings(t *testing.T) {
	const stream, session = "session:x:chat", "session:x"
	check := func(how string, s *Store) {
		t.Helper()
		info, err := s.Info(stream)
		if err != nil {
			t.Fatal(err)
		}
		msgs, err := s.ReadAll(stream)
		if err != nil || len(msgs) != 2 {
			t.Fatalf("%s: %d messages (err %v), want 2", how, len(msgs), err)
		}
		for _, m := range msgs {
			if unsafe.StringData(m.Stream) != unsafe.StringData(info.ID) {
				t.Fatalf("%s: message %d keeps a stream name of its own", how, m.Seq)
			}
			if unsafe.StringData(m.Session) != unsafe.StringData(info.Session) {
				t.Fatalf("%s: message %d keeps a session name of its own", how, m.Seq)
			}
		}
	}

	dir := t.TempDir()
	s, eng := openDurableStore(t, dir)
	if _, err := s.CreateStream(stream, StreamInfo{Session: session}); err != nil {
		t.Fatal(err)
	}
	// Built per call, as a producer's agent.OutputStream(session, ...) is; the
	// second names its session, the first leaves it to the stream.
	for i, named := range []string{"", strings.Clone(session)} {
		if _, err := s.Append(Message{Stream: strings.Clone(stream), Session: named, Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	check("live", s)
	var snap bytes.Buffer
	if err := s.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	replayed, eng2 := openDurableStore(t, dir)
	defer eng2.Close()
	defer replayed.Close()
	check("replayed", replayed)

	restored := NewStore()
	defer restored.Close()
	if err := restored.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	check("restored", restored)
}
