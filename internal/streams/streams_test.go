package streams

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func mustCreate(t *testing.T, s *Store, id string, info StreamInfo) {
	t.Helper()
	if _, err := s.CreateStream(id, info); err != nil {
		t.Fatalf("CreateStream(%q): %v", id, err)
	}
}

func mustAppend(t *testing.T, s *Store, msg Message) Message {
	t.Helper()
	out, err := s.Append(msg)
	if err != nil {
		t.Fatalf("Append to %q: %v", msg.Stream, err)
	}
	return out
}

func recvTimeout(t *testing.T, ch <-chan Message) Message {
	t.Helper()
	select {
	case m, ok := <-ch:
		if !ok {
			t.Fatal("subscription channel closed unexpectedly")
		}
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for message")
	}
	return Message{}
}

func TestCreateAppendRead(t *testing.T) {
	s := NewStore()
	defer s.Close()
	mustCreate(t, s, "user", StreamInfo{Session: "session:1", Creator: "ui"})

	m1 := mustAppend(t, s, Message{Stream: "user", Kind: Data, Payload: "hello"})
	m2 := mustAppend(t, s, Message{Stream: "user", Kind: Data, Payload: "world"})

	if m1.Seq != 0 || m2.Seq != 1 {
		t.Fatalf("seqs = %d,%d want 0,1", m1.Seq, m2.Seq)
	}
	if m2.TS <= m1.TS {
		t.Fatalf("timestamps not increasing: %d then %d", m1.TS, m2.TS)
	}
	if m1.Session != "session:1" {
		t.Fatalf("session not inherited from stream: %q", m1.Session)
	}
	got, err := s.ReadAll("user")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].PayloadString() != "hello" || got[1].PayloadString() != "world" {
		t.Fatalf("ReadAll = %+v", got)
	}
}

func TestCreateDuplicate(t *testing.T) {
	s := NewStore()
	defer s.Close()
	mustCreate(t, s, "a", StreamInfo{})
	if _, err := s.CreateStream("a", StreamInfo{}); !errors.Is(err, ErrStreamExists) {
		t.Fatalf("err = %v, want ErrStreamExists", err)
	}
	if _, err := s.EnsureStream("a", StreamInfo{}); err != nil {
		t.Fatalf("EnsureStream on existing: %v", err)
	}
}

func TestAppendToMissingStream(t *testing.T) {
	s := NewStore()
	defer s.Close()
	if _, err := s.Append(Message{Stream: "nope"}); !errors.Is(err, ErrStreamNotFound) {
		t.Fatalf("err = %v, want ErrStreamNotFound", err)
	}
}

func TestCloseStreamRejectsAppends(t *testing.T) {
	s := NewStore()
	defer s.Close()
	mustCreate(t, s, "a", StreamInfo{})
	if err := s.CloseStream("a", "tester"); err != nil {
		t.Fatal(err)
	}
	info, err := s.Info("a")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Closed {
		t.Fatal("stream not marked closed")
	}
	if _, err := s.Append(Message{Stream: "a"}); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("err = %v, want ErrStreamClosed", err)
	}
}

func TestReadOffsets(t *testing.T) {
	s := NewStore()
	defer s.Close()
	mustCreate(t, s, "a", StreamInfo{})
	for i := 0; i < 10; i++ {
		mustAppend(t, s, Message{Stream: "a", Payload: i})
	}
	got, err := s.Read("a", 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Seq != 7 {
		t.Fatalf("Read(7) = %+v", got)
	}
	got, err = s.Read("a", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[0].Seq != 2 || got[3].Seq != 5 {
		t.Fatalf("Read(2,4) = %+v", got)
	}
	got, err = s.Read("a", 100, 0)
	if err != nil || got != nil {
		t.Fatalf("Read past end = %v, %v", got, err)
	}
	got, err = s.Read("a", -5, 2)
	if err != nil || len(got) != 2 || got[0].Seq != 0 {
		t.Fatalf("Read negative offset = %v, %v", got, err)
	}
}

func TestSubscribeLive(t *testing.T) {
	s := NewStore()
	defer s.Close()
	mustCreate(t, s, "a", StreamInfo{})
	sub := s.Subscribe(Filter{Streams: []string{"a"}}, false)
	defer sub.Cancel()

	mustAppend(t, s, Message{Stream: "a", Payload: "x"})
	m := recvTimeout(t, sub.C())
	if m.PayloadString() != "x" {
		t.Fatalf("got %q", m.PayloadString())
	}
}

func TestSubscribeReplay(t *testing.T) {
	s := NewStore()
	defer s.Close()
	mustCreate(t, s, "a", StreamInfo{})
	mustCreate(t, s, "b", StreamInfo{})
	mustAppend(t, s, Message{Stream: "a", Payload: "1"})
	mustAppend(t, s, Message{Stream: "b", Payload: "2"})
	mustAppend(t, s, Message{Stream: "a", Payload: "3"})

	sub := s.Subscribe(Filter{}, true)
	defer sub.Cancel()
	var got []string
	for i := 0; i < 3; i++ {
		got = append(got, recvTimeout(t, sub.C()).PayloadString())
	}
	// Replay must be in global TS order across streams.
	want := []string{"1", "2", "3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replay order = %v, want %v", got, want)
		}
	}
}

func TestSubscribeTagFilter(t *testing.T) {
	s := NewStore()
	defer s.Close()
	mustCreate(t, s, "conv", StreamInfo{})
	sub := s.Subscribe(Filter{IncludeTags: []string{"SQL"}, ExcludeTags: []string{"DRAFT"}}, false)
	defer sub.Cancel()

	mustAppend(t, s, Message{Stream: "conv", Tags: []string{"NLQ"}, Payload: "skip"})
	mustAppend(t, s, Message{Stream: "conv", Tags: []string{"SQL", "DRAFT"}, Payload: "skip2"})
	mustAppend(t, s, Message{Stream: "conv", Tags: []string{"SQL"}, Payload: "take"})

	m := recvTimeout(t, sub.C())
	if m.PayloadString() != "take" {
		t.Fatalf("tag filter delivered %q", m.PayloadString())
	}
}

func TestSubscribeKindAndSenderFilter(t *testing.T) {
	s := NewStore()
	defer s.Close()
	mustCreate(t, s, "a", StreamInfo{})
	sub := s.Subscribe(Filter{Kinds: []Kind{Control}, ExcludeSenders: []string{"me"}}, false)
	defer sub.Cancel()

	mustAppend(t, s, Message{Stream: "a", Kind: Data, Payload: "nope"})
	mustAppend(t, s, Message{Stream: "a", Kind: Control, Sender: "me", Directive: &Directive{Op: "X"}})
	mustAppend(t, s, Message{Stream: "a", Kind: Control, Sender: "coordinator", Directive: &Directive{Op: OpExecuteAgent, Agent: "sql"}})

	m := recvTimeout(t, sub.C())
	if m.Directive == nil || m.Directive.Op != OpExecuteAgent {
		t.Fatalf("got %+v", m)
	}
}

func TestSessionScopeFilter(t *testing.T) {
	s := NewStore()
	defer s.Close()
	mustCreate(t, s, "x", StreamInfo{Session: "session:1"})
	mustCreate(t, s, "y", StreamInfo{Session: "session:1:profile"})
	mustCreate(t, s, "z", StreamInfo{Session: "session:2"})

	sub := s.Subscribe(Filter{Session: "session:1"}, false)
	defer sub.Cancel()

	mustAppend(t, s, Message{Stream: "z", Payload: "other"})
	mustAppend(t, s, Message{Stream: "y", Payload: "nested"})
	mustAppend(t, s, Message{Stream: "x", Payload: "direct"})

	if got := recvTimeout(t, sub.C()).PayloadString(); got != "nested" {
		t.Fatalf("first = %q, want nested", got)
	}
	if got := recvTimeout(t, sub.C()).PayloadString(); got != "direct" {
		t.Fatalf("second = %q, want direct", got)
	}
}

func TestScopeContainsNoFalsePrefix(t *testing.T) {
	if scopeContains("session:1", "session:10") {
		t.Fatal("session:10 must not be contained in session:1")
	}
	if !scopeContains("session:1", "session:1:a:b") {
		t.Fatal("deep nesting must be contained")
	}
}

func TestCancelStopsDelivery(t *testing.T) {
	s := NewStore()
	defer s.Close()
	mustCreate(t, s, "a", StreamInfo{})
	sub := s.Subscribe(Filter{}, false)
	sub.Cancel()
	mustAppend(t, s, Message{Stream: "a", Payload: "after"})
	// Channel must be closed.
	if _, ok := <-sub.C(); ok {
		t.Fatal("received on cancelled subscription")
	}
}

func TestStoreCloseCancelsSubscribers(t *testing.T) {
	s := NewStore()
	mustCreate(t, s, "a", StreamInfo{})
	sub := s.Subscribe(Filter{}, false)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-sub.C():
		if ok {
			t.Fatal("expected closed channel")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("channel not closed after store Close")
	}
	if _, err := s.Append(Message{Stream: "a"}); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if _, err := s.CreateStream("b", StreamInfo{}); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("create after close: %v", err)
	}
	// Subscribing after close returns an already-closed subscription.
	sub2 := s.Subscribe(Filter{}, false)
	if _, ok := <-sub2.C(); ok {
		t.Fatal("subscription on closed store should be closed")
	}
	// Close is idempotent.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestListBySession(t *testing.T) {
	s := NewStore()
	defer s.Close()
	mustCreate(t, s, "a", StreamInfo{Session: "session:1"})
	mustCreate(t, s, "b", StreamInfo{Session: "session:2"})
	mustCreate(t, s, "c", StreamInfo{Session: "session:1:x"})

	all := s.List("")
	if len(all) != 3 {
		t.Fatalf("List all = %d", len(all))
	}
	one := s.List("session:1")
	if len(one) != 2 || one[0].ID != "a" || one[1].ID != "c" {
		t.Fatalf("List session:1 = %+v", one)
	}
}

func TestHistoryOrdering(t *testing.T) {
	s := NewStore()
	defer s.Close()
	mustCreate(t, s, "a", StreamInfo{Session: "s:1"})
	mustCreate(t, s, "b", StreamInfo{Session: "s:1"})
	mustAppend(t, s, Message{Stream: "b", Payload: 1})
	mustAppend(t, s, Message{Stream: "a", Payload: 2})
	mustAppend(t, s, Message{Stream: "b", Payload: 3})

	h := s.History("s:1")
	if len(h) != 3 {
		t.Fatalf("history len = %d", len(h))
	}
	for i := 1; i < len(h); i++ {
		if h[i].TS <= h[i-1].TS {
			t.Fatal("history not TS-ordered")
		}
	}
	if s.History("s:2") != nil {
		t.Fatal("history of unknown session should be empty")
	}
}

func TestPublishCreatesStream(t *testing.T) {
	s := NewStore()
	defer s.Close()
	m, err := s.Publish(Message{Stream: "auto", Session: "s:1", Sender: "agent", Payload: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if m.Seq != 0 {
		t.Fatalf("seq = %d", m.Seq)
	}
	info, err := s.Info("auto")
	if err != nil || info.Session != "s:1" || info.Creator != "agent" {
		t.Fatalf("info = %+v err=%v", info, err)
	}
}

func TestStats(t *testing.T) {
	s := NewStore()
	defer s.Close()
	mustCreate(t, s, "a", StreamInfo{})
	sub := s.Subscribe(Filter{}, false)
	defer sub.Cancel()
	mustAppend(t, s, Message{Stream: "a", Kind: Data})
	mustAppend(t, s, Message{Stream: "a", Kind: Control, Directive: &Directive{Op: "X"}})
	mustAppend(t, s, Message{Stream: "a", Kind: Event})
	for i := 0; i < 3; i++ {
		recvTimeout(t, sub.C())
	}
	st := s.StatsSnapshot()
	if st.StreamsCreated != 1 || st.MessagesAppended != 3 || st.DataMessages != 1 || st.ControlMessages != 1 || st.EventMessages != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Deliveries != 3 {
		t.Fatalf("deliveries = %d, want 3", st.Deliveries)
	}
	if st.Subscriptions != 1 {
		t.Fatalf("subscriptions = %d, want 1", st.Subscriptions)
	}
}

func TestConcurrentAppendAndSubscribe(t *testing.T) {
	s := NewStore()
	defer s.Close()
	mustCreate(t, s, "a", StreamInfo{})
	const producers, perProducer = 8, 100

	sub := s.Subscribe(Filter{Streams: []string{"a"}}, false)
	defer sub.Cancel()

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if _, err := s.Append(Message{Stream: "a", Sender: fmt.Sprintf("p%d", p), Payload: i}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < producers*perProducer; i++ {
			<-sub.C()
		}
		close(done)
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("did not receive all messages")
	}
	info, _ := s.Info("a")
	if info.Len != producers*perProducer {
		t.Fatalf("stream len = %d, want %d", info.Len, producers*perProducer)
	}
	// Seqs must be dense 0..N-1.
	msgs, _ := s.ReadAll("a")
	for i, m := range msgs {
		if m.Seq != int64(i) {
			t.Fatalf("seq[%d] = %d", i, m.Seq)
		}
	}
}

func TestFilterMatchesProperty(t *testing.T) {
	// Property: a filter with only ExcludeTags never matches a message
	// carrying one of those tags, regardless of other fields.
	f := func(tag string, extra []string) bool {
		if tag == "" {
			return true
		}
		msg := Message{Stream: "s", Tags: append([]string{tag}, extra...)}
		flt := Filter{ExcludeTags: []string{tag}}
		return !flt.Matches(&msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if Data.String() != "data" || Control.String() != "control" || Event.String() != "event" {
		t.Fatal("kind strings wrong")
	}
	if Kind(42).String() != "kind(42)" {
		t.Fatalf("unknown kind = %q", Kind(42).String())
	}
}

func TestMessageClone(t *testing.T) {
	m := Message{Tags: []string{"a"}, Directive: &Directive{Op: "X"}}
	c := m.Clone()
	c.Tags[0] = "b"
	c.Directive.Op = "Y"
	if m.Tags[0] != "a" || m.Directive.Op != "X" {
		t.Fatal("clone shares state with original")
	}
}

func TestPayloadString(t *testing.T) {
	cases := []struct {
		payload any
		want    string
	}{
		{nil, ""},
		{"plain", "plain"},
		{map[string]any{"k": 1}, `{"k":1}`},
		{[]int{1, 2}, `[1,2]`},
	}
	for _, c := range cases {
		m := Message{Payload: c.payload}
		if got := m.PayloadString(); got != c.want {
			t.Errorf("PayloadString(%v) = %q, want %q", c.payload, got, c.want)
		}
	}
}
