package streams

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func BenchmarkAppend(b *testing.B) {
	s := NewStore()
	b.Cleanup(func() { s.Close() })
	if _, err := s.CreateStream("x", StreamInfo{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append(Message{Stream: "x", Payload: i}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendWithTagFilterMiss(b *testing.B) {
	// Subscribers whose filters never match: measures routing overhead.
	s := NewStore()
	b.Cleanup(func() { s.Close() })
	if _, err := s.CreateStream("x", StreamInfo{}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		sub := s.Subscribe(Filter{IncludeTags: []string{"never"}}, false)
		b.Cleanup(sub.Cancel)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append(Message{Stream: "x", Tags: []string{"data"}, Payload: i}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubscribeReplay(b *testing.B) {
	s := NewStore()
	b.Cleanup(func() { s.Close() })
	if _, err := s.CreateStream("x", StreamInfo{}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := s.Append(Message{Stream: "x", Payload: i}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub := s.Subscribe(Filter{Streams: []string{"x"}}, true)
		for j := 0; j < 1000; j++ {
			<-sub.C()
		}
		sub.Cancel()
	}
}

func BenchmarkHistory(b *testing.B) {
	s := NewStore()
	b.Cleanup(func() { s.Close() })
	for st := 0; st < 10; st++ {
		id := string(rune('a' + st))
		if _, err := s.CreateStream(id, StreamInfo{Session: "s:1"}); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if _, err := s.Append(Message{Stream: id, Payload: i}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h := s.History("s:1"); len(h) != 1000 {
			b.Fatal("bad history")
		}
	}
}

// BenchmarkAppendManySessions is the shape of many live conversations: 512
// session scopes, each with the 17 subscriptions that serve a session (11 on
// the control messages addressed to an agent, 6 on tagged data), and an
// utterance appended to one session's user stream. Only the subscriptions
// filed under that session can receive it, and the append should cost as if
// the other 511 sessions were not there. "deployed" files them the way
// deployed agents do — 17 scoped subscriptions, each joined to all 512
// scopes; "private" is one single-session subscription per session and
// agent, 8 704 of them.
func BenchmarkAppendManySessions(b *testing.B) {
	dataFilter := func(scope string, j int) Filter {
		return Filter{Session: scope, Kinds: []Kind{Data, Event}, IncludeTags: []string{fmt.Sprintf("tag%d", j)}}
	}
	scopes := make([]string, 512)
	for i := range scopes {
		scopes[i] = fmt.Sprintf("session:%d", i)
	}
	for _, c := range []struct {
		name string
		file func(s *Store)
	}{
		{"deployed", func(s *Store) {
			filters := sessionControlFilters("")
			for j := 0; j < 6; j++ {
				filters = append(filters, dataFilter("", j))
			}
			for _, f := range filters {
				sub := s.SubscribeScoped(f)
				drain(sub)
				for _, scope := range scopes {
					sub.Join(scope)
				}
			}
		}},
		{"private", func(s *Store) {
			for _, scope := range scopes {
				for _, f := range sessionControlFilters(scope) {
					drain(s.Subscribe(f, false))
				}
				for j := 0; j < 6; j++ {
					drain(s.Subscribe(dataFilter(scope, j), false))
				}
			}
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := NewStore()
			b.Cleanup(func() { s.Close() })
			c.file(s)
			if _, err := s.CreateStream("session:7:user", StreamInfo{Session: "session:7"}); err != nil {
				b.Fatal(err)
			}
			msg := Message{Stream: "session:7:user", Kind: Data, Sender: "user", Tags: []string{"user", "tag0"}, Payload: "How many jobs are in Austin?"}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Append(msg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sessionControlFilters are the 11 control subscriptions of a standard
// session: eleven agents, each on the EXECUTE_AGENT and ABORT directives
// addressed to it.
func sessionControlFilters(scope string) []Filter {
	var fs []Filter
	for j := 0; j < 11; j++ {
		fs = append(fs, Filter{
			Session: scope, Kinds: []Kind{Control},
			Ops: []string{OpExecuteAgent, OpAbort}, Agent: fmt.Sprintf("AGENT%d", j),
		})
	}
	return fs
}

// BenchmarkControlFanout is one EXECUTE_AGENT into a session with its 11
// control subscriptions live, from Append until the addressed agent has it.
// deliveries/op is how many of the 11 were handed the message.
func BenchmarkControlFanout(b *testing.B) {
	s := NewStore()
	b.Cleanup(func() { s.Close() })
	const scope = "session:1"
	if _, err := s.CreateStream(scope+":control", StreamInfo{Session: scope}); err != nil {
		b.Fatal(err)
	}
	got := make(chan struct{})
	for _, f := range sessionControlFilters(scope) {
		sub := s.Subscribe(f, false)
		go func(addressed bool) {
			for range sub.C() {
				if addressed {
					got <- struct{}{}
				}
			}
		}(f.Agent == "AGENT3")
	}
	msg := Message{Stream: scope + ":control", Kind: Control, Sender: "coordinator", Directive: &Directive{
		Op: OpExecuteAgent, Agent: "AGENT3", Invocation: "p-s1",
	}}
	before := s.StatsSnapshot().Deliveries
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append(msg); err != nil {
			b.Fatal(err)
		}
		<-got
	}
	b.StopTimer()
	b.ReportMetric(float64(s.StatsSnapshot().Deliveries-before)/float64(b.N), "deliveries/op")
}

// BenchmarkDeliverIdle is the price of one hand-off: a message appended for
// one idle subscription, until its consumer goroutine has it — with nothing
// queued, one goroutine wake-up and no allocation beyond Append's own.
func BenchmarkDeliverIdle(b *testing.B) {
	s := NewStore()
	b.Cleanup(func() { s.Close() })
	if _, err := s.CreateStream("x", StreamInfo{}); err != nil {
		b.Fatal(err)
	}
	sub := s.Subscribe(Filter{Streams: []string{"x"}}, false)
	got := make(chan struct{})
	go func() {
		for range sub.C() {
			got <- struct{}{}
		}
	}()
	msg := Message{Stream: "x", Kind: Data, Sender: "user", Payload: "How many jobs are in Austin?"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append(msg); err != nil {
			b.Fatal(err)
		}
		<-got
	}
}

// BenchmarkAppendDurable is Append through a real durability engine (no
// fsync, no flush loop) for the three shapes an ask logs: a string payload,
// a rows-shaped map and an EXECUTE_AGENT directive with inputs. "parallel"
// appends all three from every P onto two shared streams, so the store
// lock's hold shows.
func BenchmarkAppendDurable(b *testing.B) {
	streams := []string{"a", "b"}
	newStore := func(b *testing.B) *Store {
		s, eng := openDurableStore(b, b.TempDir())
		b.Cleanup(func() {
			eng.Close()
			s.Close()
		})
		for _, id := range streams {
			if _, err := s.CreateStream(id, StreamInfo{Session: "session:1"}); err != nil {
				b.Fatal(err)
			}
		}
		return s
	}
	var msgs [2][3]Message // by stream, then shape
	for i, id := range streams {
		for j := range msgs[i] {
			msgs[i][j] = shapedMessage(id, "user", j)
		}
	}
	for j, shape := range []string{"string", "rows", "directive"} {
		b.Run(shape, func(b *testing.B) {
			s := newStore(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Append(msgs[0][j]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("parallel", func(b *testing.B) {
		s := newStore(b)
		var next atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for i := int(next.Add(1)); pb.Next(); i++ {
				if _, err := s.Append(msgs[i%2][i%3]); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkRecoverStreams is recovery of a log of 10 000 stream records —
// one create, then appends of the three shapes BenchmarkAppendDurable logs —
// into a fresh store.
func BenchmarkRecoverStreams(b *testing.B) {
	const records = 10000
	dir := b.TempDir()
	s, eng := openDurableStore(b, dir)
	if _, err := s.CreateStream("a", StreamInfo{Session: "session:1"}); err != nil {
		b.Fatal(err)
	}
	for i := 1; i < records; i++ {
		if _, err := s.Append(shapedMessage("a", "user", i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		b.Fatal(err)
	}
	s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, eng := openDurableStore(b, dir)
		b.StopTimer()
		if got := eng.Stats().Recovery.ReplayedRecords; got != records {
			b.Fatalf("replayed %d records, want %d", got, records)
		}
		eng.Close()
		s.Close()
		b.StartTimer()
	}
}

// BenchmarkHandOffDeepStack is one awaited hand-off of a task that uses about
// 16 KB of stack, as an agent invocation or a plan step does through the
// agent, registry and relational frames. "pool" hands it to Store.Go, whose
// parked worker kept the stack the previous task grew; "go" starts a
// goroutine for it, which grows a fresh 2 KB stack every time.
func BenchmarkHandOffDeepStack(b *testing.B) {
	for _, c := range []struct {
		name    string
		handOff func(s *Store, f func())
	}{
		{"pool", (*Store).Go},
		{"go", func(_ *Store, f func()) { go f() }},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := NewStore()
			b.Cleanup(func() { s.Close() })
			done := make(chan byte)
			task := func() { done <- deepFrames(16) }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.handOff(s, task)
				handOffSink = <-done
			}
		})
	}
}

// handOffSink keeps deepFrames' result live.
var handOffSink byte

// deepFrames recurses n frames of about 1 KB of stack each.
//
//go:noinline
func deepFrames(n int) byte {
	var frame [1000]byte
	frame[n] = byte(n)
	if n == 0 {
		return frame[0]
	}
	return deepFrames(n-1) + frame[n]
}
