package streams

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// The routing index must be invisible: whatever it narrows Append's search
// to, the subscriptions that receive a message are exactly those whose
// Filter.Matches it — for a scoped subscription, those that also have joined
// a scope the message's session lies within. These tests compare the index
// with that brute force over seeded random filters, joins and messages.

// opDone is an op with unaddressed, ops-only subscribers: the completion
// reports agents publish (the agent package names it; streams does not).
const opDone = "DONE"

var (
	routeStreams  = []string{"a", "b", "session:1:user", "session:1:profile:form", "session:2:user", "ghost"}
	routeSessions = []string{"", "session", "session:1", "session:1:profile", "session:2", "session:10"}
	routeTags     = []string{"utterance", "plan", "display", "draft"}
	routeSenders  = []string{"user", "planner", "coordinator"}
	routeKinds    = []Kind{Data, Control, Event}
	routeOps      = []string{OpExecuteAgent, OpAbort, opDone, "X"}
	routeAgents   = []string{"", "", "A", "B"} // half of the directives are broadcasts
)

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.Intn(len(xs))] }

// some returns a random, possibly empty, possibly repeating selection.
func some[T any](r *rand.Rand, xs []T, max int) []T {
	var out []T
	for n := r.Intn(max + 1); n > 0; n-- {
		out = append(out, pick(r, xs))
	}
	return out
}

// randomFilter draws a filter of any of the three routing classes — named
// streams (with repeats, and "ghost", which is created only later), a session
// scope, or neither — with the other rules on top.
func randomFilter(r *rand.Rand) Filter {
	var f Filter
	switch r.Intn(4) {
	case 0:
		f.Streams = append(some(r, routeStreams, 3), pick(r, routeStreams))
		if r.Intn(2) == 0 {
			f.Session = pick(r, routeSessions) // the stream class wins
		}
	case 1, 2:
		f.Session = pick(r, routeSessions[1:])
	}
	if r.Intn(2) == 0 {
		f.Kinds = some(r, routeKinds, 2)
	}
	switch r.Intn(4) {
	case 0:
		f.IncludeTags = some(r, routeTags, 2)
	case 1:
		f.ExcludeTags = some(r, routeTags, 2)
	}
	switch r.Intn(6) {
	case 0:
		f.Senders = some(r, routeSenders, 2)
	case 1:
		f.ExcludeSenders = some(r, routeSenders, 2)
	}
	// Directive selectors, as the control subscriptions of agents (ops and
	// addressee), of the coordinator (ops) and of neither set them.
	switch r.Intn(6) {
	case 0:
		f.Ops, f.Agent = some(r, routeOps, 2), pick(r, routeAgents[2:])
	case 1:
		f.Ops = some(r, routeOps, 2)
	case 2:
		f.Agent = pick(r, routeAgents[2:])
	}
	return f
}

func randomMessage(r *rand.Rand, streams []string) Message {
	m := Message{
		Stream: pick(r, streams), Kind: pick(r, routeKinds), Sender: pick(r, routeSenders),
		Tags: some(r, routeTags, 2), Payload: r.Int(),
	}
	if r.Intn(3) == 0 {
		m.Session = pick(r, routeSessions) // else inherited from the stream
	}
	if m.Kind == Control && r.Intn(8) > 0 { // now and then a control message has no directive
		m.Directive = &Directive{Op: pick(r, routeOps), Agent: pick(r, routeAgents)}
	}
	return m
}

// collector drains one subscription until its channel closes.
type collector struct {
	sub   *Subscription
	mu    sync.Mutex
	got   []string
	moved chan struct{} // signalled (capacity 1) after every message
	done  chan struct{}
}

func collect(sub *Subscription) *collector {
	c := &collector{sub: sub, moved: make(chan struct{}, 1), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		for m := range sub.C() {
			c.mu.Lock()
			c.got = append(c.got, m.ID)
			c.mu.Unlock()
			select {
			case c.moved <- struct{}{}:
			default:
			}
		}
	}()
	return c
}

// await waits until n messages arrived and returns everything received.
func (c *collector) await(t *testing.T, n int) []string {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		c.mu.Lock()
		got := slices.Clone(c.got)
		c.mu.Unlock()
		if len(got) >= n {
			return got
		}
		select {
		case <-c.moved:
		case <-timeout:
			t.Fatalf("received %d of %d messages", len(got), n)
		}
	}
}

// checkIndex verifies the index holds exactly the live subscriptions, each
// class disjoint from the others — a scoped one filed under exactly the
// scopes it has joined, and nowhere else — with no empty bucket left behind.
func checkIndex(t *testing.T, s *Store, live map[*Subscription]bool) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := map[*Subscription]string{}
	filings := map[*Subscription]int{} // of a scoped subscription, in bySession
	visit := func(class, key string, bucket []*Subscription) {
		if len(bucket) == 0 {
			t.Fatalf("empty bucket %s[%q] left in the index", class, key)
		}
		for i, sub := range bucket {
			if !live[sub] || !sub.filed {
				t.Fatalf("%s[%q] holds a subscription that is not live", class, key)
			}
			if slices.Contains(bucket[:i], sub) {
				t.Fatalf("%s[%q] holds a subscription twice", class, key)
			}
			if sub.scopes != nil && class == "bySession" {
				if _, joined := sub.scopes[key]; !joined {
					t.Fatalf("scoped subscription filed under %q, which it has not joined (%v)", key, sub.scopes)
				}
				filings[sub]++
				continue
			}
			if (sub.scopes != nil) != (class == "scoped") {
				t.Fatalf("%s[%q] holds a subscription of the wrong kind (scopes %v)", class, key, sub.scopes)
			}
			if c, ok := seen[sub]; ok && c != class {
				t.Fatalf("subscription filed under %s and %s", c, class)
			}
			seen[sub] = class
		}
	}
	for k, b := range s.byStream {
		visit("byStream", k, b)
	}
	for k, b := range s.bySession {
		visit("bySession", k, b)
	}
	if len(s.unscoped) > 0 {
		visit("unscoped", "", s.unscoped)
	}
	if len(s.scoped) > 0 {
		visit("scoped", "", s.scoped)
	}
	for sub := range live {
		if sub.scopes != nil && filings[sub] != len(sub.scopes) {
			t.Fatalf("scoped subscription is in %d scope buckets, joined %v", filings[sub], sub.scopes)
		}
	}
	if len(seen) != len(live) {
		t.Fatalf("index holds %d subscriptions, %d are live", len(seen), len(live))
	}
	if n := s.stats.subscriptions.Load(); n != int64(len(live)) {
		t.Fatalf("Subscriptions = %d, %d are live", n, len(live))
	}
}

func TestRoutingMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			s := NewStore()
			defer s.Close()
			open := routeStreams[:len(routeStreams)-1] // "ghost" comes later
			for _, id := range open {
				mustCreate(t, s, id, StreamInfo{Session: pick(r, routeSessions)})
			}

			live := map[*Subscription]bool{}
			cols := map[*Subscription]*collector{}
			want := map[*Subscription][]string{}
			// joined is the model of every scoped subscription's scopes: it
			// must receive a matching message whose session lies within one.
			joined := map[*Subscription]map[string]bool{}
			var scoped []*Subscription // the live ones, for picking
			receives := func(sub *Subscription, msg *Message) bool {
				if scopes, ok := joined[sub]; ok {
					within := false
					for scope := range scopes {
						within = within || scopeContains(scope, msg.Session)
					}
					if !within {
						return false
					}
				}
				return sub.filter.Matches(msg)
			}
			cancel := func(sub *Subscription) {
				// Everything routed to it must arrive, and nothing else by the
				// time its channel closes.
				cols[sub].await(t, len(want[sub]))
				sub.Cancel()
				<-cols[sub].done
				if got := cols[sub].got; !slices.Equal(got, want[sub]) {
					t.Fatalf("filter %+v (joined %v) received %v, want %v", sub.filter, joined[sub], got, want[sub])
				}
				delete(live, sub)
				delete(joined, sub)
				if i := slices.Index(scoped, sub); i >= 0 {
					scoped = slices.Delete(scoped, i, i+1)
				}
				checkIndex(t, s, live)
			}

			scopedMatched := 0
			for step := 0; step < 1500; step++ {
				switch op := r.Intn(12); {
				case op < 2 || len(live) < 8:
					var sub *Subscription
					if r.Intn(3) == 0 {
						f := randomFilter(r)
						f.Session = "" // the joined scopes are the scope
						sub = s.SubscribeScoped(f)
						joined[sub] = map[string]bool{}
						scoped = append(scoped, sub)
					} else {
						sub = s.Subscribe(randomFilter(r), false)
					}
					live[sub], cols[sub] = true, collect(sub)
					checkIndex(t, s, live)
				case op < 3:
					for sub := range live { // map order: any one
						cancel(sub)
						break
					}
				case op < 5 && len(scoped) > 0:
					// Join or leave a random scope, joined or not: a scope and
					// its ancestor, the same one twice, one never joined.
					sub, scope := pick(r, scoped), pick(r, routeSessions[1:])
					if r.Intn(3) > 0 {
						sub.Join(scope)
						joined[sub][scope] = true
					} else {
						sub.Leave(scope)
						delete(joined[sub], scope)
					}
					checkIndex(t, s, live)
				default:
					if step == 700 {
						mustCreate(t, s, "ghost", StreamInfo{Session: "session:1"})
						open = routeStreams
					}
					msg := mustAppend(t, s, randomMessage(r, open))
					s.mu.Lock()
					routed := s.routeLocked(&msg, nil)
					s.mu.Unlock()
					matched := 0
					for sub := range live {
						if receives(sub, &msg) {
							matched++
							if joined[sub] != nil {
								scopedMatched++
							}
							want[sub] = append(want[sub], msg.ID)
							if !slices.Contains(routed, sub) {
								t.Fatalf("message %+v not routed to matching filter %+v (joined %v)", msg, sub.filter, joined[sub])
							}
						}
					}
					if len(routed) != matched {
						t.Fatalf("message %+v routed to %d subscriptions, %d match", msg, len(routed), matched)
					}
				}
			}
			if scopedMatched < 100 {
				t.Fatalf("scoped subscriptions matched only %d messages: the generator is off", scopedMatched)
			}
			if len(want) < 20 {
				t.Fatalf("only %d subscriptions ever matched: the generator is off", len(want))
			}
			for sub := range live {
				cancel(sub)
			}
			if len(s.byStream)+len(s.bySession)+len(s.unscoped)+len(s.scoped) != 0 {
				t.Fatalf("index not empty after the last Cancel: %d stream, %d session buckets, %d unscoped, %d scoped",
					len(s.byStream), len(s.bySession), len(s.unscoped), len(s.scoped))
			}
			if n := s.StatsSnapshot().Subscriptions; n != 0 {
				t.Fatalf("Subscriptions = %d after the last Cancel", n)
			}
		})
	}
}

// Close must leave the index as empty as cancelling everything does, and a
// Cancel after Close must not disturb the count.
func TestCloseEmptiesIndex(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	s := NewStore()
	var subs []*Subscription
	for i := 0; i < 48; i++ {
		subs = append(subs, s.Subscribe(randomFilter(r), false))
	}
	for i := 0; i < 16; i++ { // scoped ones in 0, 1, 2 and 3 scopes, a scope and its ancestor among them
		sub := s.SubscribeScoped(Filter{Kinds: []Kind{Control}})
		for _, scope := range routeSessions[1 : 1+i%4] {
			sub.Join(scope)
		}
		subs = append(subs, sub)
	}
	if n := s.StatsSnapshot().Subscriptions; n != 64 {
		t.Fatalf("Subscriptions = %d, want 64", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkIndex(t, s, nil)
	for _, sub := range subs {
		if _, ok := <-sub.C(); ok {
			t.Fatal("channel still open after Close")
		}
		sub.Cancel()
		sub.Join("session:1") // neither revives it
	}
	checkIndex(t, s, nil)
	if len(s.bySession)+len(s.scoped) != 0 {
		t.Fatalf("%d session buckets, %d scoped subscriptions after Close", len(s.bySession), len(s.scoped))
	}
}

// A replay from an offset must equal the brute force over the stored
// messages: those at Seq >= from that match, in timestamp order — whether
// the filter names streams (suffix scan) or sweeps the store (sorted merge).
func TestSubscribeFromMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s := NewStore()
	defer s.Close()
	open := routeStreams[:len(routeStreams)-1]
	for _, id := range open {
		mustCreate(t, s, id, StreamInfo{Session: pick(r, routeSessions)})
	}
	for i := 0; i < 400; i++ {
		mustAppend(t, s, randomMessage(r, open))
	}
	for i := 0; i < 200; i++ {
		f := randomFilter(r)
		from := int64(r.Intn(120) - 10)
		var want []string
		for _, m := range s.History("") {
			if m.Seq >= from && f.Matches(&m) {
				want = append(want, m.ID)
			}
		}
		sub := s.SubscribeFrom(f, from)
		var got []string
		for range want {
			got = append(got, recvTimeout(t, sub.C()).ID)
		}
		live := mustAppend(t, s, Message{Stream: "a", Payload: "live"})
		if f.Matches(&live) {
			if m := recvTimeout(t, sub.C()); m.ID != live.ID {
				t.Fatalf("filter %+v from %d: %s delivered where the live message belongs", f, from, m.ID)
			}
		}
		sub.Cancel()
		if !slices.Equal(got, want) {
			t.Fatalf("filter %+v from %d replayed %v, want %v", f, from, got, want)
		}
	}
}

// Subscribe, Cancel and Append from many goroutines at once (run under
// -race by `make race`): nothing may be lost for a subscription that stays,
// and the index must come out empty.
func TestRoutingConcurrent(t *testing.T) {
	s := NewStore()
	const sessions, appends = 8, 300
	var stay, addressed []*collector
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("session:%d", i)
		mustCreate(t, s, id+":user", StreamInfo{Session: id})
		mustCreate(t, s, id+":control", StreamInfo{Session: id})
		stay = append(stay,
			collect(s.Subscribe(Filter{Session: id, Kinds: []Kind{Data}}, false)),
			collect(s.Subscribe(Filter{Streams: []string{id + ":user"}}, false)))
		// Two agents' control subscriptions and a report waiter's: of the
		// session's control messages each receives only its own.
		addressed = append(addressed,
			collect(s.Subscribe(Filter{Session: id, Kinds: []Kind{Control}, Ops: []string{OpExecuteAgent, OpAbort}, Agent: "A"}, false)),
			collect(s.Subscribe(Filter{Session: id, Kinds: []Kind{Control}, Ops: []string{OpExecuteAgent, OpAbort}, Agent: "B"}, false)),
			collect(s.Subscribe(Filter{Session: id, Kinds: []Kind{Control}, Ops: []string{opDone}}, false)))
	}
	everything := collect(s.Subscribe(Filter{}, false))
	// A deployed agent's two subscriptions, joined to every session: the data
	// of all of them, and of their control messages the broadcasts.
	deployedData := collect(s.SubscribeScoped(Filter{Kinds: []Kind{Data}}))
	deployedCtrl := collect(s.SubscribeScoped(Filter{Kinds: []Kind{Control}, Ops: []string{OpExecuteAgent, OpAbort}, Agent: "C"}))
	for i := 0; i < sessions; i++ {
		deployedData.sub.Join(fmt.Sprintf("session:%d", i))
		deployedCtrl.sub.Join(fmt.Sprintf("session:%d", i))
	}

	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(3)
		go func(i int) { // control appender: per round one message to A, one to B, a broadcast, a report, a signal
			defer wg.Done()
			for n := 0; n < appends; n++ {
				for _, d := range []Directive{
					{Op: OpExecuteAgent, Agent: "A"}, {Op: OpExecuteAgent, Agent: "B"},
					{Op: OpAbort}, {Op: opDone}, {Op: OpEnterSession, Agent: "A"},
				} {
					if _, err := s.Append(Message{Stream: fmt.Sprintf("session:%d:control", i), Kind: Control, Directive: &d}); err != nil {
						t.Errorf("append: %v", err)
						return
					}
				}
			}
		}(i)
		go func(i int) { // appender
			defer wg.Done()
			for n := 0; n < appends; n++ {
				if _, err := s.Append(Message{Stream: fmt.Sprintf("session:%d:user", i), Payload: n}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(i)
		go func(i int) { // subscription churn in every class
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(i)))
			comeAndGo := s.SubscribeScoped(Filter{})
			drain(comeAndGo)
			for n := 0; n < appends; n++ {
				sub := s.Subscribe(randomFilter(r), n%4 == 0)
				drain(sub)
				comeAndGo.Join(fmt.Sprintf("session:%d", (i+n)%sessions))
				sub.Cancel()
				if n%3 > 0 {
					comeAndGo.Leave(fmt.Sprintf("session:%d", (i+n)%sessions))
				}
			}
			comeAndGo.Cancel() // out of the scopes it was still in
		}(i)
	}
	wg.Wait()

	for _, c := range stay {
		if got := c.await(t, appends); len(got) != appends {
			t.Fatalf("filter %+v received %d messages, want %d", c.sub.filter, len(got), appends)
		}
	}
	// One last broadcast and report per session: a subscription keeps order,
	// so once its sentinel is in, everything routed to it before is too.
	total := 6*sessions*appends + 2*sessions
	for i := 0; i < sessions; i++ {
		control := fmt.Sprintf("session:%d:control", i)
		abort := mustAppend(t, s, Message{Stream: control, Kind: Control, Directive: &Directive{Op: OpAbort}})
		report := mustAppend(t, s, Message{Stream: control, Kind: Control, Directive: &Directive{Op: opDone}})
		for _, c := range addressed[3*i : 3*i+3] {
			want, last := 2*appends+1, abort.ID // an agent: what is addressed to it and the broadcasts
			if c.sub.filter.Agent == "" {
				want, last = appends+1, report.ID // the report waiter: the reports
			}
			if got := c.await(t, want); len(got) != want || got[want-1] != last {
				t.Fatalf("filter %+v received %d messages ending in %s, want %d ending in %s", c.sub.filter, len(got), got[len(got)-1], want, last)
			}
		}
	}
	if got := everything.await(t, total); len(got) != total {
		t.Fatalf("unscoped subscription received %d messages, want %d", len(got), total)
	}
	for c, want := range map[*collector]int{deployedData: sessions * appends, deployedCtrl: sessions * (appends + 1)} {
		if got := c.await(t, want); len(got) != want {
			t.Fatalf("scoped filter %+v received %d messages, want %d", c.sub.filter, len(got), want)
		}
	}
	live := map[*Subscription]bool{everything.sub: true, deployedData.sub: true, deployedCtrl.sub: true}
	for _, c := range append(stay, addressed...) {
		live[c.sub] = true
	}
	checkIndex(t, s, live)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkIndex(t, s, nil)
}
