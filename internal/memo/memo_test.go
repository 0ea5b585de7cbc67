package memo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blueprint/internal/clock"
)

func mustKey(t *testing.T, agent string, version int, inputs map[string]any) Key {
	t.Helper()
	k, err := ComputeKey(agent, version, inputs)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestComputeKeyCanonicalization(t *testing.T) {
	a := mustKey(t, "A", 1, map[string]any{"x": 1, "y": map[string]any{"b": 2, "a": 3}})
	b := mustKey(t, "A", 1, map[string]any{"y": map[string]any{"a": 3, "b": 2}, "x": 1})
	if a != b {
		t.Fatalf("binding order changed the key: %s vs %s", a, b)
	}
	if c := mustKey(t, "A", 2, map[string]any{"x": 1, "y": map[string]any{"b": 2, "a": 3}}); c == a {
		t.Fatal("version bump did not change the key")
	}
	if c := mustKey(t, "B", 1, map[string]any{"x": 1, "y": map[string]any{"b": 2, "a": 3}}); c == a {
		t.Fatal("agent name did not change the key")
	}
	if c := mustKey(t, "A", 1, map[string]any{"x": 2, "y": map[string]any{"b": 2, "a": 3}}); c == a {
		t.Fatal("input value did not change the key")
	}
	if _, err := ComputeKey("A", 1, map[string]any{"ch": make(chan int)}); err == nil {
		t.Fatal("unmarshalable input should be uncacheable")
	}
}

func TestGetPutAndStats(t *testing.T) {
	s := New(8)
	k := mustKey(t, "A", 1, map[string]any{"q": "x"})
	if _, ok := s.Get(k); ok {
		t.Fatal("unexpected hit on empty store")
	}
	s.Put(k, "A", []string{"src"}, 0, Entry{Outputs: map[string]any{"OUT": "v"}, Cost: 0.25, Latency: 10 * time.Millisecond})
	e, ok := s.Get(k)
	if !ok || e.Outputs["OUT"] != "v" {
		t.Fatalf("get = %v %v", e, ok)
	}
	// Mutating the returned map must not corrupt the cache.
	e.Outputs["OUT"] = "mutated"
	if e2, _ := s.Get(k); e2.Outputs["OUT"] != "v" {
		t.Fatal("cache entry was mutated through a Get copy")
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.HitRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("hit rate = %v", got)
	}
	if st.SavedCost != 0.5 || st.SavedLatency != 20*time.Millisecond {
		t.Fatalf("saved = %v %v", st.SavedCost, st.SavedLatency)
	}
}

func TestLRUEviction(t *testing.T) {
	s := New(2)
	keys := make([]Key, 3)
	for i := range keys {
		keys[i] = mustKey(t, "A", 1, map[string]any{"i": i})
		s.Put(keys[i], "A", nil, 0, Entry{Outputs: map[string]any{"i": i}})
	}
	if _, ok := s.Peek(keys[0]); ok {
		t.Fatal("oldest entry survived past capacity")
	}
	if _, ok := s.Peek(keys[1]); !ok {
		t.Fatal("recent entry evicted")
	}
	if st := s.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Touching keys[1] makes keys[2] the eviction victim.
	if _, ok := s.Get(keys[1]); !ok {
		t.Fatal("expected hit")
	}
	k3 := mustKey(t, "A", 1, map[string]any{"i": 3})
	s.Put(k3, "A", nil, 0, Entry{})
	if _, ok := s.Peek(keys[2]); ok {
		t.Fatal("LRU order ignored recency")
	}
	if _, ok := s.Peek(keys[1]); !ok {
		t.Fatal("recently used entry evicted")
	}
}

func TestTTLExpiry(t *testing.T) {
	s := New(8)
	clk := clock.NewFake(time.Unix(1000, 0))
	s.SetClock(clk)
	k := mustKey(t, "A", 1, map[string]any{"q": 1})
	s.Put(k, "A", nil, time.Minute, Entry{Outputs: map[string]any{"OUT": 1}})
	if _, ok := s.Get(k); !ok {
		t.Fatal("fresh entry missed")
	}
	clk.Advance(2 * time.Minute)
	if _, ok := s.Get(k); ok {
		t.Fatal("expired entry served")
	}
	if _, ok := s.Peek(k); ok {
		t.Fatal("expired entry visible to Peek")
	}
}

func TestGetStaleServesExpiredEntries(t *testing.T) {
	s := New(8)
	clk := clock.NewFake(time.Unix(1000, 0))
	s.SetClock(clk)
	k := mustKey(t, "A", 1, map[string]any{"q": 1})
	s.Put(k, "A", []string{"hr"}, time.Minute, Entry{Outputs: map[string]any{"OUT": 1}})

	// Fresh: GetStale reports near-zero age.
	e, age, ok := s.GetStale(k)
	if !ok || age != 0 || e.Outputs["OUT"] != 1 {
		t.Fatalf("fresh GetStale = (%v, %s, %v)", e, age, ok)
	}

	// Past TTL: invisible to Get/Peek, but GetStale still serves it with the
	// true age so the degradation policy can judge it.
	clk.Advance(5 * time.Minute)
	if _, ok := s.Get(k); ok {
		t.Fatal("expired entry served by Get")
	}
	e, age, ok = s.GetStale(k)
	if !ok || e.Outputs["OUT"] != 1 {
		t.Fatal("expired entry not servable via GetStale")
	}
	if age != 5*time.Minute {
		t.Fatalf("GetStale age = %s, want 5m", age)
	}
	if st := s.Stats(); st.StaleServes != 2 {
		t.Fatalf("StaleServes = %d, want 2", st.StaleServes)
	}

	// Version invalidation removes the entry entirely — stale-in-time only,
	// never stale-in-version.
	s.InvalidateSource("hr")
	if _, _, ok := s.GetStale(k); ok {
		t.Fatal("invalidated entry servable via GetStale")
	}
}

func TestExpiredEntryReplacedInPlace(t *testing.T) {
	s := New(8)
	clk := clock.NewFake(time.Unix(1000, 0))
	s.SetClock(clk)
	k := mustKey(t, "A", 1, map[string]any{"q": 1})
	s.Put(k, "A", nil, time.Minute, Entry{Outputs: map[string]any{"OUT": "old"}})
	clk.Advance(2 * time.Minute)
	// Re-execution via Do must replace the retained expired entry.
	_, out, err := s.Do(context.Background(), k, "A", nil, time.Minute, func() (Entry, error) {
		return Entry{Outputs: map[string]any{"OUT": "new"}}, nil
	})
	if err != nil || out != Miss {
		t.Fatalf("Do = (%v, %v)", out, err)
	}
	if e, _, ok := s.GetStale(k); !ok || e.Outputs["OUT"] != "new" {
		t.Fatalf("retained expired entry not replaced: %v %v", e, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestInvalidateAgentAndSource(t *testing.T) {
	s := New(16)
	ka := mustKey(t, "A", 1, map[string]any{"q": 1})
	kb := mustKey(t, "B", 1, map[string]any{"q": 1})
	kc := mustKey(t, "C", 1, map[string]any{"q": 1})
	s.Put(ka, "A", []string{"hr"}, 0, Entry{})
	s.Put(kb, "B", []string{"hr", "docs"}, 0, Entry{})
	s.Put(kc, "C", nil, 0, Entry{})
	if n := s.InvalidateAgent("A"); n != 1 {
		t.Fatalf("InvalidateAgent = %d", n)
	}
	if _, ok := s.Peek(ka); ok {
		t.Fatal("agent-invalidated entry survived")
	}
	if n := s.InvalidateSource("hr"); n != 1 {
		t.Fatalf("InvalidateSource = %d", n)
	}
	if _, ok := s.Peek(kb); ok {
		t.Fatal("source-invalidated entry survived")
	}
	if _, ok := s.Peek(kc); !ok {
		t.Fatal("unrelated entry dropped")
	}
	if st := s.Stats(); st.Invalidations != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if n := s.InvalidateSource("unknown"); n != 0 {
		t.Fatalf("unknown source dropped %d entries", n)
	}
}

func TestDoHitMissAndError(t *testing.T) {
	s := New(8)
	k := mustKey(t, "A", 1, map[string]any{"q": 1})
	execs := 0
	run := func() (Entry, Outcome, error) {
		return s.Do(context.Background(), k, "A", nil, 0, func() (Entry, error) {
			execs++
			return Entry{Outputs: map[string]any{"OUT": "v"}}, nil
		})
	}
	if _, oc, err := run(); err != nil || oc != Miss {
		t.Fatalf("first Do = %v %v", oc, err)
	}
	if e, oc, err := run(); err != nil || oc != Hit || e.Outputs["OUT"] != "v" {
		t.Fatalf("second Do = %v %v %v", e, oc, err)
	}
	if execs != 1 {
		t.Fatalf("execs = %d", execs)
	}

	// Errors are not cached.
	ke := mustKey(t, "A", 1, map[string]any{"q": "err"})
	boom := errors.New("boom")
	if _, oc, err := s.Do(context.Background(), ke, "A", nil, 0, func() (Entry, error) { return Entry{}, boom }); !errors.Is(err, boom) || oc != Miss {
		t.Fatalf("error Do = %v %v", oc, err)
	}
	if _, ok := s.Peek(ke); ok {
		t.Fatal("failed execution was cached")
	}
}

// TestSingleFlightCoalesces is the satellite race test: N identical
// in-flight steps must execute exactly once, with the rest coalescing onto
// the winner (run under -race).
func TestSingleFlightCoalesces(t *testing.T) {
	s := New(8)
	k := mustKey(t, "A", 1, map[string]any{"q": 1})
	const n = 16
	var execs atomic.Int32
	started := make(chan struct{}) // leader is executing
	release := make(chan struct{}) // let the leader finish
	results := make(chan Entry, n)
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // leader
		defer wg.Done()
		e, _, err := s.Do(context.Background(), k, "A", nil, 0, func() (Entry, error) {
			execs.Add(1)
			close(started)
			<-release
			return Entry{Outputs: map[string]any{"OUT": "winner"}}, nil
		})
		if err != nil {
			t.Error(err)
		}
		results <- e
	}()
	<-started
	for i := 0; i < n-1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, _, err := s.Do(context.Background(), k, "A", nil, 0, func() (Entry, error) {
				execs.Add(1)
				return Entry{Outputs: map[string]any{"OUT": "loser"}}, nil
			})
			if err != nil {
				t.Error(err)
			}
			results <- e
		}()
	}
	// Give the followers a moment to park on the flight, then release.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	close(results)

	if got := execs.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
	for e := range results {
		if e.Outputs["OUT"] != "winner" {
			t.Fatalf("a caller saw %v", e.Outputs)
		}
	}
	st := s.Stats()
	if st.Coalesced != n-1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestInvalidationDuringFlightNeverServesStale is the satellite race test
// for staleness: an invalidation landing while an execution is in flight
// poisons the flight — the result is not cached, and coalesced waiters
// re-execute against the new version instead of consuming the stale value.
func TestInvalidationDuringFlightNeverServesStale(t *testing.T) {
	s := New(8)
	k := mustKey(t, "A", 1, map[string]any{"q": 1})

	var version atomic.Int32
	version.Store(1)
	read := func() (Entry, error) {
		return Entry{Outputs: map[string]any{"V": version.Load()}}, nil
	}

	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan Entry, 1)
	go func() {
		e, _, _ := s.Do(context.Background(), k, "A", []string{"src"}, 0, func() (Entry, error) {
			close(started)
			e, err := read() // reads version 1
			<-release
			return e, err
		})
		leaderDone <- e
	}()
	<-started

	const followers = 8
	results := make(chan Entry, followers)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, _, err := s.Do(context.Background(), k, "A", []string{"src"}, 0, read)
			if err != nil {
				t.Error(err)
			}
			results <- e
		}()
	}
	time.Sleep(20 * time.Millisecond)

	// The underlying data changes and the source is invalidated while the
	// leader is still executing.
	version.Store(2)
	s.InvalidateSource("src")
	close(release)

	if e := <-leaderDone; e.Outputs["V"] != int32(1) {
		t.Fatalf("leader saw %v, expected its own (pre-invalidation) execution", e.Outputs)
	}
	wg.Wait()
	close(results)
	for e := range results {
		if e.Outputs["V"] != int32(2) {
			t.Fatalf("a waiter was served the stale pre-invalidation value: %v", e.Outputs)
		}
	}
	// The stale result must not be resident; whatever is cached is fresh.
	if e, ok := s.Peek(k); ok && e.Outputs["V"] != int32(2) {
		t.Fatalf("stale value cached: %v", e.Outputs)
	}
}

// TestConcurrentMixedOperations hammers every mutating path under -race.
func TestConcurrentMixedOperations(t *testing.T) {
	s := New(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				agent := fmt.Sprintf("A%d", i%4)
				k, _ := ComputeKey(agent, 1, map[string]any{"i": i % 16})
				switch i % 5 {
				case 0:
					s.Put(k, agent, []string{"src"}, 0, Entry{Outputs: map[string]any{"i": i}})
				case 1:
					s.Get(k)
				case 2:
					_, _, _ = s.Do(context.Background(), k, agent, []string{"src"}, 0, func() (Entry, error) {
						return Entry{Outputs: map[string]any{"i": i}}, nil
					})
				case 3:
					s.InvalidateAgent(agent)
				default:
					s.InvalidateSource("src")
				}
			}
		}(g)
	}
	wg.Wait()
	_ = s.Stats()
}

func TestNilStoreIsDisabled(t *testing.T) {
	var s *Store
	if _, ok := s.Get("k"); ok {
		t.Fatal("nil store hit")
	}
	ran := false
	if _, oc, err := s.Do(context.Background(), "k", "A", nil, 0, func() (Entry, error) {
		ran = true
		return Entry{}, nil
	}); err != nil || oc != Miss || !ran {
		t.Fatalf("nil Do = %v %v ran=%v", oc, err, ran)
	}
	if n := s.InvalidateAgent("A"); n != 0 {
		t.Fatal("nil invalidate")
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
}

func TestInvalidationIsCaseInsensitive(t *testing.T) {
	s := New(8)
	k := mustKey(t, "FETCH", 1, map[string]any{"q": 1})
	// Reads declared with non-canonical casing must still be reachable by
	// the registries' canonical (lower-cased) notifications, and vice
	// versa — both registries are case-insensitive.
	s.Put(k, "FETCH", []string{"HR.Jobs"}, 0, Entry{})
	if n := s.InvalidateSource("hr.jobs"); n != 1 {
		t.Fatalf("case-mismatched source invalidation dropped %d entries", n)
	}
	s.Put(k, "Fetch", []string{"hr"}, 0, Entry{})
	if n := s.InvalidateAgent("FETCH"); n != 1 {
		t.Fatalf("case-mismatched agent invalidation dropped %d entries", n)
	}
}
