package blueprint

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"blueprint/internal/hragents"
	"blueprint/internal/planner"
	"blueprint/internal/session"
	"blueprint/internal/streams"
)

// conversation is the three asks of one closed-session round: an NLQ count,
// a planned summary and a planned ranking of job 3.
var conversation = []string{
	"How many jobs are in San Francisco?",
	"Summarize the applicants for job 3",
	"Rank the applicants for job 3",
}

func converse(t *testing.T, sess *Session) {
	t.Helper()
	for _, text := range conversation {
		if _, err := sess.Ask(text, 10*time.Second); err != nil {
			t.Fatalf("%s: %q: %v", sess.ID, text, err)
		}
	}
}

// A closed session leaves nothing: 1 000 sessions of three asks each, every
// one closed, leave no stream in the store after each batch of 100, and the
// heap after GC grows by at most 1 MB from the 100th close to the 1 000th
// (it grew by ~16 KB a session when a closed session's streams were kept).
// With DataDir, what 100 closed sessions wrote is not recovered either.
func TestClosedSessionsLeaveNothing(t *testing.T) {
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	t.Run("memory", func(t *testing.T) {
		sys, err := New(Config{ModelAccuracy: 1.0})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		var at100 uint64
		for i := 1; i <= 1000; i++ {
			sess, err := sys.StartSession("")
			if err != nil {
				t.Fatal(err)
			}
			converse(t, sess)
			sess.Close()
			if i%100 != 0 {
				continue
			}
			if left := sys.Store.List(""); len(left) != 0 {
				t.Fatalf("after %d closed sessions the store holds %d streams, first %s", i, len(left), left[0].ID)
			}
			h := heap()
			if i == 100 {
				at100 = h
			}
			t.Logf("%4d closed sessions: heap %d KB", i, h>>10)
		}
		if grown := int64(heap()) - int64(at100); grown > 1<<20 {
			t.Errorf("the heap grew by %d KB from the 100th closed session to the 1 000th, want at most 1 024", grown>>10)
		}
	})
	t.Run("recovery", func(t *testing.T) {
		dir := t.TempDir()
		sys := newDurableSystem(t, dir)
		var ids []string
		for range 100 {
			sess, err := sys.StartSession("")
			if err != nil {
				t.Fatal(err)
			}
			converse(t, sess)
			sess.Close()
			ids = append(ids, sess.ID)
		}
		sys.Close()
		sys2 := newDurableSystem(t, dir)
		defer sys2.Close()
		for _, id := range ids {
			if left := sys2.Store.List(id); len(left) != 0 {
				t.Fatalf("%s's streams recovered after its Close: %d, first %s", id, len(left), left[0].ID)
			}
		}
	})
}

// canonical is what the log keeps of a message: no Ask, and a payload, input
// or output value as durability's value codec recovers it — a scalar, a
// *planner.Plan or a *hragents.QueryRows as itself, any other value as JSON
// makes it.
func canonical(t *testing.T, m streams.Message) streams.Message {
	t.Helper()
	viaJSON := func(v any) any {
		switch v.(type) {
		case nil, string, int, int64, float64, bool, *planner.Plan, *hragents.QueryRows:
			return v // the value codec logs these typed
		}
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
	values := func(in map[string]any) map[string]any {
		if in == nil {
			return nil
		}
		out := make(map[string]any, len(in))
		for k, v := range in {
			out[k] = viaJSON(v)
		}
		return out
	}
	m.Ask = 0
	m.Payload = viaJSON(m.Payload)
	if len(m.Tags) == 0 {
		m.Tags = nil
	}
	if d := m.Directive; d != nil {
		c := *d
		c.Inputs, c.Outputs = values(d.Inputs), values(d.Outputs)
		m.Directive = &c
	}
	return m
}

// sessionStreams reads every stream of a session, each message as the log
// keeps it.
func sessionStreams(t *testing.T, store *streams.Store, id string) map[string][]streams.Message {
	t.Helper()
	out := map[string][]streams.Message{}
	for _, info := range store.List(id) {
		msgs, err := store.ReadAll(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		out[info.ID] = []streams.Message{}
		for _, m := range msgs {
			out[info.ID] = append(out[info.ID], canonical(t, m))
		}
	}
	return out
}

// A closed session reopened by its id starts from nothing, and recovers
// exactly, from the log alone and from a snapshot and the log after it. X is
// closed, reopened and asked, and the process crashes: the log holds X's first
// incarnation, its drop and its second. Recovered, X is reopened again,
// snapshotted and asked once more, and that process crashes too. Each time,
// every recovered stream of X holds, message for message, what the live one
// held, and nothing of the first incarnation: without the drop in the log,
// replay would rebuild the first incarnation and pass over the second's
// messages as already present.
func TestDurableReopenedSessionRecoversExactly(t *testing.T) {
	dir := t.TempDir()
	sys := newDurableSystem(t, dir)
	first, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	converse(t, first)
	first.Close()
	id := first.ID
	again, err := sys.StartSession(id)
	if err != nil {
		t.Fatal(err)
	}
	if n := again.DisplayLen(); n != 0 {
		t.Fatalf("the reopened %s shows %d display messages of its first incarnation", id, n)
	}
	if _, err := again.Ask(conversation[1], 10*time.Second); err != nil {
		t.Fatal(err)
	}
	awaitPlanResults(t, again, 1)
	for crash := 1; crash <= 2; crash++ {
		sys.SimulateCrash()
		live := sessionStreams(t, sys.Store, id)
		sys = newDurableSystem(t, dir)
		recovered := sessionStreams(t, sys.Store, id)
		if len(recovered) != len(live) {
			t.Errorf("crash %d: %d streams of %s recovered, %d live", crash, len(recovered), id, len(live))
		}
		for stream, msgs := range recovered {
			want, ok := live[stream]
			if !ok || len(msgs) != len(want) {
				t.Errorf("crash %d: %s recovered %d messages, live %d (a live stream: %t)", crash, stream, len(msgs), len(want), ok)
				continue
			}
			for i, m := range msgs {
				if !reflect.DeepEqual(m, want[i]) {
					t.Errorf("crash %d: %s message %d recovered as\n%+v\nlive\n%+v", crash, stream, i, m, want[i])
				}
			}
		}
		if crash == 2 {
			break
		}
		if again, err = sys.StartSession(id); err != nil {
			t.Fatal(err)
		}
		if err := sys.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if _, err := again.Ask(conversation[0], 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	sys.Close()
}

// Nothing re-creates a forgotten stream: sessions closed with asks of theirs
// in flight — an agent's output, its report or a plan's result still on its
// way — hold no stream once every Close has returned and the store's pool
// has gone quiet.
func TestCloseForgetsUnderLoad(t *testing.T) {
	sys, err := New(Config{ModelAccuracy: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.StartSession(""); err != nil { // deploys the agents; stays open
		t.Fatal(err)
	}
	goroutines := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var asks, closes sync.WaitGroup
	var closed []string
	for i := range 6 {
		sess, err := sys.StartSession("")
		if err != nil {
			t.Fatal(err)
		}
		closed = append(closed, sess.ID)
		for _, text := range conversation {
			asks.Add(1)
			go func() {
				defer asks.Done()
				_, _ = sess.GovernedAsk(ctx, "", text, nil, 10*time.Second)
			}()
		}
		closes.Add(1)
		go func() {
			defer closes.Done()
			// At once, after the first answer or after the second: with
			// the session's other asks in flight.
			deadline := time.Now().Add(10 * time.Second)
			for sess.DisplayLen() < i%3 && time.Now().Before(deadline) {
				time.Sleep(100 * time.Microsecond)
			}
			sess.Close()
		}()
	}
	closes.Wait()
	cancel() // what waits on a closed session's display waits no more
	asks.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for _, id := range closed {
		if left := sys.Store.List(id); len(left) != 0 {
			t.Errorf("%s holds %d streams after its Close, first %s", id, len(left), left[0].ID)
		}
	}
}

// An ask in flight when its session closes ends with the close: the drop of
// the session's streams ends the wait on its display, so a summarize with a
// 3 s timeout, closed right after its utterance, returns in well under a
// second, with its answer or with ErrNoResponse.
func TestCloseEndsAnAskInFlight(t *testing.T) {
	sys := newSystem(t)
	for range 3 {
		sess, err := sys.StartSession("")
		if err != nil {
			t.Fatal(err)
		}
		type result struct {
			err  error
			took time.Duration
		}
		done := make(chan result, 1)
		go func() {
			start := time.Now()
			_, err := sess.Ask("Summarize the applicants for job 3", 3*time.Second)
			done <- result{err, time.Since(start)}
		}()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Microsecond) {
			if info, err := sys.Store.Info(session.UserStream(sess.ID)); err == nil && info.Len > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the utterance was never posted")
			}
		}
		sess.Close()
		r := <-done
		t.Logf("%s: the ask returned %v after %v", sess.ID, r.err, r.took)
		if r.took >= time.Second {
			t.Fatalf("the ask returned %v after its session's Close, %v after it began; want under 1s", r.err, r.took)
		}
		if r.err != nil && !errors.Is(r.err, ErrNoResponse) {
			t.Fatalf("the ask failed with %v, want an answer or ErrNoResponse", r.err)
		}
	}
}
