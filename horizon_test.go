package blueprint

import (
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"blueprint/internal/agent"
	"blueprint/internal/obs"
	"blueprint/internal/session"
	"blueprint/internal/streams"
)

// horizonAsks is the cycle the horizon tests run: a count, a summarize (a
// planned ask, whose result lands after its answer) and a per-city group-by.
var horizonAsks = []string{
	"How many jobs are in San Francisco?",
	"Summarize the applicants for job 3",
	"How many jobs are there per city?",
}

// askN runs asks from..to-1 of the horizon cycle on sess.
func askN(t *testing.T, sess *Session, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if _, err := sess.Ask(horizonAsks[i%len(horizonAsks)], 10*time.Second); err != nil {
			t.Fatalf("%s: ask %d: %v", sess.ID, i+1, err)
		}
	}
}

// settle runs one more ask, a summarize, and waits for its plan's result:
// then no ask of the session has work left.
func settle(t *testing.T, sess *Session) {
	t.Helper()
	if _, err := sess.Ask(horizonAsks[1], 10*time.Second); err != nil {
		t.Fatalf("%s: %v", sess.ID, err)
	}
	awaitPlanResults(t, sess, 1)
}

// heapAfterGC is the live heap once garbage is gone.
func heapAfterGC() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// horizonTS is the session's horizon: the TS of the utterance obs.KeptAsks
// back on its user stream, 0 while it holds fewer.
func horizonTS(t *testing.T, store *streams.Store, id string) int64 {
	t.Helper()
	info, err := store.Info(session.UserStream(id))
	if err != nil {
		t.Fatal(err)
	}
	if info.Len < obs.KeptAsks {
		return 0
	}
	msgs, err := store.Read(info.ID, info.Len-obs.KeptAsks, 1)
	if err != nil || len(msgs) != 1 {
		t.Fatalf("the utterance %d asks back is not kept: %v", obs.KeptAsks, err)
	}
	return msgs[0].TS
}

// An open session's memory is bounded by its last obs.KeptAsks asks, not by
// how long it has run. One session runs 3 000 asks: its heap after GC at
// 3 000 is within 1.5 MB of its heap at 500 (it grew by ~1.6 MB every 500
// asks when every message was kept), and then each of its streams keeps the
// messages since the horizon and at most one chunk (512 messages) before it,
// while the session stream keeps every membership record.
func TestSessionMemoryIsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("3 000 asks")
	}
	sys, err := New(Config{ModelAccuracy: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sess, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	askN(t, sess, 0, 499)
	settle(t, sess)
	at500 := heapAfterGC()
	askN(t, sess, 500, 2999)
	settle(t, sess)
	at3000 := heapAfterGC()
	grew := int64(at3000) - int64(at500)
	t.Logf("heap after GC: %.2f MB at 500 asks, %.2f MB at 3 000 (%+.2f MB); %d messages released",
		float64(at500)/(1<<20), float64(at3000)/(1<<20), float64(grew)/(1<<20), sess.Released())
	if grew > 3<<19 {
		t.Errorf("the heap grew by %.2f MB from ask 500 to ask 3 000, want at most 1.5 MB", float64(grew)/(1<<20))
	}

	horizon := horizonTS(t, sys.Store, sess.ID)
	for _, info := range sys.Store.List(sess.ID) {
		msgs, err := sys.Store.ReadAll(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		before := 0
		for _, m := range msgs {
			if m.TS < horizon {
				before++
			}
		}
		t.Logf("%-36s len %5d released %5d kept %4d, %3d of them before the horizon", info.ID, info.Len, info.Released, len(msgs), before)
		if len(msgs) > 0 && msgs[0].Seq != info.Released {
			t.Errorf("%s: the first kept message has Seq %d, Released is %d", info.ID, msgs[0].Seq, info.Released)
		}
		if info.ID == session.SessionStream(sess.ID) {
			if info.Released != 0 || int64(len(msgs)) != info.Len {
				t.Errorf("%s released %d membership records", info.ID, info.Released)
			}
			continue
		}
		if before > 512 {
			t.Errorf("%s keeps %d messages before the horizon, more than one chunk", info.ID, before)
		}
		if info.Len > 2*obs.KeptAsks+512 && info.Released == 0 {
			t.Errorf("%s released nothing of its %d messages", info.ID, info.Len)
		}
	}
	if got := sess.Members(); !slices.Equal(got, slices.Sorted(slices.Values(StandardAgents))) {
		t.Errorf("Members = %v", got)
	}
}

// A session recovers what it kept, past the horizon. With DataDir, one
// session runs 400 asks with a snapshot taken at ask 300, and the process
// crashes: recovery — the snapshot, which holds only what was kept, then the
// log after it, whose replay releases again — rebuilds each stream's kept
// messages with their Seq, its released count and the session's Members as
// the live process had them, and reopened it has the Members it had. Asked
// once more, it crashes again and recovers the same way.
func TestDurableRecoveryPastTheHorizon(t *testing.T) {
	dir := t.TempDir()
	sys := newDurableSystem(t, dir)
	sess, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	id := sess.ID
	askN(t, sess, 0, 299)
	settle(t, sess)
	if err := sys.Snapshot(); err != nil {
		t.Fatal(err)
	}
	askN(t, sess, 300, 399)
	settle(t, sess)
	type state struct {
		streams  map[string][]streams.Message
		released map[string]int64
	}
	capture := func(sys *System) state {
		st := state{streams: sessionStreams(t, sys.Store, id), released: map[string]int64{}}
		for _, info := range sys.Store.List(id) {
			st.released[info.ID] = info.Released
		}
		return st
	}
	for crash := 1; crash <= 2; crash++ {
		members := sess.Members()
		sys.SimulateCrash()
		live := capture(sys)
		if released := live.released[session.UserStream(id)]; released == 0 {
			t.Fatalf("crash %d: the live user stream released nothing of %d asks", crash, 400+crash-1)
		}
		sys = newDurableSystem(t, dir)
		got := capture(sys)
		if !reflect.DeepEqual(got.released, live.released) {
			t.Errorf("crash %d: released counts recovered as %v, live %v", crash, got.released, live.released)
		}
		for stream, want := range live.streams {
			msgs := got.streams[stream]
			if len(msgs) != len(want) {
				t.Errorf("crash %d: %s recovered %d kept messages, live %d", crash, stream, len(msgs), len(want))
				continue
			}
			for i, m := range msgs {
				if !reflect.DeepEqual(m, want[i]) {
					t.Errorf("crash %d: %s message %d recovered as\n%+v\nlive\n%+v", crash, stream, i, m, want[i])
					break
				}
			}
		}
		if len(got.streams) != len(live.streams) {
			t.Errorf("crash %d: %d streams recovered, %d live", crash, len(got.streams), len(live.streams))
		}
		// Reopened, the session's membership is what it was before the crash.
		if sess, err = sys.StartSession(id); err != nil {
			t.Fatal(err)
		}
		if got := sess.Members(); len(members) == 0 || !slices.Equal(got, members) {
			t.Errorf("crash %d: reopened, Members = %v, live %v", crash, got, members)
		}
		if crash == 2 {
			break
		}
		settle(t, sess)
	}
	sys.Close()
}

// Asks past the horizon while the session's flow is read and its display
// waits resume through SubscribeFrom: every answer is its own ask's, every
// flow read is in timestamp order and starts at or after the horizon of
// some moment of the run, and the released count only grows. `make stress`
// runs it twenty times under the race detector.
func TestAsksPastTheHorizonWhileFlowIsRead(t *testing.T) {
	sys, err := New(Config{ModelAccuracy: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sess, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the observer: flows and released counts, as an operator reads them
		defer wg.Done()
		var last int64
		for {
			select {
			case <-done:
				return
			default:
			}
			flow := sess.Flow()
			for i := 1; i < len(flow); i++ {
				if flow[i].TS <= flow[i-1].TS {
					t.Errorf("flow out of order at step %d: ts %d after %d", i, flow[i].TS, flow[i-1].TS)
					return
				}
			}
			released := sess.Released()
			if released < last {
				t.Errorf("released went from %d to %d", last, released)
				return
			}
			last = released
			time.Sleep(200 * time.Microsecond)
		}
	}()
	n := obs.KeptAsks + 64
	first := map[string]string{}
	for i := 0; i < n; i++ {
		text := horizonAsks[i%len(horizonAsks)]
		from := sess.DisplayLen()
		ans, err := sess.Ask(text, 10*time.Second)
		if err != nil {
			t.Fatalf("ask %d: %v", i+1, err)
		}
		if want, ok := first[text]; !ok {
			first[text] = ans
		} else if ans != want {
			t.Fatalf("ask %d (%q) answered %q, where its first answer was %q", i+1, text, ans, want)
		}
		// A wait resumed from before this ask, through SubscribeFrom, still
		// finds a display message at or past its offset.
		if _, err := sess.AwaitDisplay(from, "", time.Second); err != nil {
			t.Fatalf("ask %d: display wait from %d: %v", i+1, from, err)
		}
	}
	close(done)
	wg.Wait()
	if sess.Released() == 0 {
		t.Errorf("%d asks released nothing", n)
	}
	display := agent.DisplayStream(sess.ID)
	if info, _ := sys.Store.Info(display); info.Released == 0 {
		t.Errorf("the display stream released nothing of %d messages", info.Len)
	}
	// A wait from an offset the stream has released starts at the first
	// message it keeps.
	kept, err := sys.Store.ReadAll(display)
	if err != nil || len(kept) == 0 {
		t.Fatalf("the display stream keeps %d messages: %v", len(kept), err)
	}
	if got, err := sess.AwaitDisplay(0, "", time.Second); err != nil || got != kept[0].PayloadString() {
		t.Errorf("a wait from offset 0 got %q (%v), want the first kept message %q", got, err, kept[0].PayloadString())
	}
}
