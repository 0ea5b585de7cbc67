package streams

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"blueprint/internal/durability"
	"blueprint/internal/obs"
)

// retentionStore is a store with one session scope as package session lays
// it out — an ask stream, a stream of replies, a stream that keeps all —
// a scope whose asks are clicks on its second ask stream, with a stream of
// replies, and a stream of a scope with no ask stream, every record logged
// to the returned log.
func retentionStore(t *testing.T) (*Store, *[][]byte) {
	t.Helper()
	s := NewStore()
	var log [][]byte
	s.SetDurable(func(rec []byte) error {
		log = append(log, bytes.Clone(rec))
		return nil
	})
	for _, c := range []struct {
		id, session, tag string
	}{
		{"s:user", "s", TagAsks}, {"s:display", "s", ""}, {"s:session", "s", TagKeepAll},
		{"c:user", "c", TagAsks}, {"c:events", "c", TagAsks}, {"c:display", "c", ""}, {"t:display", "t", ""},
	} {
		info := StreamInfo{Session: c.session}
		if c.tag != "" {
			info.Tags = []string{c.tag}
		}
		if _, err := s.CreateStream(c.id, info); err != nil {
			t.Fatal(err)
		}
	}
	return s, &log
}

// ask appends one ask's messages: the utterance, two replies, a record on
// the stream that keeps all every tenth ask; a click and its reply in the
// scope of clicks; and a reply in the scope with no ask stream.
func ask(t *testing.T, s *Store, i int) {
	t.Helper()
	msgs := []Message{
		{Stream: "s:user", Payload: fmt.Sprintf("ask %d", i)},
		{Stream: "s:display", Payload: fmt.Sprintf("reply %d.a", i)},
		{Stream: "s:display", Payload: fmt.Sprintf("reply %d.b", i)},
		{Stream: "c:events", Payload: fmt.Sprintf("click %d", i)},
		{Stream: "c:display", Payload: fmt.Sprintf("clicked %d", i)},
		{Stream: "t:display", Payload: fmt.Sprintf("other %d", i)},
	}
	if i%10 == 0 {
		msgs = append(msgs, Message{Stream: "s:session", Payload: fmt.Sprintf("member %d", i)})
	}
	for _, m := range msgs {
		if _, err := s.Append(m); err != nil {
			t.Fatal(err)
		}
	}
}

// kept is what a store keeps of each stream: its info and its messages.
func kept(t *testing.T, s *Store) map[string]any {
	t.Helper()
	out := map[string]any{}
	for _, info := range s.List("") {
		msgs, err := s.ReadAll(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		out[info.ID] = []any{info, msgs}
	}
	return out
}

// A session scope keeps the messages of its last obs.KeptAsks asks: past the
// horizon, the ask stream and every other stream of the scope let go of
// their chunks wholly before the utterance KeptAsks back, and keep the one
// that holds it — and so does a scope whose asks are all clicks, on its
// other ask stream; a stream that keeps all and a stream of a scope with no
// ask stream keep everything. Reads, replay and History serve what is kept, from the first
// kept message on: an offset in the released prefix starts there. Len, Seq
// and Released say what was let go of.
func TestSessionScopeKeepsItsLastAsks(t *testing.T) {
	s, _ := retentionStore(t)
	defer s.Close()
	const n = 3*obs.KeptAsks + 40 // the horizon inside a chunk of each stream
	for i := 0; i < n; i++ {
		ask(t, s, i)
		if i == obs.KeptAsks-1 {
			if released := s.List("s")[0].Released; released != 0 {
				t.Fatalf("%d asks released %d utterances", obs.KeptAsks, released)
			}
		}
	}
	horizons := map[string]int64{} // the utterance, or the click, KeptAsks back
	for scope, asks := range map[string]string{"s": "s:user", "c": "c:events"} {
		msgs, _ := s.ReadAll(asks)
		horizons[scope] = msgs[len(msgs)-obs.KeptAsks].TS
	}
	for _, c := range []struct {
		id         string
		len        int64
		releases   bool
		chunkAfter int64 // a stream of 2 messages an ask keeps at most one chunk (256 at these lengths) before the horizon
	}{
		{"s:user", n, true, 256}, {"s:display", 2 * n, true, 256},
		{"c:events", n, true, 256}, {"c:display", n, true, 256},
		{"s:session", (n + 9) / 10, false, 0}, {"t:display", n, false, 0},
	} {
		info, err := s.Info(c.id)
		if err != nil {
			t.Fatal(err)
		}
		msgs, err := s.ReadAll(c.id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Len != c.len || int64(len(msgs)) != info.Len-info.Released || (info.Released > 0) != c.releases {
			t.Fatalf("%s: Len %d, Released %d, %d kept; want Len %d, releasing %t", c.id, info.Len, info.Released, len(msgs), c.len, c.releases)
		}
		if msgs[0].Seq != info.Released {
			t.Fatalf("%s: the first kept message has Seq %d, Released %d", c.id, msgs[0].Seq, info.Released)
		}
		if !c.releases {
			continue
		}
		before := 0
		for _, m := range msgs {
			if m.TS < horizons[info.Session] {
				before++
			}
		}
		if before == 0 || int64(before) > c.chunkAfter {
			t.Errorf("%s keeps %d messages before the horizon, want some, and at most one chunk's %d", c.id, before, c.chunkAfter)
		}
		// From an offset in the released prefix, and from one past it.
		if got, _ := s.Read(c.id, 3, 2); len(got) != 2 || got[0].Seq != info.Released {
			t.Errorf("%s: Read from 3 starts at Seq %d, want the first kept, %d", c.id, got[0].Seq, info.Released)
		}
		if got, _ := s.Read(c.id, info.Released+5, 1); len(got) != 1 || got[0].Seq != info.Released+5 {
			t.Errorf("%s: Read from %d read %+v", c.id, info.Released+5, got)
		}
		sub := s.SubscribeFrom(Filter{Streams: []string{c.id}}, 1)
		if m := <-sub.C(); m.Seq != info.Released {
			t.Errorf("%s: SubscribeFrom(1) replays from Seq %d, want %d", c.id, m.Seq, info.Released)
		}
		sub.Cancel()
	}
	history := s.History("s")
	var want int64
	for _, info := range s.List("s") {
		want += info.Len - info.Released
	}
	if int64(len(history)) != want || !slices.IsSortedFunc(history, func(a, b Message) int { return int(a.TS - b.TS) }) {
		t.Errorf("History holds %d messages, want the %d kept, in order", len(history), want)
	}
}

// A store rebuilt from what it logged, or from a snapshot and the log after
// it, keeps what the live store kept: replay releases again as each append
// is replayed, a snapshot holds the kept messages and each stream's released
// count, and loading it releases nothing of its own. Both go on releasing as
// the live store does. A snapshot section that claims a released prefix
// costs what its messages fill.
func TestRetentionRecoversExactly(t *testing.T) {
	live, log := retentionStore(t)
	defer live.Close()
	var snap bytes.Buffer
	snapAt := 0
	for i := 0; i < 3*obs.KeptAsks+40; i++ {
		ask(t, live, i)
		if i == 2*obs.KeptAsks+17 { // mid-chunk on every stream
			if err := live.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			snapAt = len(*log)
		}
	}
	replayed := NewStore()
	for _, rec := range *log {
		if err := replayed.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	restored := NewStore()
	if err := restored.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if info, _ := restored.Info("s:user"); info.Released == 0 {
		t.Fatal("the snapshot was taken before anything was released")
	}
	for _, rec := range (*log)[snapAt/2:] { // records the snapshot covered too, as the engine may replay them
		if err := restored.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	want := kept(t, live)
	for name, got := range map[string]*Store{"replayed": replayed, "restored": restored} {
		if g := kept(t, got); !reflect.DeepEqual(g, want) {
			t.Fatalf("%s from the log keeps what the live store did not", name)
		}
	}
	for i := 3*obs.KeptAsks + 40; i < 4*obs.KeptAsks; i++ {
		for _, st := range []*Store{live, replayed, restored} {
			ask(t, st, i)
		}
	}
	want = kept(t, live)
	for name, got := range map[string]*Store{"replayed": replayed, "restored": restored} {
		if g := kept(t, got); !reflect.DeepEqual(g, want) {
			t.Fatalf("%s, asked on, keeps what the live store did not", name)
		}
	}
	// A dropped scope takes its ask stream with it: a stream of the scope
	// created again keeps everything until an ask stream is created again.
	if err := live.Drop("s"); err != nil {
		t.Fatal(err)
	}
	if _, err := live.CreateStream("s:display", StreamInfo{Session: "s"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*obs.KeptAsks; i++ {
		if _, err := live.Append(Message{Stream: "s:display", Payload: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	if info, _ := live.Info("s:display"); info.Released != 0 {
		t.Errorf("a stream of a dropped scope, created again, released %d messages against the old ask stream", info.Released)
	}

	// A snapshot section of one stream that released 2 048 messages and
	// keeps one: loading it allocates a chunk of a few messages, not the 512
	// the chunk holding Seq 2048 has room for.
	var sec []byte
	put := func(rec []byte) { sec = append(durability.AppendUvarint(sec, uint64(len(rec))), rec...) }
	info := StreamInfo{ID: "u", Session: "s", Tags: []string{TagAsks}, CreatedTS: 1}
	put(durability.AppendUvarint(appendCreateHead(nil, &info), 1))
	put(durability.AppendUvarint(durability.AppendString([]byte{recRelease}, "u"), 2048))
	m := Message{Stream: "u", Seq: 2048, TS: 5000, Payload: "kept"}
	rec, err := appendMessageRecord(nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	put(rec)
	small := NewStore()
	allocBounded(t, sec, func() {
		if err := small.Restore(bytes.NewReader(sec)); err != nil {
			t.Fatal(err)
		}
	})
	if got, _ := small.ReadAll("u"); len(got) != 1 || got[0].Seq != 2048 || got[0].Payload != "kept" {
		t.Errorf("the section restored as %+v", got)
	}
}
