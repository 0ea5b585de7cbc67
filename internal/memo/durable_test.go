package memo

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"blueprint/internal/clock"
)

// collectSink is a fake WAL: appended records replay into a fresh store.
type collectSink struct{ recs [][]byte }

func (c *collectSink) append(p []byte) error {
	c.recs = append(c.recs, append([]byte(nil), p...))
	return nil
}

func TestDurableLogReplayRestoresEntries(t *testing.T) {
	sink := &collectSink{}
	s := New(16)
	s.SetDurable(DurableConfig{
		Append:       sink.append,
		AgentVersion: func(string) int { return 3 },
	})
	key, err := ComputeKey("FETCH", 3, map[string]any{"q": "x"})
	if err != nil {
		t.Fatal(err)
	}
	s.Put(key, "FETCH", []string{"catalog"}, 0, Entry{
		Outputs: map[string]any{"OUT": "rows"}, Cost: 0.01, Latency: 5 * time.Millisecond,
	})

	// Replay into a fresh store whose registry still has FETCH at v3.
	s2 := New(16)
	// Records carry the canonical (lowercased) name; real validators go
	// through the case-insensitive registry lookup.
	s2.SetDurable(DurableConfig{
		Validate: func(agent string, version int) bool {
			return strings.EqualFold(agent, "FETCH") && version == 3
		},
	})
	for _, rec := range sink.recs {
		if err := s2.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	e, ok := s2.Get(key)
	if !ok {
		t.Fatal("replayed entry not restored")
	}
	if e.Outputs["OUT"] != "rows" || e.Cost != 0.01 {
		t.Fatalf("restored entry corrupted: %+v", e)
	}
	if s2.Stats().Restored != 1 {
		t.Fatalf("Restored = %d, want 1", s2.Stats().Restored)
	}

	// A registry that moved on drops the stale entry at replay.
	s3 := New(16)
	s3.SetDurable(DurableConfig{
		Validate: func(agent string, version int) bool { return version == 4 },
	})
	for _, rec := range sink.recs {
		if err := s3.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s3.Get(key); ok {
		t.Fatal("stale entry survived version validation")
	}
}

func TestDurableInvalidationsAreLoggedAndReplayed(t *testing.T) {
	sink := &collectSink{}
	s := New(16)
	s.SetDurable(DurableConfig{Append: sink.append})
	key, _ := ComputeKey("FETCH", 1, map[string]any{"q": "x"})
	s.Put(key, "FETCH", []string{"catalog"}, 0, Entry{Outputs: map[string]any{"OUT": "v"}})
	s.InvalidateSource("catalog")

	s2 := New(16)
	for _, rec := range sink.recs {
		if err := s2.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s2.Get(key); ok {
		t.Fatal("replayed invalidation did not drop the entry")
	}
}

func TestDurableSnapshotRoundTrip(t *testing.T) {
	s := New(16)
	keys := make([]Key, 5)
	for i := range keys {
		k, _ := ComputeKey("A", 1, map[string]any{"i": i})
		keys[i] = k
		s.Put(k, "A", []string{"src"}, 0, Entry{Outputs: map[string]any{"i": float64(i)}, Cost: 0.001})
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := New(16)
	if err := s2.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 5 {
		t.Fatalf("restored %d entries, want 5", s2.Len())
	}
	for i, k := range keys {
		e, ok := s2.Get(k)
		if !ok || e.Outputs["i"] != float64(i) {
			t.Fatalf("entry %d missing or wrong after restore: %+v ok=%v", i, e, ok)
		}
	}
}

func TestDurableExpiredEntriesDroppedAtRestore(t *testing.T) {
	now := time.Unix(1000, 0)
	s := New(16)
	s.SetClock(clock.NewFake(now))
	sink := &collectSink{}
	s.SetDurable(DurableConfig{Append: sink.append})
	key, _ := ComputeKey("A", 1, map[string]any{"q": 1})
	s.Put(key, "A", nil, time.Minute, Entry{Outputs: map[string]any{"v": true}})

	// Reopen "two minutes later": the TTL has lapsed while down.
	s2 := New(16)
	s2.SetClock(clock.NewFake(now.Add(2 * time.Minute)))
	for _, rec := range sink.recs {
		if err := s2.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s2.Get(key); ok {
		t.Fatal("expired entry restored")
	}
	if s2.Stats().Restored != 0 {
		t.Fatalf("Restored = %d, want 0", s2.Stats().Restored)
	}
}
