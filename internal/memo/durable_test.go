package memo

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"blueprint/internal/clock"
	"blueprint/internal/hragents"
	"blueprint/internal/planner"
	"blueprint/internal/relational"
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

// typedOutputs are step outputs of the types the value codec keeps: a
// statement result, a plan with an int literal binding, and a string.
func typedOutputs() map[string]any {
	return map[string]any{
		"ROWS": &hragents.QueryRows{
			Columns: []string{"id", "city", "salary"},
			Rows: []relational.Row{
				{relational.NewInt(7), relational.NewString("San Jose"), relational.NewFloat(120500.5)},
				{relational.NewInt(8), relational.Null, relational.NewFloat(99000)},
			},
			SQL: "SELECT id, city, salary FROM jobs WHERE id IN (7, 8)",
		},
		"PLAN": &planner.Plan{
			ID: "ae-summarize-7", Utterance: "Summarize the applicants for job 7", Intent: "summarize",
			Steps: []planner.Step{{ID: "s1", Agent: "SUMMARIZER", Task: "summarize", Score: 0.5,
				Bindings: map[string]planner.Binding{"JOB_ID": {Value: 7}}}},
			Explanation: []string{"intent: summarize"},
		},
		"SUMMARY": "2 jobs, one in San Jose",
	}
}

// Outputs of registered and scalar types restore as the values that were
// put, reflect.DeepEqual, from log replay and from a snapshot: the rows as
// rows, the plan as a plan whose JOB_ID is still an int.
func TestDurableOutputsKeepTheirTypes(t *testing.T) {
	sink := &collectSink{}
	s := New(16)
	s.SetDurable(DurableConfig{Append: sink.append})
	key, err := ComputeKey("SUMMARIZER", 1, map[string]any{"JOB_ID": 7})
	if err != nil {
		t.Fatal(err)
	}
	want := Entry{Outputs: typedOutputs(), Cost: 0.02, Latency: 3 * time.Millisecond}
	s.Put(key, "SUMMARIZER", []string{"jobs"}, 0, want)

	replayed := New(16)
	for _, rec := range sink.recs {
		if err := replayed.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := s.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored := New(16)
	if err := restored.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	for name, store := range map[string]*Store{"replay": replayed, "restore": restored} {
		got, ok := store.Get(key)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the entry came back as\n%#v (found %v)\nwant\n%#v", name, got, ok, want)
		}
	}
}

// A memo record written as JSON, as the log held them before its records
// were binary, is refused with an error that names memo, by Apply and by
// Restore; nothing is restored and nothing panics.
func TestJSONMemoRecordIsRefused(t *testing.T) {
	old := []byte(`{"op":"put","key":"k","agent":"fetch","outputs":{"OUT":"rows"}}`)
	s := New(16)
	if err := s.Apply(old); err == nil || !strings.HasPrefix(err.Error(), "memo: ") {
		t.Fatalf("Apply of a JSON record: err = %v, want a memo error", err)
	}
	if err := s.Restore(bytes.NewReader(append(old, '\n'))); err == nil || !strings.HasPrefix(err.Error(), "memo: ") {
		t.Fatalf("Restore of a JSON snapshot: err = %v, want a memo error", err)
	}
	if s.Len() != 0 || s.Stats().Restored != 0 {
		t.Fatalf("a refused record restored %d entries", s.Len())
	}
}

// preChangeKey is the key a step had while keys were the hex SHA-256 of the
// agent, a zero byte, the version, a zero byte and the inputs' JSON form.
func preChangeKey(t *testing.T, agent string, version int, inputs map[string]any) Key {
	t.Helper()
	js, err := json.Marshal(inputs)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(append([]byte(agent), 0))
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(version)))
	h.Write(append([]byte{0}, js...))
	return Key(hex.EncodeToString(h.Sum(nil)))
}

// A log written while keys were 64 hex characters still recovers: its put
// applies, but under a key no lookup computes now, so the same inputs miss
// and execute again, and the old entry ages out through the LRU.
func TestPreChangeKeyAppliesAndAgesOut(t *testing.T) {
	inputs := map[string]any{"JOB_ID": 7}
	old := preChangeKey(t, "SUMMARIZER", 1, inputs)
	if len(old) != 64 {
		t.Fatalf("a pre-change key is %d bytes, want 64", len(old))
	}
	sink := &collectSink{}
	w := New(16)
	w.SetDurable(DurableConfig{Append: sink.append, AgentVersion: func(string) int { return 1 }})
	w.Put(old, "SUMMARIZER", []string{"jobs"}, 0, Entry{Outputs: map[string]any{"SUMMARY": "old"}})

	s := New(2)
	for _, rec := range sink.recs {
		if err := s.Apply(rec); err != nil {
			t.Fatalf("a record with a pre-change key is refused: %v", err)
		}
	}
	if _, ok := s.Peek(old); !ok || s.Stats().Restored != 1 {
		t.Fatal("the pre-change record was not applied")
	}
	key := mustKey(t, "SUMMARIZER", 1, inputs)
	e, oc, err := s.Do(context.Background(), key, "SUMMARIZER", []string{"jobs"}, 0, func() (Entry, error) {
		return Entry{Outputs: map[string]any{"SUMMARY": "new"}}, nil
	})
	if err != nil || oc != Miss || e.Outputs["SUMMARY"] != "new" {
		t.Fatalf("the same inputs under the new key: %v %v %v, want a miss that executes", e, oc, err)
	}
	s.Put(mustKey(t, "SUMMARIZER", 1, map[string]any{"JOB_ID": 8}), "SUMMARIZER", []string{"jobs"}, 0, Entry{})
	if _, ok := s.Peek(old); ok || s.Stats().Evictions != 1 {
		t.Fatalf("the pre-change entry did not age out: %+v", s.Stats())
	}
}
