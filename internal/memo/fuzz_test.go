package memo

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"blueprint/internal/clock"
	"blueprint/internal/durability"
)

// FuzzMemoRecord hands the memo's one record decoder arbitrary bytes: as one
// log record (Apply on a fresh store) and as a snapshot (Restore on
// another). Neither panics, and neither allocates more than the input can
// hold: a count that claims more elements than bytes remain is an error, not
// a make. Seeds are what the encoder wrote: a put whose outputs hold a
// string, a *QueryRows, a *Plan and a generic map, an expiring put, each
// invalidation and a two-entry snapshot, and a put whose source count claims
// 2^62 sources.
func FuzzMemoRecord(f *testing.F) {
	sink := &collectSink{}
	s := New(16)
	s.SetClock(clock.NewFake(time.Unix(1000, 0)))
	s.SetDurable(DurableConfig{Append: sink.append, AgentVersion: func(string) int { return 2 }})
	outputs := typedOutputs()
	outputs["OPTS"] = map[string]any{"limit": 3, "fields": []any{"name", "status"}}
	s.Put("k1", "SUMMARIZER", []string{"jobs", "applications"}, 0, Entry{Outputs: outputs, Cost: 0.02, Latency: time.Millisecond})
	s.Put("k2", "FETCH", nil, time.Minute, Entry{Outputs: map[string]any{"OUT": "rows"}})
	s.InvalidateAgent("FETCH")
	s.InvalidateSource("resumes")
	s.Put("k3", "RANKER", []string{"jobs"}, 0, Entry{Outputs: map[string]any{"RANKED": "1, 2"}})
	var snap bytes.Buffer
	if err := s.Snapshot(&snap); err != nil {
		f.Fatal(err)
	}
	if s.Len() != 2 {
		f.Fatalf("the snapshot holds %d entries, want 2", s.Len())
	}
	huge := durability.AppendUvarint(durability.AppendVarint(durability.AppendString(durability.AppendString([]byte{recPut}, "k"), "a"), 0), 1<<62)
	if err := New(16).Apply(huge); err == nil {
		f.Fatal("a record claiming 2^62 sources was applied")
	}
	for _, rec := range sink.recs {
		if err := New(16).Apply(rec); err != nil {
			f.Fatalf("a record the encoder wrote is refused: %v", err)
		}
		f.Add(rec)
	}
	f.Add(snap.Bytes())
	f.Add(huge)
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		allocBounded(t, data, func() { _ = New(16).Apply(data) })
		allocBounded(t, data, func() { _ = New(16).Restore(bytes.NewReader(data)) })
	})
}

// allocBounded runs fn and fails if it allocated more than a fixed allowance
// plus a multiple of the input: what decoding a record may cost.
func allocBounded(t *testing.T, input []byte, fn func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+256*len(input)); got > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(input), got, limit)
	}
}
