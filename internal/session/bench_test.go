package session

import (
	"testing"
	"time"

	"blueprint/internal/agent"
	"blueprint/internal/streams"
)

// BenchmarkAwaitDisplayDeep is the wait every ask ends with, on a long
// conversation: the answer sits at offset 2048 of the display stream. The
// wait should cost one delivered message, not the 2048 before it.
func BenchmarkAwaitDisplayDeep(b *testing.B) {
	store, m := newEnv(b)
	s, err := m.Create("")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const depth = 2048
	for i := 0; i <= depth; i++ {
		if _, err := store.Append(streams.Message{
			Stream: agent.DisplayStream(s.ID), Kind: streams.Data, Sender: "QUERY_SUMMARIZER",
			Tags: []string{"display"}, Payload: "Summary: The query returned 1 rows. n: 257.",
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.AwaitDisplay(depth, "", time.Second); err != nil {
			b.Fatal(err)
		}
	}
}
