package memo

import (
	"context"
	"testing"
)

// BenchmarkComputeKey keys the input of a summarize step: one int literal,
// the shape of a memo-warm planned ask's step.
func BenchmarkComputeKey(b *testing.B) {
	inputs := map[string]any{"JOB_ID": 17}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeKey("SUMMARIZER", 1, inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDoHit is Do on a resident key: what a memo-warm step pays the
// store.
func BenchmarkDoHit(b *testing.B) {
	s := New(0)
	key, err := ComputeKey("SUMMARIZER", 1, map[string]any{"JOB_ID": 17})
	if err != nil {
		b.Fatal(err)
	}
	s.Put(key, "SUMMARIZER", []string{"jobs", "applications"}, 0, Entry{Outputs: map[string]any{"SUMMARY": "2 applicants"}, Cost: 0.005})
	ctx := context.Background()
	exec := func() (Entry, error) {
		b.Fatal("a resident key was executed")
		return Entry{}, nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, oc, err := s.Do(ctx, key, "SUMMARIZER", []string{"jobs", "applications"}, 0, exec); err != nil || oc != Hit {
			b.Fatalf("Do = %v, %v", oc, err)
		}
	}
}
