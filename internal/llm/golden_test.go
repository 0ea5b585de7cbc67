package llm

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"blueprint/internal/nlq"
)

// goldenCorpus is answered by every head of the two lossy presets. Which
// texts a simulated model degrades is part of the repository's fixed
// behaviour (the benchmark's generator lists the utterances the seed commit
// mislabels), so the per-call random stream must not move.
var goldenCorpus = []string{
	"How many jobs are in San Jose?",
	"How many jobs are in Austin?",
	"I am looking for a data scientist position in SF bay area.",
	"I am looking for a product manager position in new york metro.",
	"Rank the applicants for job 64",
	"Rank the applicants for job 3",
	"Summarize the applicants for job 17",
	"average salary per city for salary over 100000",
	"average salary per city for salary over 100500",
	"What skills should I learn to become a data scientist?",
	"show me senior data scientist jobs in seattle",
	"cities in the sf bay area",
	"titles related to data scientist",
	"hello there",
	"",
}

// goldenLines renders every head's answer over the corpus, one line each.
func goldenLines() []string {
	var lines []string
	for _, cfg := range Presets(42)[:2] {
		m := New(cfg, nil)
		for _, text := range goldenCorpus {
			label, u := m.Classify(text, nlq.StandardIntents)
			lines = append(lines, fmt.Sprintf("%s classify %q => %q %v", cfg.Name, text, label, u.Degraded))
			for _, instruction := range []string{"criteria", "title", "location"} {
				out, u := m.Extract(instruction, text)
				lines = append(lines, fmt.Sprintf("%s extract/%s %q => %q %v", cfg.Name, instruction, text, out, u.Degraded))
			}
			sum, u := m.Summarize(text, 6)
			lines = append(lines, fmt.Sprintf("%s summarize %q => %q %v", cfg.Name, text, sum, u.Degraded))
			score, u := m.Score(text, "senior data scientist in san jose")
			lines = append(lines, fmt.Sprintf("%s score %q => %.6f %v", cfg.Name, text, score, u.Degraded))
			list, u := m.KnowledgeList(text)
			lines = append(lines, fmt.Sprintf("%s knowledge %q => %q %v", cfg.Name, text, list, u.Degraded))
			gen, u := m.Generate(text)
			lines = append(lines, fmt.Sprintf("%s generate %q => %q %v", cfg.Name, text, gen, u.Degraded))
		}
	}
	return lines
}

// TestGoldenOutputs pins every head's output, and which calls degrade, to
// the values recorded in testdata/golden.txt from the commit before the
// per-call random sources were pooled — alone and from many goroutines at
// once, where a source shared or re-seeded under a caller would show.
func TestGoldenOutputs(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	check := func(got []string) {
		if len(got) != len(want) {
			t.Errorf("%d lines, want %d", len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], want[i])
				return
			}
		}
	}
	check(goldenLines())

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check(goldenLines())
		}()
	}
	wg.Wait()
}
