package llm

import (
	"strings"
	"testing"
	"time"
)

func perfect(tier Tier) *Model {
	cfg := Config{Name: "t-" + string(tier), Tier: tier, CostPer1K: 0.01, BaseLatency: 10 * time.Millisecond, PerToken: time.Millisecond, Accuracy: 1.0, Seed: 7}
	return New(cfg, nil)
}

func TestPresetsOrdering(t *testing.T) {
	ps := Presets(1)
	if len(ps) != 3 {
		t.Fatalf("presets = %d", len(ps))
	}
	if !(ps[0].CostPer1K < ps[1].CostPer1K && ps[1].CostPer1K < ps[2].CostPer1K) {
		t.Fatal("cost ordering broken")
	}
	if !(ps[0].Accuracy < ps[1].Accuracy && ps[1].Accuracy < ps[2].Accuracy) {
		t.Fatal("accuracy ordering broken")
	}
	if !(ps[0].BaseLatency < ps[1].BaseLatency && ps[1].BaseLatency < ps[2].BaseLatency) {
		t.Fatal("latency ordering broken")
	}
}

func TestDeterminism(t *testing.T) {
	m := New(Presets(42)[0], nil)
	a1, u1 := m.KnowledgeList("cities in the sf bay area")
	a2, u2 := m.KnowledgeList("cities in the sf bay area")
	if strings.Join(a1, "|") != strings.Join(a2, "|") {
		t.Fatalf("nondeterministic: %v vs %v", a1, a2)
	}
	if u1 != u2 {
		t.Fatalf("usage differs: %+v vs %+v", u1, u2)
	}
	// Different seeds may differ (not asserted strictly), but same seed in a
	// fresh model must match.
	m2 := New(Presets(42)[0], nil)
	a3, _ := m2.KnowledgeList("cities in the sf bay area")
	if strings.Join(a1, "|") != strings.Join(a3, "|") {
		t.Fatal("fresh model with same seed differs")
	}
}

func TestKnowledgeListPerfectAccuracy(t *testing.T) {
	m := perfect(TierLarge)
	cities, usage := m.KnowledgeList("cities in the sf bay area")
	if len(cities) != 10 {
		t.Fatalf("cities = %v", cities)
	}
	if usage.Degraded {
		t.Fatal("perfect model degraded")
	}
	if usage.Cost <= 0 || usage.Latency <= 0 {
		t.Fatalf("usage = %+v", usage)
	}
	titles, _ := m.KnowledgeList("titles related to data scientist")
	if len(titles) != 5 || titles[0] != "Data Scientist" {
		t.Fatalf("titles = %v", titles)
	}
	skills, _ := m.KnowledgeList("skills for ml engineer")
	if len(skills) == 0 {
		t.Fatalf("skills = %v", skills)
	}
	if out, _ := m.KnowledgeList("cities in atlantis"); out != nil {
		t.Fatalf("unknown region = %v", out)
	}
}

func TestDegradationRate(t *testing.T) {
	cfg := Config{Name: "flaky", Tier: TierSmall, CostPer1K: 0.001, Accuracy: 0.5, Seed: 3}
	m := New(cfg, nil)
	degraded := 0
	const n = 400
	for i := 0; i < n; i++ {
		_, u := m.KnowledgeList("cities in the sf bay area query variant " + strings.Repeat("x", i%7) + string(rune('a'+i%26)))
		if u.Degraded {
			degraded++
		}
	}
	rate := float64(degraded) / n
	if rate < 0.35 || rate > 0.65 {
		t.Fatalf("degradation rate = %.2f, want ~0.5", rate)
	}
}

func TestDegradedListDropsItems(t *testing.T) {
	cfg := Config{Name: "always-bad", Tier: TierSmall, CostPer1K: 0.001, Accuracy: 0.0, Seed: 3}
	m := New(cfg, nil)
	cities, u := m.KnowledgeList("cities in the sf bay area")
	if !u.Degraded {
		t.Fatal("accuracy 0 must degrade")
	}
	// One true item dropped; possibly one hallucination added.
	if len(cities) > 10 {
		t.Fatalf("degraded list grew: %v", cities)
	}
	truth := map[string]bool{}
	for _, c := range DefaultKnowledgeBase().CitiesIn("sf bay area") {
		truth[c] = true
	}
	missing := 0
	for _, c := range DefaultKnowledgeBase().CitiesIn("sf bay area") {
		found := false
		for _, got := range cities {
			if got == c {
				found = true
			}
		}
		if !found {
			missing++
		}
	}
	if missing == 0 {
		t.Fatal("degraded call should drop at least one true city")
	}
}

func TestClassifyIntents(t *testing.T) {
	m := perfect(TierMedium)
	labels := []string{"job_search", "summarize", "rank", "open_query"}
	cases := []struct {
		text string
		want string
	}{
		{"I am looking for a data scientist position in SF bay area.", "job_search"},
		{"Summarize the applicants for job 12", "summarize"},
		{"Rank the top candidates by experience", "rank"},
		{"How many applicants have Python skills?", "open_query"},
		{"blargh nonsense", "open_query"}, // fallback = last label
	}
	for _, c := range cases {
		got, u := m.Classify(c.text, labels)
		if got != c.want {
			t.Errorf("Classify(%q) = %q, want %q", c.text, got, c.want)
		}
		if u.InputTokens == 0 {
			t.Errorf("no input tokens metered for %q", c.text)
		}
	}
	if got, _ := m.Classify("anything", nil); got != "" {
		t.Fatalf("empty labels = %q", got)
	}
}

func TestExtract(t *testing.T) {
	m := perfect(TierLarge)
	out, _ := m.Extract("criteria", "I am looking for a data scientist position in SF bay area.")
	if out != "data scientist position in SF bay area" {
		t.Fatalf("criteria = %q", out)
	}
	out, _ = m.Extract("title", "senior data scientist roles near Oakland")
	if out != "data scientist" {
		t.Fatalf("title = %q", out)
	}
	out, _ = m.Extract("location", "data scientist position in SF bay area")
	if out != "sf bay area" {
		t.Fatalf("location = %q", out)
	}
	out, _ = m.Extract("location", "jobs in Berkeley please")
	if out != "Berkeley" {
		t.Fatalf("city fallback = %q", out)
	}
	out, _ = m.Extract("location", "anywhere on mars")
	if out != "" {
		t.Fatalf("unknown location = %q", out)
	}
}

func TestExtractDegradedTruncates(t *testing.T) {
	cfg := Config{Name: "bad", Accuracy: 0, Seed: 1, CostPer1K: 0.001}
	m := New(cfg, nil)
	out, u := m.Extract("criteria", "I am looking for a data scientist position in SF bay area.")
	if !u.Degraded {
		t.Fatal("must degrade")
	}
	if out == "data scientist position in SF bay area" {
		t.Fatal("degraded extract identical to perfect output")
	}
}

func TestSummarize(t *testing.T) {
	m := perfect(TierMedium)
	long := strings.Repeat("applicant with strong background ", 30)
	out, u := m.Summarize(long, 10)
	if !strings.HasPrefix(out, "Summary: ") {
		t.Fatalf("summary = %q", out)
	}
	if CountTokens(out) > 12 { // "Summary:" + 10 words
		t.Fatalf("summary too long: %q", out)
	}
	if u.OutputTokens == 0 {
		t.Fatal("no output metered")
	}
	// Default max words.
	out2, _ := m.Summarize("short text", 0)
	if !strings.Contains(out2, "short text") {
		t.Fatalf("default = %q", out2)
	}
}

func TestGenerate(t *testing.T) {
	m := perfect(TierLarge)
	out, _ := m.Generate("list cities in the sf bay area")
	if !strings.Contains(out, "San Francisco") || !strings.Contains(out, "Berkeley") {
		t.Fatalf("list generate = %q", out)
	}
	out, _ = m.Generate("give me career advice for a data scientist")
	if !strings.Contains(out, "python") {
		t.Fatalf("advice = %q", out)
	}
	out, _ = m.Generate("explain the results")
	if !strings.Contains(out, "data sources") {
		t.Fatalf("explain = %q", out)
	}
	out, _ = m.Generate("random prompt")
	if out == "" {
		t.Fatal("empty generate")
	}
}

func TestScore(t *testing.T) {
	m := perfect(TierLarge)
	hi, _ := m.Score("data scientist python sql", "Data Scientist with python and sql experience")
	lo, _ := m.Score("data scientist python sql", "Janitorial staff opening")
	if hi <= lo {
		t.Fatalf("score ordering: hi=%v lo=%v", hi, lo)
	}
	if hi < 0 || hi > 1 || lo < 0 || lo > 1 {
		t.Fatalf("scores out of range: %v %v", hi, lo)
	}
	z, _ := m.Score("", "anything")
	if z != 0 {
		t.Fatalf("empty query score = %v", z)
	}
}

func TestUsageCostModel(t *testing.T) {
	cfg := Config{Name: "m", CostPer1K: 0.01, BaseLatency: 100 * time.Millisecond, PerToken: time.Millisecond, Accuracy: 1, Seed: 1}
	m := New(cfg, nil)
	_, u := m.Summarize("one two three four", 10)
	wantTokens := 4 + u.OutputTokens
	wantCost := float64(wantTokens) / 1000 * 0.01
	if u.InputTokens != 4 {
		t.Fatalf("input tokens = %d", u.InputTokens)
	}
	if u.Cost != wantCost {
		t.Fatalf("cost = %v, want %v", u.Cost, wantCost)
	}
	wantLatency := 100*time.Millisecond + time.Duration(u.OutputTokens)*time.Millisecond
	if u.Latency != wantLatency {
		t.Fatalf("latency = %v, want %v", u.Latency, wantLatency)
	}
}

func TestKnowledgeBaseHelpers(t *testing.T) {
	kb := DefaultKnowledgeBase()
	for _, region := range []string{"bay area", "seattle area", "new york metro", "socal"} {
		if kb.CitiesIn(region) == nil {
			t.Fatalf("region %q unknown", region)
		}
	}
	if got := kb.CitiesIn("positions in the SF Bay Area please"); len(got) != 10 {
		t.Fatalf("cities = %v", got)
	}
	if got := kb.CitiesIn("atlantis"); got != nil {
		t.Fatalf("unknown = %v", got)
	}
	if got := kb.RelatedTitles("senior data scientist"); len(got) == 0 {
		t.Fatalf("titles = %v", got)
	}
	if got := kb.SkillsFor("software engineer"); len(got) == 0 {
		t.Fatalf("skills = %v", got)
	}
	if _, ok := kb.IsListQuery("list the cities in seattle area"); !ok {
		t.Fatal("list query not detected")
	}
	if _, ok := kb.IsListQuery("hello there"); ok {
		t.Fatal("non-list query detected as list")
	}
}

func TestCountTokens(t *testing.T) {
	if CountTokens("") != 0 || CountTokens("a b  c") != 3 {
		t.Fatal("token counting broken")
	}
}
