package llm

import (
	"math/rand"
	"strings"
)

// KnowledgeBase is the world knowledge backing SimLLM: regions and their
// cities, job-title relationships and per-title skills. It stands in for the
// "general knowledge of LLMs" the paper taps when, e.g., no database column
// matches "SF bay area" (§V-G).
type KnowledgeBase struct {
	regions map[string][]string // region name (lowercase) -> cities
	titles  map[string][]string // title (lowercase) -> related titles (incl. itself)
	skills  map[string][]string // title (lowercase) -> skills
	intents map[string][]string // intent label -> cue words
}

// DefaultKnowledgeBase returns the HR-domain knowledge base used throughout
// the case study.
func DefaultKnowledgeBase() *KnowledgeBase {
	return &KnowledgeBase{
		regions: map[string][]string{
			"sf bay area": {
				"San Francisco", "Oakland", "San Jose", "Berkeley", "Palo Alto",
				"Mountain View", "Sunnyvale", "Fremont", "Redwood City", "Santa Clara",
			},
			"bay area": {
				"San Francisco", "Oakland", "San Jose", "Berkeley", "Palo Alto",
				"Mountain View", "Sunnyvale", "Fremont", "Redwood City", "Santa Clara",
			},
			"seattle area":   {"Seattle", "Bellevue", "Redmond", "Kirkland"},
			"new york metro": {"New York", "Brooklyn", "Jersey City", "Hoboken"},
			"socal":          {"Los Angeles", "San Diego", "Irvine", "Santa Monica"},
		},
		titles: map[string][]string{
			"data scientist": {
				"Data Scientist", "Senior Data Scientist", "Staff Data Scientist",
				"Machine Learning Engineer", "Applied Scientist",
			},
			"ml engineer": {
				"ML Engineer", "Machine Learning Engineer", "Senior Machine Learning Engineer",
				"Data Scientist",
			},
			"software engineer": {
				"Software Engineer", "Senior Software Engineer", "Staff Software Engineer",
				"Backend Engineer",
			},
			"data analyst": {
				"Data Analyst", "Senior Data Analyst", "Business Intelligence Analyst",
			},
			"recruiter": {
				"Recruiter", "Technical Recruiter", "Senior Recruiter",
			},
		},
		skills: map[string][]string{
			"data scientist":    {"python", "sql", "statistics", "machine learning", "experimentation"},
			"ml engineer":       {"python", "go", "distributed systems", "mlops", "deep learning"},
			"software engineer": {"go", "java", "distributed systems", "apis", "testing"},
			"data analyst":      {"sql", "excel", "dashboards", "statistics"},
		},
		intents: map[string][]string{
			"job_search":    {"looking", "position", "job", "opening", "role", "hiring", "apply"},
			"open_query":    {"how many", "which", "what", "list", "show", "count", "average", "top"},
			"summarize":     {"summarize", "summary", "overview", "brief"},
			"rank":          {"rank", "best", "top candidates", "sort", "order"},
			"profile":       {"my profile", "about me", "my skills", "resume", "cv"},
			"smalltalk":     {"hello", "hi", "thanks", "thank you", "bye"},
			"career_advice": {"advice", "career", "should i", "skills do i need", "become"},
		},
	}
}

// CitiesIn returns the cities of a region (nil if unknown). Matching is
// case-insensitive and tolerant of surrounding words ("in the SF Bay Area").
func (kb *KnowledgeBase) CitiesIn(region string) []string {
	// Longest matching region name wins ("sf bay area" over "bay area").
	best := longestName(kb.regions, strings.ToLower(region))
	if best == "" {
		return nil
	}
	return append([]string(nil), kb.regions[best]...)
}

// RelatedTitles returns titles related to the given one (including
// canonical forms), or nil if unknown.
func (kb *KnowledgeBase) RelatedTitles(title string) []string {
	best := longestName(kb.titles, strings.ToLower(title))
	if best == "" {
		return nil
	}
	return append([]string(nil), kb.titles[best]...)
}

// SkillsFor returns the skills associated with a title, or nil.
func (kb *KnowledgeBase) SkillsFor(title string) []string {
	best := longestName(kb.skills, strings.ToLower(title))
	if best == "" {
		return nil
	}
	return append([]string(nil), kb.skills[best]...)
}

// List answers a list-shaped knowledge query.
func (kb *KnowledgeBase) List(query string) []string {
	q := strings.ToLower(query)
	switch {
	case strings.Contains(q, "cities"):
		return kb.CitiesIn(q)
	case strings.Contains(q, "titles"), strings.Contains(q, "roles"):
		return kb.RelatedTitles(q)
	case strings.Contains(q, "skills"):
		return kb.SkillsFor(q)
	default:
		if cities := kb.CitiesIn(q); cities != nil {
			return cities
		}
		return kb.RelatedTitles(q)
	}
}

// IsListQuery reports whether a prompt is a list-valued knowledge query and
// returns the normalized query.
func (kb *KnowledgeBase) IsListQuery(prompt string) (string, bool) {
	q := strings.ToLower(prompt)
	for _, cue := range []string{"list", "cities in", "titles related", "skills for", "enumerate"} {
		if strings.Contains(q, cue) {
			return q, true
		}
	}
	return "", false
}

// Hallucination fabricates a plausible-but-wrong list item for degraded
// calls.
func (kb *KnowledgeBase) Hallucination(query string, r *rand.Rand) string {
	q := strings.ToLower(query)
	if strings.Contains(q, "cit") {
		wrong := []string{"Sacramento", "Los Angeles", "Portland", "Springfield"}
		return wrong[r.Intn(len(wrong))]
	}
	wrong := []string{"Data Janitor", "Prompt Engineer III", "Chief Scientist"}
	return wrong[r.Intn(len(wrong))]
}

// BestLabel picks the label whose cue words best match the text; ties and
// unknown text fall back to the last label (callers order labels with the
// fallback last, mirroring "open-ended query" as the catch-all intent in the
// case study).
func (kb *KnowledgeBase) BestLabel(text string, labels []string) string {
	t := strings.ToLower(text)
	bestLabel := labels[len(labels)-1]
	bestScore := 0
	for _, label := range labels {
		cues := kb.intents[label]
		score := 0
		for _, cue := range cues {
			if strings.Contains(t, cue) {
				score += len(cue) // longer, more specific cues weigh more
			}
		}
		if score > bestScore {
			bestScore = score
			bestLabel = label
		}
	}
	return bestLabel
}

// Extract implements the instruction-directed span extraction used by the
// data planner's extract operator.
func (kb *KnowledgeBase) Extract(instruction, text string) string {
	inst := strings.ToLower(instruction)
	switch {
	case strings.Contains(inst, "criteria"):
		return stripFiller(text)
	case strings.Contains(inst, "title"), strings.Contains(inst, "role"):
		return kb.extractTitle(text)
	case strings.Contains(inst, "location"), strings.Contains(inst, "city"), strings.Contains(inst, "region"), strings.Contains(inst, "area"):
		return kb.extractLocation(text)
	default:
		return stripFiller(text)
	}
}

// fillerPrefixes are conversational lead-ins stripped by criteria
// extraction.
var fillerPrefixes = []string{
	"i am looking for", "i'm looking for", "i am searching for", "i want",
	"looking for", "find me", "show me", "please find", "i would like",
	"can you find", "help me find",
}

func stripFiller(text string) string {
	t := strings.TrimSpace(text)
	lower := strings.ToLower(t)
	for _, p := range fillerPrefixes {
		if strings.HasPrefix(lower, p) {
			t = strings.TrimSpace(t[len(p):])
			lower = strings.ToLower(t)
		}
	}
	t = strings.TrimSuffix(t, ".")
	t = strings.TrimPrefix(t, "a ")
	t = strings.TrimPrefix(t, "an ")
	return strings.TrimSpace(t)
}

// longestName returns the longest key of names that text contains, the
// first by byte order among equally long ones, or "" if none is contained.
// Map order never decides.
func longestName[V any](names map[string]V, text string) string {
	best := ""
	for name := range names {
		if strings.Contains(text, name) && (len(name) > len(best) || len(name) == len(best) && name < best) {
			best = name
		}
	}
	return best
}

func (kb *KnowledgeBase) extractTitle(text string) string {
	return longestName(kb.titles, strings.ToLower(text))
}

// extractLocation returns the longest region name the text contains, else
// the known city it mentions first (the longer, then the first by byte
// order, of cities mentioned at the same place).
func (kb *KnowledgeBase) extractLocation(text string) string {
	t := strings.ToLower(text)
	if region := longestName(kb.regions, t); region != "" {
		return region
	}
	best, at := "", len(t)
	for _, cities := range kb.regions {
		for _, c := range cities {
			i := strings.Index(t, strings.ToLower(c))
			if i >= 0 && (i < at || i == at && (len(c) > len(best) || len(c) == len(best) && c < best)) {
				best, at = c, i
			}
		}
	}
	return best
}

// TemplateAnswer produces a deterministic free-text answer.
func (kb *KnowledgeBase) TemplateAnswer(prompt string) string {
	p := strings.ToLower(prompt)
	switch {
	case strings.Contains(p, "advice"), strings.Contains(p, "career"):
		title := kb.extractTitle(p)
		if title != "" {
			skills := kb.SkillsFor(title)
			if len(skills) > 0 {
				return "To grow as a " + title + ", focus on: " + strings.Join(skills, ", ") + "."
			}
		}
		return "Focus on building a portfolio of projects and strengthening fundamentals."
	case strings.Contains(p, "explain"):
		return "This result was produced by querying the registered data sources and ranking by relevance."
	default:
		return "Here is a response based on the available enterprise data."
	}
}
