// Package llm implements SimLLM, a deterministic simulated large language
// model with a configurable quality-of-service profile.
//
// The paper's architecture treats LLMs as agents and as data sources with
// cost, latency and accuracy characteristics that planners and optimizers
// reason about (§IV, §V-G). This repository cannot call hosted models, so
// SimLLM substitutes them: it exposes the task heads the blueprint needs
// (extraction, classification, summarization, generation, knowledge lookup)
// backed by a small enterprise knowledge base, and meters every call with a
// cost model. Accuracy is simulated: with probability 1-accuracy a call
// degrades its output (drops an item, hallucinates an entity), which is
// exactly the failure mode the architecture's verification and optimization
// paths are designed around. All randomness derives from a per-call hash of
// (seed, prompt), so identical calls give identical answers regardless of
// ordering — making every experiment reproducible.
//
// The hash is FNV-1a over "<seed>|<name>|<head>|<prompt parts>", its state
// after the model's own prefix computed once in New. It seeds a math/rand
// stream, and every head draws through math/rand's own Float64 and Intn; but
// the source under them is lazySource (source.go), which yields exactly the
// draws of rand.NewSource(hash) while computing only the words of the seeded
// state that a draw reads — two a draw, of 607. Its copy of math/rand's
// rngCooked table is derived at init from rand.NewSource(1)'s first 607 draws,
// so nothing here restates the standard library's constants and a change to
// them would show as a failing TestLazySourceMatchesMathRand, not as quietly
// different answers. Which calls degrade is pinned by testdata/golden.txt.
package llm

import (
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"
	"unicode/utf8"
)

// Tier identifies a model size class.
type Tier string

// Model tiers, ordered by capability and cost.
const (
	TierSmall  Tier = "small"
	TierMedium Tier = "medium"
	TierLarge  Tier = "large"
)

// Config describes one simulated model.
type Config struct {
	// Name is the model identifier (e.g. "sim-large-1").
	Name string
	// Tier is the size class.
	Tier Tier
	// CostPer1K is dollars per 1000 tokens (input+output combined).
	CostPer1K float64
	// BaseLatency is the fixed per-call latency.
	BaseLatency time.Duration
	// PerToken is the additional latency per output token.
	PerToken time.Duration
	// Accuracy in [0,1] is the probability a call returns an undegraded
	// answer.
	Accuracy float64
	// Seed drives the deterministic per-call randomness.
	Seed int64
}

// Presets returns the standard three-tier model family; a System runs on the
// large tier. The absolute numbers are synthetic; their *ordering* (larger =
// slower, costlier, more accurate) is what model-tier selection
// (optimizer.ChooseModelTier) needs.
func Presets(seed int64) []Config {
	return []Config{
		{Name: "sim-small", Tier: TierSmall, CostPer1K: 0.0005, BaseLatency: 15 * time.Millisecond, PerToken: 50 * time.Microsecond, Accuracy: 0.75, Seed: seed},
		{Name: "sim-medium", Tier: TierMedium, CostPer1K: 0.003, BaseLatency: 45 * time.Millisecond, PerToken: 150 * time.Microsecond, Accuracy: 0.90, Seed: seed},
		{Name: "sim-large", Tier: TierLarge, CostPer1K: 0.015, BaseLatency: 120 * time.Millisecond, PerToken: 400 * time.Microsecond, Accuracy: 0.98, Seed: seed},
	}
}

// Usage meters one call.
type Usage struct {
	InputTokens  int
	OutputTokens int
	// Cost in dollars under the model's cost model.
	Cost float64
	// Latency is the simulated wall time of the call (not slept).
	Latency time.Duration
	// Degraded reports whether the accuracy simulation perturbed the output.
	Degraded bool
}

// Model is one simulated LLM instance.
type Model struct {
	cfg Config
	kb  *KnowledgeBase
	// prefix is the FNV-1a state after "<seed>|<name>|", where every
	// call's hash starts.
	prefix uint64
}

// New creates a model over the shared knowledge base.
func New(cfg Config, kb *KnowledgeBase) *Model {
	if kb == nil {
		kb = DefaultKnowledgeBase()
	}
	prefix := fnvAdd(fnvOffset, strconv.FormatInt(cfg.Seed, 10)+"|"+cfg.Name+"|")
	return &Model{cfg: cfg, kb: kb, prefix: prefix}
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// CountTokens approximates tokenization as whitespace fields: it equals
// len(strings.Fields(text)) without building the slice.
func CountTokens(text string) int {
	n := 0
	for i := 0; ; n++ {
		if _, i = nextField(text, i); i < 0 {
			return n
		}
	}
}

// nextField returns the bounds of the first field of s at or after byte i,
// as strings.Fields splits it (unicode.IsSpace separates; an invalid byte is
// not a space), and -1, -1 when none is left.
func nextField(s string, i int) (start, end int) {
	for start = -1; i < len(s); {
		space, size := asciiSpace[s[i]] != 0, 1
		if s[i] >= utf8.RuneSelf {
			var r rune
			r, size = utf8.DecodeRuneInString(s[i:])
			space = unicode.IsSpace(r)
		}
		if space {
			if start >= 0 {
				return start, i
			}
		} else if start < 0 {
			start = i
		}
		i += size
	}
	if start < 0 {
		return -1, -1
	}
	return start, len(s)
}

// asciiSpace marks the ASCII bytes unicode.IsSpace reports.
var asciiSpace = [256]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// rngPool recycles the per-call random sources; Rand.Seed resets one to
// the stream a new one would draw.
var rngPool = sync.Pool{New: func() any { return rand.New(new(lazySource)) }}

// FNV-1a, 64 bit, as hash/fnv computes it.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvAdd(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// rng returns a deterministic per-call random source seeded with the hash of
// the model's prefix and the call's prompt parts, concatenated; the caller
// hands it back with rngPool.Put once the call has drawn what it needs.
func (m *Model) rng(prompt ...string) *rand.Rand {
	h := m.prefix
	for _, p := range prompt {
		h = fnvAdd(h, p)
	}
	r := rngPool.Get().(*rand.Rand)
	r.Seed(int64(h))
	return r
}

// meter fills a Usage for the given input and output token counts.
func (m *Model) meter(in, out int, degraded bool) Usage {
	return Usage{
		InputTokens:  in,
		OutputTokens: out,
		Cost:         float64(in+out) / 1000 * m.cfg.CostPer1K,
		Latency:      m.cfg.BaseLatency + time.Duration(out)*m.cfg.PerToken,
		Degraded:     degraded,
	}
}

// degrade reports whether this call should be perturbed.
func (m *Model) degrade(r *rand.Rand) bool {
	return r.Float64() >= m.cfg.Accuracy
}

// Classify assigns text to one of labels. A degraded call picks a random
// label. An empty label set returns "".
func (m *Model) Classify(text string, labels []string) (string, Usage) {
	if len(labels) == 0 {
		return "", m.meter(CountTokens(text), 0, false)
	}
	r := m.rng("classify|", text)
	defer rngPool.Put(r)
	degraded := m.degrade(r)
	var choice string
	if degraded {
		choice = labels[r.Intn(len(labels))]
	} else {
		choice = m.kb.BestLabel(text, labels)
	}
	return choice, m.meter(CountTokens(text), CountTokens(choice), degraded)
}

// Extract pulls the span of text matching the instruction. The simulator
// understands the instructions the blueprint's data planner emits:
// "criteria" strips conversational filler, "title" and "location" pull the
// job title and place from a query. A degraded call truncates the result.
func (m *Model) Extract(instruction, text string) (string, Usage) {
	r := m.rng("extract|", instruction, "|", text)
	defer rngPool.Put(r)
	degraded := m.degrade(r)
	out := m.kb.Extract(instruction, text)
	if degraded && out != "" {
		words := strings.Fields(out)
		if len(words) > 1 {
			out = strings.Join(words[:len(words)-1], " ")
		}
	}
	return out, m.meter(CountTokens(instruction)+CountTokens(text), CountTokens(out), degraded)
}

// Summarize condenses text to at most maxWords words. A degraded call
// injects a generic filler sentence (simulated hallucination).
func (m *Model) Summarize(text string, maxWords int) (string, Usage) {
	if maxWords <= 0 {
		maxWords = 40
	}
	r := m.rng("summarize|", text)
	defer rngPool.Put(r)
	degraded := m.degrade(r)
	const prefix, filler = "Summary: ", " (Additionally, results may relate to unspecified roles.)"
	// The first maxWords fields joined by single spaces, as
	// strings.Join(strings.Fields(text)[:maxWords], " ") without the split.
	// They lie within text[:end]; the output is sized exactly, since a
	// summary may be kept as long as the conversation that shows it.
	end, size := 0, 0
	for w := 0; w < maxWords; w++ {
		start, e := nextField(text, end)
		if e < 0 {
			break
		}
		if w == 0 {
			size += len(prefix)
		} else {
			size++
		}
		size += e - start
		end = e
	}
	if degraded {
		size += len(filler)
	}
	var b strings.Builder
	b.Grow(size)
	for i := 0; i < end; {
		start, e := nextField(text, i)
		if i == 0 {
			b.WriteString(prefix)
		} else {
			b.WriteByte(' ')
		}
		b.WriteString(text[start:e])
		i = e
	}
	if degraded {
		b.WriteString(filler)
	}
	out := b.String()
	return out, m.meter(CountTokens(text), CountTokens(out), degraded)
}

// KnowledgeList answers a list-valued knowledge query against the knowledge
// base: "cities in <region>", "titles related to <title>", "skills for
// <title>". A degraded call drops one true item and may hallucinate one
// plausible-but-wrong item — the failure mode the Fig. 7 data plan has to
// tolerate.
func (m *Model) KnowledgeList(query string) ([]string, Usage) {
	r := m.rng("knowledge|", query)
	defer rngPool.Put(r)
	degraded := m.degrade(r)
	items := m.kb.List(query)
	out := append([]string(nil), items...)
	if degraded && len(out) > 0 {
		drop := r.Intn(len(out))
		out = append(out[:drop], out[drop+1:]...)
		if r.Float64() < 0.5 {
			out = append(out, m.kb.Hallucination(query, r))
		}
	}
	outTokens := 0
	for _, item := range out {
		outTokens += CountTokens(item)
	}
	return out, m.meter(CountTokens(query), outTokens, degraded)
}

// Generate produces free text for a prompt. List-shaped prompts delegate to
// KnowledgeList; otherwise a deterministic template response is produced.
func (m *Model) Generate(prompt string) (string, Usage) {
	if items, ok := m.kb.IsListQuery(prompt); ok {
		list, usage := m.KnowledgeList(items)
		return strings.Join(list, ", "), usage
	}
	r := m.rng("generate|", prompt)
	defer rngPool.Put(r)
	degraded := m.degrade(r)
	out := m.kb.TemplateAnswer(prompt)
	if degraded {
		out += " Note that some details could not be verified."
	}
	return out, m.meter(CountTokens(prompt), CountTokens(out), degraded)
}

// Score rates the relevance of candidate to query in [0,1]; the simulator
// uses token overlap, and degraded calls add noise. It backs the JobMatcher
// agent's "predictive model" role.
func (m *Model) Score(query, candidate string) (float64, Usage) {
	r := m.rng("score|", query, "|", candidate)
	defer rngPool.Put(r)
	degraded := m.degrade(r)
	q := strings.Fields(strings.ToLower(query))
	c := map[string]bool{}
	for _, w := range strings.Fields(strings.ToLower(candidate)) {
		c[w] = true
	}
	if len(q) == 0 {
		return 0, m.meter(CountTokens(candidate), 0, degraded)
	}
	hit := 0
	for _, w := range q {
		if c[w] {
			hit++
		}
	}
	score := float64(hit) / float64(len(q))
	if degraded {
		score += (r.Float64() - 0.5) * 0.4
		if score < 0 {
			score = 0
		}
		if score > 1 {
			score = 1
		}
	}
	// The answer is one token, the score as "%.3f" prints it.
	return score, m.meter(CountTokens(query)+CountTokens(candidate), 1, degraded)
}
